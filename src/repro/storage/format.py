"""The versioned on-disk block container behind the sketch store (format v1).

One file holds one *kind* of payload (``"sketches"``, ``"csr"``,
``"partition"``, ``"lsh"``) as a checksummed header plus aligned raw array
blocks:

```
offset 0   magic           8 bytes  b"PGSKETCH"
offset 8   format version  u32 LE   (currently 1)
offset 12  header length   u32 LE   (JSON bytes)
offset 16  header crc32    u32 LE   (zlib.crc32 of the JSON bytes)
offset 20  reserved        u32 LE   (0)
offset 24  header JSON     header-length bytes, UTF-8, sorted keys
...        array blocks    each 64-byte aligned, raw C-order bytes
```

The header JSON carries ``kind``, free-form ``meta`` (family name, params,
graph fingerprint, ...), and per-array descriptors ``{name, dtype, shape,
nbytes, crc32}`` in block order.  Block offsets are *derived*, not stored:
the first block starts at the first 64-byte boundary at or after the header,
and each subsequent block at the first boundary after its predecessor — so
the header bytes are a pure function of the payload and a save is
byte-deterministic.

Loading is either **eager** (blocks read into fresh writable arrays, every
checksum verified) or **mmap** (each block exposed as a read-only
``np.memmap`` view — zero-copy; the header checksum and file length are
verified up front, block checksums on demand via :meth:`StoreHandle.verify`).
Mmap handles are registered with the ``reprosan`` lifecycle ledger so a
handle that is never closed is attributed to the ``open_blocks`` call-site
that acquired it.

Version policy: the major format version in the preamble is bumped on any
layout change a v1 reader cannot parse; readers reject any version other
than their own (:class:`StoreVersionError`) instead of guessing.  Additive
metadata goes into ``meta`` without a version bump — readers must ignore
unknown ``meta`` keys.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Iterator, Mapping

import numpy as np

from ..analysis import runtime as _san

__all__ = [
    "BLOCK_ALIGN",
    "FORMAT_VERSION",
    "MAGIC",
    "StoreCorruptError",
    "StoreFormatError",
    "StoreHandle",
    "StoreVersionError",
    "open_blocks",
    "read_store_header",
    "write_blocks",
]

MAGIC = b"PGSKETCH"
FORMAT_VERSION = 1
#: Every array block starts on this alignment so mmap views are cache-line
#: (and dtype-) aligned regardless of header size.
BLOCK_ALIGN = 64

_PREAMBLE = struct.Struct("<8sIIII")


class StoreFormatError(ValueError):
    """The file is not a sketch store, or its header is malformed."""


class StoreVersionError(StoreFormatError):
    """The file uses a format version this reader does not understand."""


class StoreCorruptError(StoreFormatError):
    """The file is a sketch store but its bytes fail validation."""


def _aligned(offset: int) -> int:
    return (offset + BLOCK_ALIGN - 1) // BLOCK_ALIGN * BLOCK_ALIGN


def _buffer_crc32(arr: np.ndarray) -> int:
    """crc32 of a C-contiguous array's raw bytes, without copying."""
    return zlib.crc32(memoryview(arr).cast("B"))


def write_blocks(
    path: str | os.PathLike[str],
    kind: str,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write ``arrays`` (in mapping order) as one format-v1 store file.

    The write is atomic: bytes go to ``<path>.tmp`` and are renamed over
    ``path`` only after a successful flush, so a crashed save never leaves a
    half-written store behind.  Saving the same payload twice produces
    byte-identical files (no timestamps, sorted header keys).
    """
    path = os.fspath(path)
    prepared: list[tuple[str, np.ndarray]] = [
        (str(name), np.ascontiguousarray(arr)) for name, arr in arrays.items()
    ]
    descriptors = [
        {
            "name": name,
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "nbytes": int(arr.nbytes),
            "crc32": _buffer_crc32(arr),
        }
        for name, arr in prepared
    ]
    header = {
        "kind": str(kind),
        "meta": dict(meta) if meta is not None else {},
        "arrays": descriptors,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes), zlib.crc32(header_bytes), 0)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(preamble)
        f.write(header_bytes)
        offset = _PREAMBLE.size + len(header_bytes)
        for _, arr in prepared:
            start = _aligned(offset)
            f.write(b"\x00" * (start - offset))
            f.write(memoryview(arr).cast("B"))
            offset = start + arr.nbytes
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_store_header(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and validate the preamble + header of a store file.

    Checks magic, format version, header checksum, JSON well-formedness, and
    descriptor/file-length consistency.  Returns the header dict augmented
    with a derived absolute ``offset`` per array descriptor.
    """
    path = os.fspath(path)
    with open(path, "rb") as f:
        raw = f.read(_PREAMBLE.size)
        if len(raw) < _PREAMBLE.size:
            raise StoreFormatError(f"{path}: too short to be a sketch store")
        magic, version, header_len, header_crc, _reserved = _PREAMBLE.unpack(raw)
        if magic != MAGIC:
            raise StoreFormatError(f"{path}: bad magic {magic!r}; not a sketch store")
        if version != FORMAT_VERSION:
            raise StoreVersionError(
                f"{path}: format version {version} (this reader understands {FORMAT_VERSION})"
            )
        header_bytes = f.read(header_len)
    if len(header_bytes) != header_len:
        raise StoreCorruptError(f"{path}: truncated header")
    if zlib.crc32(header_bytes) != header_crc:
        raise StoreCorruptError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        raise StoreCorruptError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise StoreCorruptError(f"{path}: header missing the array descriptor list")
    offset = _PREAMBLE.size + header_len
    for desc in header["arrays"]:
        if not isinstance(desc, dict):
            raise StoreCorruptError(f"{path}: malformed array descriptor")
        try:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(int(s) for s in desc["shape"])
            nbytes = int(desc["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(f"{path}: malformed array descriptor ({exc})") from exc
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if expected != nbytes:
            raise StoreCorruptError(
                f"{path}: descriptor {desc.get('name')!r} claims {nbytes} bytes "
                f"for shape {shape} of {dtype.name} ({expected} expected)"
            )
        start = _aligned(offset)
        desc["offset"] = start
        offset = start + nbytes
    if os.path.getsize(path) < offset:
        raise StoreCorruptError(
            f"{path}: truncated payload ({os.path.getsize(path)} bytes, {offset} expected)"
        )
    return header


class StoreHandle:
    """An opened store file: its arrays plus the lifecycle of their views.

    ``arrays`` maps block name to array — fresh writable memory in eager
    mode, read-only ``np.memmap`` views in mmap mode.  Closing the handle
    marks the mapping released in the sanitizer ledger and drops the
    handle's references; array views already handed out stay valid (the OS
    unmaps when the last view is garbage-collected), so ``close()`` is about
    ownership accounting, never about invalidating live query state.
    """

    def __init__(
        self,
        path: str,
        kind: str,
        meta: dict[str, Any],
        arrays: dict[str, np.ndarray],
        descriptors: list[dict[str, Any]],
        mode: str,
        owner: Any = None,
        purpose: str = "",
        site: str | None = None,
    ) -> None:
        self.path = path
        self.kind = kind
        self.meta = meta
        self.arrays = arrays
        self.mode = mode
        self._descriptors = descriptors
        self._closed = False
        self._san_token = ""
        if mode == "mmap":
            self._san_token = _san.track_mmap(
                self,
                path,
                owner=owner,
                purpose=purpose or f"{kind} store mmap",
                site=site or _san.call_site(1),
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def verify(self) -> None:
        """Recompute every block checksum; raise :class:`StoreCorruptError` on
        mismatch.  Eager loads already verified at read time; for mmap loads
        this is the opt-in full-file integrity pass."""
        if self._closed:
            raise ValueError(f"store handle for {self.path} is closed")
        for desc in self._descriptors:
            arr = self.arrays[desc["name"]]
            if _buffer_crc32(np.ascontiguousarray(arr)) != desc["crc32"]:
                raise StoreCorruptError(
                    f"{self.path}: block {desc['name']!r} checksum mismatch"
                )

    def close(self) -> None:
        """Release the mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _san.release_mmap(self._san_token)
        self.arrays = {}

    def __enter__(self) -> "StoreHandle":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else self.mode
        return f"StoreHandle({self.path!r}, kind={self.kind!r}, {state})"


def _map_block(path: str, desc: Mapping[str, Any]) -> np.ndarray:
    """One read-only zero-copy view of a block; ownership passes to the caller
    (the enclosing :class:`StoreHandle` tracks and releases the mapping)."""
    return np.memmap(
        path,
        dtype=np.dtype(desc["dtype"]),
        mode="r",
        offset=int(desc["offset"]),
        shape=tuple(int(s) for s in desc["shape"]),
        order="C",
    )


def _read_block(f: Any, desc: Mapping[str, Any], path: str) -> np.ndarray:
    """One eagerly-read writable array for a block, checksum-verified."""
    f.seek(int(desc["offset"]))
    shape = tuple(int(s) for s in desc["shape"])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    arr = np.fromfile(f, dtype=np.dtype(desc["dtype"]), count=count)
    if arr.size != count:
        raise StoreCorruptError(f"{path}: truncated block {desc['name']!r}")
    if _buffer_crc32(arr) != int(desc["crc32"]):
        raise StoreCorruptError(f"{path}: block {desc['name']!r} checksum mismatch")
    return arr.reshape(shape)


def open_blocks(
    path: str | os.PathLike[str],
    mode: str = "mmap",
    owner: Any = None,
    purpose: str = "",
    site: str | None = None,
) -> StoreHandle:
    """Open a store file and expose its blocks as arrays.

    ``mode="mmap"`` maps each block zero-copy (read-only views backed by the
    page cache); ``mode="eager"`` reads fresh writable arrays and verifies
    every block checksum.  ``owner`` scopes the mapping in the sanitizer
    ledger (e.g. the ``ShardedEngine`` whose ``close()`` must release it).
    """
    if mode not in ("mmap", "eager"):
        raise ValueError(f"mode must be 'mmap' or 'eager', got {mode!r}")
    path = os.fspath(path)
    header = read_store_header(path)
    descriptors: list[dict[str, Any]] = header["arrays"]
    arrays: dict[str, np.ndarray] = {}
    if mode == "eager":
        with open(path, "rb") as f:
            for desc in descriptors:
                arrays[str(desc["name"])] = _read_block(f, desc, path)
    else:
        for desc in descriptors:
            arrays[str(desc["name"])] = _map_block(path, desc)
    return StoreHandle(
        path,
        str(header.get("kind", "")),
        dict(header.get("meta", {})),
        arrays,
        descriptors,
        mode,
        owner=owner,
        purpose=purpose,
        site=site or _san.call_site(1),
    )


def iter_block_names(path: str | os.PathLike[str]) -> Iterator[str]:
    """Block names of a store file, header-only (no payload I/O)."""
    for desc in read_store_header(path)["arrays"]:
        yield str(desc["name"])

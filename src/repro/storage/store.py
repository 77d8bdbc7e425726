"""Typed persistence over the block format: sketches, CSR graphs, partitions.

``save_sketches``/``load_sketches`` turn any schema-declaring container into
one store file and back — the family name and scalar params ride in the
header ``meta``, the schema arrays become the blocks, and reconstruction is
the generic ``cls.from_storage(arrays, params)`` call, so there is exactly
one (de)serializer for all five families.  ``load_sketches`` supports eager
and zero-copy ``np.memmap`` loading; mmap-loaded containers are read-only
until their first mutating operation promotes the rows
(:meth:`~repro.sketches.base.NeighborhoodSketches.promote_rows_writable`).

:class:`SketchStore` is the keyed directory layer on top: entries are
addressed by the same ``(graph fingerprint, params key, oriented, seed)``
tuple that keys the :class:`~repro.engine.session.PGSession` cache, so a
session can answer a cache miss with a file load instead of a rebuild.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Mapping

import numpy as np

from ..analysis import runtime as _san
from ..core.estimators import EstimatorKind
from ..core.probgraph import ProbGraph, Representation, SketchParams
from ..graph.csr import CSRGraph
from ..graph.partition import ShardPartition, partition_from_owners
from ..sketches import SKETCH_CONTAINER_TYPES
from ..sketches.base import NeighborhoodSketches
from .format import StoreFormatError, StoreHandle, open_blocks, write_blocks

__all__ = [
    "SketchStore",
    "load_graph",
    "load_partition",
    "load_sketch_entry",
    "load_sketches",
    "save_graph",
    "save_partition",
    "save_sketch_entry",
    "save_sketches",
    "sketch_params_from_meta",
    "sketch_params_meta",
]

#: Family type name → container class; how a store entry names its family.
_FAMILY_REGISTRY: dict[str, type[NeighborhoodSketches]] = {
    cls.__name__: cls
    for cls in SKETCH_CONTAINER_TYPES
    if isinstance(cls, type) and issubclass(cls, NeighborhoodSketches)
}


# ---------------------------------------------------------------------------
# sketch containers
# ---------------------------------------------------------------------------
def save_sketches(
    path: str | os.PathLike[str],
    sketches: NeighborhoodSketches,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Persist a schema-declaring container as one ``kind="sketches"`` file."""
    schema = type(sketches).storage_schema
    if not schema.arrays:
        raise NotImplementedError(
            f"{type(sketches).__name__} does not declare a storage schema"
        )
    schema.validate(sketches)
    header_meta: dict[str, Any] = dict(meta) if meta is not None else {}
    header_meta["family"] = type(sketches).__name__
    header_meta["params"] = {
        name: int(value) for name, value in sketches.storage_params().items()
    }
    write_blocks(path, "sketches", sketches.storage_arrays(), meta=header_meta)


def load_sketches(
    path: str | os.PathLike[str],
    mode: str = "mmap",
    owner: Any = None,
) -> tuple[NeighborhoodSketches, StoreHandle]:
    """Load a container saved by :func:`save_sketches`; returns it with its handle.

    In ``"mmap"`` mode the container's row arrays are read-only zero-copy
    views into the file — bit-identical to the saved container for every
    query, promoted to writable copies lazily on the first mutation.  The
    caller owns the returned handle and must ``close()`` it (the sanitizer
    ledger attributes a leak to this call-site).
    """
    handle = open_blocks(
        path, mode=mode, owner=owner, purpose="sketch rows", site=_san.call_site(1)
    )
    try:
        if handle.kind != "sketches":
            raise StoreFormatError(
                f"{os.fspath(path)}: kind {handle.kind!r} is not a sketch store entry"
            )
        family = str(handle.meta.get("family", ""))
        cls = _FAMILY_REGISTRY.get(family)
        if cls is None:
            raise StoreFormatError(f"{os.fspath(path)}: unknown sketch family {family!r}")
        container = cls.from_storage(handle.arrays, handle.meta.get("params", {}))
    except Exception:
        handle.close()
        raise
    return container, handle


# ---------------------------------------------------------------------------
# CSR graphs and shard partitions
# ---------------------------------------------------------------------------
def save_graph(path: str | os.PathLike[str], graph: CSRGraph) -> None:
    """Persist a CSR adjacency as one ``kind="csr"`` file (with fingerprint)."""
    write_blocks(
        path,
        "csr",
        {"indptr": graph.indptr, "indices": graph.indices},
        meta={"num_vertices": graph.num_vertices, "fingerprint": graph.fingerprint()},
    )


def load_graph(
    path: str | os.PathLike[str],
    mode: str = "mmap",
    owner: Any = None,
) -> tuple[CSRGraph, StoreHandle]:
    """Load a CSR adjacency saved by :func:`save_graph` (zero-copy in mmap mode)."""
    handle = open_blocks(
        path, mode=mode, owner=owner, purpose="CSR adjacency", site=_san.call_site(1)
    )
    try:
        if handle.kind != "csr":
            raise StoreFormatError(
                f"{os.fspath(path)}: kind {handle.kind!r} is not a CSR entry"
            )
        graph = CSRGraph(
            int(handle.meta["num_vertices"]), handle.arrays["indptr"], handle.arrays["indices"]
        )
    except Exception:
        handle.close()
        raise
    return graph, handle


def save_partition(path: str | os.PathLike[str], partition: ShardPartition) -> None:
    """Persist a shard partition as its ``owners`` array."""
    write_blocks(
        path,
        "partition",
        {"owners": np.asarray(partition.owners, dtype=np.int64)},
        meta={"num_shards": int(partition.num_shards)},
    )


def load_partition(path: str | os.PathLike[str]) -> ShardPartition:
    """Rebuild a shard partition saved by :func:`save_partition`.

    Owners are read eagerly, so the partition does not pin the file.
    """
    with open_blocks(path, mode="eager") as handle:
        if handle.kind != "partition":
            raise StoreFormatError(
                f"{os.fspath(path)}: kind {handle.kind!r} is not a partition entry"
            )
        return partition_from_owners(
            handle.arrays["owners"], int(handle.meta["num_shards"])
        )


# ---------------------------------------------------------------------------
# sketch-params metadata
# ---------------------------------------------------------------------------
def sketch_params_meta(params: SketchParams) -> dict[str, Any]:
    """JSON-serializable identity of a resolved :class:`SketchParams`."""
    return {
        "representation": params.representation.value,
        "default_estimator": params.default_estimator.value,
        "num_bits": params.num_bits,
        "num_hashes": params.num_hashes,
        "k": params.k,
        "precision": params.precision,
    }


def sketch_params_from_meta(meta: Mapping[str, Any]) -> SketchParams:
    """Reconstruct :class:`SketchParams` from :func:`sketch_params_meta` output.

    The budget ``resolution`` is derived bookkeeping, not family identity, so
    it is not persisted; the reconstructed params produce a bit-identical
    family (``key()`` round-trips exactly).
    """
    return SketchParams(
        representation=Representation(meta["representation"]),
        default_estimator=EstimatorKind(meta["default_estimator"]),
        num_bits=None if meta.get("num_bits") is None else int(meta["num_bits"]),
        num_hashes=None if meta.get("num_hashes") is None else int(meta["num_hashes"]),
        k=None if meta.get("k") is None else int(meta["k"]),
        precision=None if meta.get("precision") is None else int(meta["precision"]),
    )


# ---------------------------------------------------------------------------
# sketch sets bound to the graph and parameters they were built for
# ---------------------------------------------------------------------------
def save_sketch_entry(
    path: str | os.PathLike[str],
    sketches: NeighborhoodSketches,
    fingerprint: str,
    params: SketchParams,
    oriented: bool,
    seed: int,
    construction_seconds: float = 0.0,
) -> None:
    """Persist a graph's sketch set with the identity :func:`load_sketch_entry` checks.

    The header records ``(graph fingerprint, params, oriented, seed)`` — the
    :meth:`ProbGraph.cache_key` tuple — next to the family's own params.
    """
    save_sketches(
        path,
        sketches,
        meta={
            "fingerprint": fingerprint,
            "oriented": bool(oriented),
            "seed": int(seed),
            "sketch_params": sketch_params_meta(params),
            "construction_seconds": float(construction_seconds),
        },
    )


def load_sketch_entry(
    path: str | os.PathLike[str],
    fingerprint: str,
    params: SketchParams,
    oriented: bool,
    seed: int,
    mode: str = "mmap",
    owner: Any = None,
) -> tuple[NeighborhoodSketches, StoreHandle]:
    """Load a :func:`save_sketch_entry` file, refusing one built for anything else.

    Raises :class:`StoreFormatError` when the stored graph fingerprint,
    params key, orientation or seed differs from the requested one, so a
    same-graph file of another family, size, seed or orientation is never
    served.  The caller owns the returned handle.
    """
    sketches, handle = load_sketches(path, mode=mode, owner=owner)
    try:
        meta = handle.meta
        for name, stored, wanted in (
            ("fingerprint", meta.get("fingerprint"), fingerprint),
            ("params", sketch_params_from_meta(meta["sketch_params"]).key(), params.key()),
            ("orientation", meta.get("oriented"), bool(oriented)),
            ("seed", meta.get("seed"), int(seed)),
        ):
            if stored != wanted:
                raise StoreFormatError(
                    f"{os.fspath(path)}: stored {name} {stored!r} does not match "
                    f"the requested {wanted!r}"
                )
    except Exception:
        handle.close()
        raise
    return sketches, handle


# ---------------------------------------------------------------------------
# the keyed store directory
# ---------------------------------------------------------------------------
class SketchStore:
    """A directory of persisted sketch sets keyed like the session cache.

    Entries live at ``<root>/<digest>.pgsk`` where the digest hashes the
    ``(graph fingerprint, params key, oriented, seed)`` tuple — the exact key
    :meth:`ProbGraph.cache_key` produces — and the full key is stored in each
    entry's header for verification on load.  ``put`` persists a built
    ProbGraph's sketches; ``load`` answers a key with a reconstructed
    ProbGraph (eager or zero-copy mmap) or ``None`` on a miss.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    @staticmethod
    def _cache_key(
        fingerprint: str, params: SketchParams, oriented: bool, seed: int
    ) -> tuple:
        return (fingerprint, params.key(), bool(oriented), int(seed))

    def entry_path(
        self, fingerprint: str, params: SketchParams, oriented: bool, seed: int
    ) -> str:
        key = self._cache_key(fingerprint, params, oriented, seed)
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
        return os.path.join(self.root, f"{digest}.pgsk")

    def contains(
        self, fingerprint: str, params: SketchParams, oriented: bool = False, seed: int = 0
    ) -> bool:
        return os.path.exists(self.entry_path(fingerprint, params, oriented, seed))

    def put(self, pg: ProbGraph) -> str:
        """Persist ``pg``'s sketches under its cache key; returns the entry path."""
        fingerprint = pg.graph.fingerprint()
        path = self.entry_path(fingerprint, pg.sketch_params, pg.oriented, pg.seed)
        save_sketch_entry(
            path, pg.sketches, fingerprint, pg.sketch_params, pg.oriented, pg.seed,
            construction_seconds=pg.construction_seconds,
        )
        return path

    def load(
        self,
        graph: CSRGraph,
        params: SketchParams,
        oriented: bool = False,
        seed: int = 0,
        estimator: EstimatorKind | str | None = None,
        storage_budget: float = 0.25,
        mode: str = "mmap",
        owner: Any = None,
    ) -> tuple[ProbGraph, StoreHandle] | None:
        """Reconstruct the stored ProbGraph for ``(graph, params, oriented,
        seed)``, or ``None`` when no entry exists.

        The returned ProbGraph answers every query bit-identically to a fresh
        build (rows are the saved bytes); the caller owns the handle.
        """
        fingerprint = graph.fingerprint()
        path = self.entry_path(fingerprint, params, oriented, seed)
        if not os.path.exists(path):
            return None
        sketches, handle = load_sketch_entry(
            path, fingerprint, params, oriented, seed, mode=mode, owner=owner
        )
        try:
            pg = ProbGraph.from_sketches(
                graph,
                sketches,
                params,
                oriented=oriented,
                seed=seed,
                estimator=estimator,
                storage_budget=storage_budget,
                construction_seconds=float(handle.meta.get("construction_seconds", 0.0)),
            )
        except Exception:
            handle.close()
            raise
        return pg, handle

"""Versioned sketch persistence with zero-copy mmap loading.

The storage seam of the repro: sketch containers declare their backing
arrays through :class:`~repro.sketches.base.StorageSchema`, and this package
turns that declaration into a checksummed on-disk format (``format``) plus a
keyed store directory (``store``) the engine layers load from instead of
rebuilding — eagerly, or zero-copy via ``np.memmap`` for cold starts that
cost milliseconds instead of a full construction pass.
"""

from .format import (
    BLOCK_ALIGN,
    FORMAT_VERSION,
    MAGIC,
    StoreCorruptError,
    StoreFormatError,
    StoreHandle,
    StoreVersionError,
    open_blocks,
    read_store_header,
    write_blocks,
)
from .store import (
    SketchStore,
    load_graph,
    load_partition,
    load_sketch_entry,
    load_sketches,
    save_graph,
    save_partition,
    save_sketch_entry,
    save_sketches,
    sketch_params_from_meta,
    sketch_params_meta,
)

__all__ = [
    "BLOCK_ALIGN",
    "FORMAT_VERSION",
    "MAGIC",
    "SketchStore",
    "StoreCorruptError",
    "StoreFormatError",
    "StoreHandle",
    "StoreVersionError",
    "load_graph",
    "load_partition",
    "load_sketch_entry",
    "load_sketches",
    "open_blocks",
    "read_store_header",
    "save_graph",
    "save_partition",
    "save_sketch_entry",
    "save_sketches",
    "sketch_params_from_meta",
    "sketch_params_meta",
    "write_blocks",
]

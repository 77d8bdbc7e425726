"""Probabilistic set representations (sketches) used by ProbGraph.

Exports the Bloom-filter, MinHash (k-hash and 1-hash / bottom-k), KMV, and
HyperLogLog families along with their per-set and whole-graph batch containers.
"""

from .base import (
    ROW_MATRIX,
    ROW_VECTOR,
    ArraySpec,
    NeighborhoodSketches,
    SetSketch,
    SketchContainer,
    SketchFamily,
    StorageSchema,
    as_id_array,
    concat_sketch_rows,
)
from .bloom import BloomFamily, BloomFilter, BloomNeighborhoodSketches
from .hashing import HashFamily, MultiplyShiftFamily, hash_to_range, hash_to_unit, hash_u64, splitmix64
from .hll import HLL_REGISTER_BITS, HLLFamily, HLLNeighborhoodSketches, HyperLogLog
from .kmv import KMVFamily, KMVNeighborhoodSketches, KMVSketch
from .minhash import (
    BottomKFamily,
    BottomKNeighborhoodSketches,
    BottomKSketch,
    KHashFamily,
    KHashNeighborhoodSketches,
    KHashSignature,
)

#: All five family containers, typed against the :class:`SketchContainer`
#: Protocol — mypy statically verifies each class satisfies the contract, and
#: ``tests/test_reprolint.py`` re-checks it at runtime, via ``isinstance`` and
#: a conformance check of each class's schema, method overrides and
#: parameter names.
SKETCH_CONTAINER_TYPES: tuple[type[SketchContainer], ...] = (
    BloomNeighborhoodSketches,
    KHashNeighborhoodSketches,
    BottomKNeighborhoodSketches,
    KMVNeighborhoodSketches,
    HLLNeighborhoodSketches,
)

__all__ = [
    "ROW_MATRIX",
    "ROW_VECTOR",
    "ArraySpec",
    "StorageSchema",
    "SetSketch",
    "SketchFamily",
    "SketchContainer",
    "SKETCH_CONTAINER_TYPES",
    "NeighborhoodSketches",
    "as_id_array",
    "concat_sketch_rows",
    "BloomFilter",
    "BloomFamily",
    "BloomNeighborhoodSketches",
    "KHashSignature",
    "KHashFamily",
    "KHashNeighborhoodSketches",
    "BottomKSketch",
    "BottomKFamily",
    "BottomKNeighborhoodSketches",
    "KMVSketch",
    "KMVFamily",
    "KMVNeighborhoodSketches",
    "HyperLogLog",
    "HLLFamily",
    "HLLNeighborhoodSketches",
    "HLL_REGISTER_BITS",
    "HashFamily",
    "MultiplyShiftFamily",
    "splitmix64",
    "hash_u64",
    "hash_to_unit",
    "hash_to_range",
]

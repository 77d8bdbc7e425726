"""Chunking of edge-parallel work into contiguous windows.

The performance-critical kernels of this library are NumPy-vectorized, which is
the Python analogue of the paper's AVX inner loops; the scaling *curves* come
from the simulator, and real multi-core execution is the process-sharded
build (:mod:`repro.engine.sharded`).  What remains here is the window split
that the engine's memory-bounded streaming, top-k and LSH scoring share.
"""

from __future__ import annotations

__all__ = ["chunked_ranges"]


def chunked_ranges(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into contiguous ``[start, stop)`` chunks."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]

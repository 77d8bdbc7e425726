"""Shared fixtures: small graphs with known structure used across the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    kronecker_graph,
    ring_graph,
    star_graph,
    stochastic_block_model,
)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """A single triangle plus a pendant vertex: exactly 1 triangle, 0 four-cliques."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])


@pytest.fixture
def path_graph() -> CSRGraph:
    """A path on 5 vertices: no triangles at all."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def k6() -> CSRGraph:
    """Complete graph on 6 vertices: C(6,3)=20 triangles, C(6,4)=15 four-cliques."""
    return complete_graph(6)


@pytest.fixture
def k10() -> CSRGraph:
    """Complete graph on 10 vertices: 120 triangles, 210 four-cliques."""
    return complete_graph(10)


@pytest.fixture
def ring10() -> CSRGraph:
    """Cycle on 10 vertices: triangle-free."""
    return ring_graph(10)


@pytest.fixture
def star20() -> CSRGraph:
    """Star with 19 leaves: triangle-free, maximal degree skew."""
    return star_graph(20)


@pytest.fixture
def grid5x5() -> CSRGraph:
    """5x5 grid: triangle-free, perfectly regular interior."""
    return grid_graph(5, 5)


@pytest.fixture(scope="session")
def kron_small() -> CSRGraph:
    """A small Kronecker graph reused by the heavier integration tests."""
    return kronecker_graph(scale=9, edge_factor=8, seed=42)


@pytest.fixture(scope="session")
def er_graph() -> CSRGraph:
    """A moderately dense Erdős–Rényi graph."""
    return erdos_renyi_graph(200, p=0.1, seed=7)


@pytest.fixture(scope="session")
def sbm_graph() -> CSRGraph:
    """A two-community planted-partition graph."""
    return stochastic_block_model([80, 80], p_in=0.3, p_out=0.01, seed=5)


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded random generator for test-local sampling."""
    return np.random.default_rng(1234)


@pytest.fixture
def threaded_build(monkeypatch) -> None:
    """Make every ProbGraph build in this test hash its rows in up to 4 threads.

    A build starts a second thread only at ``2 * _SLOTS_PER_RANGE`` (~1M)
    adjacency slots, far above every test graph, so a test that must run
    threads lowers the threshold to 16 slots and claims 4 CPUs.
    """
    from repro.core import probgraph

    monkeypatch.setattr(probgraph, "_SLOTS_PER_RANGE", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

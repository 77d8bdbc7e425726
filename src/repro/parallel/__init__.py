"""Parallelism substrate: work-depth models, scheduling simulation, chunking, communication model."""

from .distributed import CommunicationVolume, communication_volume, partition_vertices
from .executor import chunked_ranges
from .simulator import (
    ScheduleResult,
    simulate_algorithm_runtime,
    simulate_schedule,
    simulate_strong_scaling,
)
from .workdepth import (
    Scheme,
    WorkDepth,
    algorithm_cost,
    construction_cost,
    intersection_cost,
    intersection_costs_per_edge,
)

__all__ = [
    "Scheme",
    "WorkDepth",
    "intersection_cost",
    "intersection_costs_per_edge",
    "construction_cost",
    "algorithm_cost",
    "ScheduleResult",
    "simulate_schedule",
    "simulate_algorithm_runtime",
    "simulate_strong_scaling",
    "chunked_ranges",
    "CommunicationVolume",
    "communication_volume",
    "partition_vertices",
]

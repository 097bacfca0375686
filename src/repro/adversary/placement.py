"""Selection and placement of faulty devices.

The experiments need to decide *which* devices misbehave.  The paper's
evaluation mostly corrupts devices uniformly at random (a fixed fraction of
the deployment, never the source); the theory, by contrast, is a worst-case
statement over placements, so the tests also use targeted placements —
concentrating the adversaries inside a single square or a single neighborhood
— to exercise the tolerance thresholds exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.regions import SquareGrid
from ..topology.geometry import as_positions, block_distances, neighbors_within

__all__ = [
    "random_fault_selection",
    "fraction_to_count",
    "faults_in_square",
    "faults_in_neighborhood",
    "max_faults_per_neighborhood",
]


def fraction_to_count(num_nodes: int, fraction: float) -> int:
    """Number of faulty devices corresponding to a population fraction."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be in [0, 1]")
    return int(round(num_nodes * fraction))


def random_fault_selection(
    num_nodes: int,
    count: int,
    *,
    exclude: Sequence[int] = (),
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """Select ``count`` devices uniformly at random, never picking ``exclude``.

    The broadcast source is always excluded by the callers (a faulty source
    makes the problem vacuous — there is nothing authentic to deliver).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = np.random.default_rng(rng)
    excluded = set(int(i) for i in exclude)
    candidates = [i for i in range(num_nodes) if i not in excluded]
    if count > len(candidates):
        raise ValueError(f"cannot select {count} faulty devices out of {len(candidates)} candidates")
    picked = gen.choice(len(candidates), size=count, replace=False) if count else np.empty(0, dtype=int)
    return sorted(int(candidates[i]) for i in picked)


def faults_in_square(
    positions: np.ndarray,
    grid: SquareGrid,
    square: tuple[int, int],
    *,
    exclude: Sequence[int] = (),
) -> list[int]:
    """All devices inside one square of the partition (targeted worst case).

    Corrupting every device of a square is exactly the scenario in which plain
    NeighborWatchRB loses authenticity, so the tests use this placement to
    verify both the failure mode and the 2-voting variant's defence.
    """
    excluded = set(int(i) for i in exclude)
    occupancy = grid.occupancy(as_positions(positions))
    return sorted(i for i in occupancy.get(square, []) if i not in excluded)


def faults_in_neighborhood(
    positions: np.ndarray,
    center: Sequence[float],
    radius: float,
    count: int,
    *,
    norm: str = "l2",
    exclude: Sequence[int] = (),
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """Select up to ``count`` devices within one neighborhood (targeted jamming)."""
    gen = np.random.default_rng(rng)
    excluded = set(int(i) for i in exclude)
    nearby = neighbors_within(positions, center, radius, norm)
    candidates = [int(i) for i in nearby if int(i) not in excluded]
    if count >= len(candidates):
        return sorted(candidates)
    picked = gen.choice(len(candidates), size=count, replace=False)
    return sorted(int(candidates[i]) for i in picked)


def max_faults_per_neighborhood(
    positions: np.ndarray, faulty: Sequence[int], radius: float, *, norm: str = "l2"
) -> int:
    """The parameter ``t`` realised by a placement: the maximum number of
    faulty devices within any single device's neighborhood."""
    pos = as_positions(positions)
    faulty_idx = np.asarray(sorted(set(int(i) for i in faulty)), dtype=int)
    if faulty_idx.size == 0:
        return 0
    dist = block_distances(pos, pos[faulty_idx], norm)
    return int((dist <= radius).sum(axis=1).max())

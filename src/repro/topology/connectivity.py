"""Connectivity analysis of deployments.

Several of the paper's experiments are explained by connectivity arguments:
NeighborWatchRB completes as long as the network remains connected, the
2-voting variant needs every node to have two "independent" feeding squares,
and MultiPathRB needs ``t + 1`` node-disjoint paths within single
neighborhoods.  These helpers compute the relevant graph quantities so the
experiments and tests can check them explicitly.

Everything is computed on the sparse radio graph — the
:class:`~repro.topology.grid.NeighborGraph` CSR that the schedules and the
unit-disk link state read, under the same range predicate — with
:mod:`scipy.sparse.csgraph`, so no ``N x N`` matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

from .grid import NeighborGraph

__all__ = [
    "is_connected_to",
    "reachable_fraction",
    "hop_counts_from",
    "ConnectivityReport",
    "connectivity_report",
]


def _csgraph(graph: NeighborGraph) -> csr_array:
    n = graph.num_nodes
    return csr_array((np.ones(graph.nnz, dtype=np.int8), graph.indices, graph.indptr), shape=(n, n))


def _hops(graph: NeighborGraph, source: int) -> np.ndarray:
    n = graph.num_nodes
    if not (0 <= source < n):
        raise ValueError("source index out of range")
    dist = shortest_path(_csgraph(graph), directed=False, unweighted=True, indices=source)
    reachable = np.isfinite(dist)
    hops = np.full(n, -1, dtype=int)
    hops[reachable] = dist[reachable]
    return hops


def hop_counts_from(
    positions: np.ndarray, radius: float, source: int, norm: str = "l2"
) -> np.ndarray:
    """BFS hop distance from ``source`` to every node (``-1`` if unreachable)."""
    return _hops(NeighborGraph(positions, radius, norm), source)


def is_connected_to(positions: np.ndarray, radius: float, source: int, norm: str = "l2") -> np.ndarray:
    """Boolean mask of nodes reachable from ``source`` in the radio graph."""
    return hop_counts_from(positions, radius, source, norm=norm) >= 0


def reachable_fraction(positions: np.ndarray, radius: float, source: int, norm: str = "l2") -> float:
    """Fraction of devices reachable from the source (including the source)."""
    mask = is_connected_to(positions, radius, source, norm=norm)
    return float(mask.sum()) / mask.shape[0]


@dataclass(frozen=True, slots=True)
class ConnectivityReport:
    """Summary of the connectivity structure of a deployment."""

    num_nodes: int
    num_components: int
    largest_component_fraction: float
    reachable_from_source: float
    mean_degree: float
    min_degree: int
    diameter_hops_from_source: int

    def is_source_component_dominant(self, threshold: float = 0.95) -> bool:
        """Whether (almost) the whole network can hear the source eventually."""
        return self.reachable_from_source >= threshold


def connectivity_report(
    positions: np.ndarray, radius: float, source: int, norm: str = "l2"
) -> ConnectivityReport:
    """Compute a :class:`ConnectivityReport` for a deployment (one graph build)."""
    graph = NeighborGraph(positions, radius, norm)
    n = graph.num_nodes
    degrees = graph.degrees()
    num_components, labels = connected_components(_csgraph(graph), directed=False)
    hops = _hops(graph, source)
    reachable = hops >= 0
    return ConnectivityReport(
        num_nodes=n,
        num_components=int(num_components),
        largest_component_fraction=int(np.bincount(labels).max()) / n,
        reachable_from_source=float(reachable.sum()) / n,
        mean_degree=float(degrees.mean()),
        min_degree=int(degrees.min()),
        diameter_hops_from_source=int(hops[reachable].max()),
    )

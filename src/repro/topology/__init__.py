"""Deployment topologies: analytical grids, random and clustered deployments."""

from .geometry import (
    Point,
    as_positions,
    bounding_box,
    fits_in_common_neighborhood,
    grid_hop_distance,
    l2_distance,
    linf_diameter_hops,
    linf_distance,
    neighbors_within,
    pairwise_distances,
)
from .grid import GridSpec, GridTopology, NeighborGraph, grid_index_of, grid_positions
from .deployment import (
    Deployment,
    clustered_deployment,
    density,
    grid_jittered_deployment,
    marsaglia_normal_pairs,
    uniform_deployment,
)
from .connectivity import (
    ConnectivityReport,
    connectivity_report,
    hop_counts_from,
    is_connected_to,
    reachable_fraction,
)

__all__ = [
    "Point",
    "as_positions",
    "bounding_box",
    "fits_in_common_neighborhood",
    "grid_hop_distance",
    "l2_distance",
    "linf_diameter_hops",
    "linf_distance",
    "neighbors_within",
    "pairwise_distances",
    "GridSpec",
    "GridTopology",
    "NeighborGraph",
    "grid_index_of",
    "grid_positions",
    "Deployment",
    "clustered_deployment",
    "density",
    "grid_jittered_deployment",
    "marsaglia_normal_pairs",
    "uniform_deployment",
    "ConnectivityReport",
    "connectivity_report",
    "hop_counts_from",
    "is_connected_to",
    "reachable_fraction",
]

"""Unit tests for connectivity analysis (repro.topology.connectivity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.connectivity import (
    connectivity_report,
    hop_counts_from,
    is_connected_to,
    reachable_fraction,
)
from repro.topology.geometry import pairwise_distances
from repro.topology.grid import SLACK, NeighborGraph


@pytest.fixture
def line_positions() -> np.ndarray:
    """Five nodes on a line, 1 unit apart, plus one isolated node."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [20.0, 0.0]])


class TestCommunicationGraph:
    """The radio graph the connectivity helpers read is the CSR
    ``NeighborGraph``; its rows hold each node itself plus its neighbours."""

    def test_edges(self, line_positions):
        graph = NeighborGraph(line_positions, radius=1.0)
        assert graph.num_nodes == 6
        assert 1 in graph.neighbors(0)
        assert 2 not in graph.neighbors(0)
        assert graph.degrees()[5] == 0

    def test_larger_radius_more_edges(self, line_positions):
        g1 = NeighborGraph(line_positions, radius=1.0)
        g2 = NeighborGraph(line_positions, radius=2.0)
        assert g2.degrees().sum() > g1.degrees().sum()


class TestHopCounts:
    def test_line_hops(self, line_positions):
        hops = hop_counts_from(line_positions, radius=1.0, source=0)
        assert hops.tolist() == [0, 1, 2, 3, 4, -1]

    def test_unreachable_marked(self, line_positions):
        hops = hop_counts_from(line_positions, radius=1.0, source=5)
        assert hops[5] == 0
        assert (hops[:5] == -1).all()

    def test_source_out_of_range(self, line_positions):
        with pytest.raises(ValueError):
            hop_counts_from(line_positions, radius=1.0, source=99)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_hops_match_brute_force_bfs(self, norm):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, size=(60, 2))
        adjacency = pairwise_distances(pos, norm=norm) <= 2.5 + SLACK
        expected = [-1] * 60
        expected[0] = 0
        frontier = [0]
        while frontier:
            reached = []
            for node in frontier:
                for other in np.nonzero(adjacency[node])[0]:
                    if expected[other] == -1:
                        expected[other] = expected[node] + 1
                        reached.append(int(other))
            frontier = reached
        assert hop_counts_from(pos, radius=2.5, source=0, norm=norm).tolist() == expected


class TestReachability:
    def test_is_connected_to(self, line_positions):
        mask = is_connected_to(line_positions, radius=1.0, source=0)
        assert mask.tolist() == [True, True, True, True, True, False]

    def test_reachable_fraction(self, line_positions):
        assert reachable_fraction(line_positions, radius=1.0, source=0) == pytest.approx(5 / 6)


class TestConnectivityReport:
    def test_report_fields(self, line_positions):
        report = connectivity_report(line_positions, radius=1.0, source=0)
        assert report.num_nodes == 6
        assert report.num_components == 2
        assert report.largest_component_fraction == pytest.approx(5 / 6)
        assert report.reachable_from_source == pytest.approx(5 / 6)
        assert report.diameter_hops_from_source == 4
        assert report.min_degree == 0

    def test_dominant_threshold(self, line_positions):
        report = connectivity_report(line_positions, radius=1.0, source=0)
        assert not report.is_source_component_dominant(threshold=0.95)
        assert report.is_source_component_dominant(threshold=0.8)

    def test_fully_connected_grid(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        report = connectivity_report(pos, radius=1.5, source=0)
        assert report.num_components == 1
        assert report.reachable_from_source == 1.0

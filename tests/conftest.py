"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import ScenarioConfig
from repro.sim.engine import clear_link_cache
from repro.sim.radio import FriisChannel
from repro.topology.deployment import Deployment, grid_jittered_deployment, uniform_deployment
from repro.topology.geometry import pairwise_distances


@pytest.fixture(autouse=True)
def _isolated_link_cache():
    """Start every test with an empty engine link-state cache.

    The cache is module-level and keyed by (channel, positions); entries are
    never semantically stale, but tests that assert on hit/miss counts or on
    cached-channel behaviour would otherwise observe entries left behind by
    whichever test happened to run before them.
    """
    clear_link_cache()
    yield


class BruteForceLinkState:
    """Reference link state read off the full pairwise distance matrix.

    Unit disk: the CSR rows come from the brute-force ``pairwise_distances(...)
    <= radius + 1e-12`` predicate.  Friis: every block is sliced from the full
    ``N x N`` power matrix, written out in closed form.  Quadratic by design:
    it is the oracle the engine's grid-bucketed state is checked against.
    """

    def __init__(self, channel, schedule) -> None:
        positions = schedule.positions
        if isinstance(channel, FriisChannel):
            dist = np.maximum(pairwise_distances(positions, norm="l2"), channel.reference_distance)
            self.matrix = (
                channel.tx_power
                * (channel.reference_distance / dist) ** channel.path_loss_exponent
            )
            return
        within = pairwise_distances(positions, norm=channel.norm) <= channel.radius + 1e-12
        rows, self.indices = np.nonzero(within)
        self.indptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(positions)), out=self.indptr[1:])

    def submatrix(self, listeners, senders) -> np.ndarray:
        return self.matrix[np.ix_(listeners, senders)]

    def info(self) -> dict:
        # The real Friis state stores no links and reports nothing.
        return {"nnz": int(self.indices.size)} if hasattr(self, "indices") else {}


@pytest.fixture
def use_brute_force_links(monkeypatch):
    """Call the returned function to build later simulations on the oracle state."""
    import repro.sim.engine as engine

    def install() -> None:
        monkeypatch.setattr(engine, "_cached_link_state", BruteForceLinkState)

    return install


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_grid_deployment() -> Deployment:
    """A 7x7 unit grid (49 devices) with the source at the center."""
    return grid_jittered_deployment(6, 6, spacing=1.0)


@pytest.fixture
def tiny_grid_deployment() -> Deployment:
    """A 5x5 unit grid (25 devices) with the source at the center."""
    return grid_jittered_deployment(4, 4, spacing=1.0)


@pytest.fixture
def uniform_small_deployment() -> Deployment:
    """A random uniform deployment dense enough for every protocol to finish."""
    return uniform_deployment(90, 8, 8, rng=7)


@pytest.fixture
def nw_config() -> ScenarioConfig:
    return ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=11)


@pytest.fixture
def mp_config() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=11
    )


@pytest.fixture
def epidemic_config() -> ScenarioConfig:
    return ScenarioConfig(protocol="epidemic", radius=3.0, message_length=3, seed=11)

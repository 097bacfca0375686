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

    The CSR rows come from the brute-force ``pairwise_distances(...) <=
    range + 1e-12`` predicate, and every block is sliced from the full
    ``N x N`` audibility or power matrix, computed with the same elementwise
    expressions as the channel's ``observe``.  Quadratic by design: it is the
    oracle the engine's tile-built CSR state is checked against.
    """

    def __init__(self, channel, positions: np.ndarray) -> None:
        if isinstance(channel, FriisChannel):
            dist = pairwise_distances(positions, norm="l2")
            within = dist <= channel.sense_range + 1e-12
            dist = np.maximum(dist, channel.reference_distance)
            self.matrix = (
                channel.tx_power
                * (channel.reference_distance / dist) ** channel.path_loss_exponent
            )
        else:
            dist = pairwise_distances(positions, norm=channel.norm)
            self.matrix = within = dist <= channel.radius + 1e-12
        rows, self.indices = np.nonzero(within)
        self.indptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(positions)), out=self.indptr[1:])

    def submatrix(self, listeners, senders) -> np.ndarray:
        return self.matrix[np.ix_(listeners, senders)]

    def info(self) -> dict:
        return {"nnz": int(self.indices.size)}


@pytest.fixture
def use_brute_force_links(monkeypatch):
    """Call the returned function to build later simulations on the oracle state."""
    import repro.sim.engine as engine

    def install() -> None:
        monkeypatch.setattr(engine, "_cached_link_state", BruteForceLinkState)

    return install


@pytest.fixture
def brute_force_link_state():
    """The :class:`BruteForceLinkState` class, for tests that build one directly."""
    return BruteForceLinkState


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

"""The CSR link state against brute-force references.

Every channel keeps one link state at every node count
(`repro.sim.linkstate`): positions plus a CSR neighborhood built per region
tile by grid-bucketed queries.  These tests pin it against quadratic oracles
that cannot share its bugs:

* the CSR rows equal the ``pairwise_distances(...) <= range + 1e-12``
  predicate, ascending, for both norms and for the Friis sense range;
* ``submatrix`` equals the brute-force audibility predicate and the
  closed-form Friis power, bit for bit;
* ``resolve_links(link_state.submatrix(...))`` equals ``Channel.observe``,
  observations and RNG stream position alike;
* the SoA tier's vectorized group adjacency equals the brute-force columns;
* whole runs on the CSR state equal runs on :class:`BruteForceLinkState`
  (``tests/conftest.py``), on both execution tiers;
* the engine's link cache keys every parameter the state depends on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.sim.builder import build_simulation
from repro.sim.config import ScenarioConfig
from repro.sim.engine import clear_link_cache, link_cache_info
from repro.sim.linkstate import FriisLinkState, UnitDiskLinkState
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel
from repro.sim.soa import _group_adjacency
from repro.topology.deployment import uniform_deployment
from repro.topology.geometry import pairwise_distances

# Half-unit grid offsets: many exact-boundary and coincident pairs, which
# are the inputs where a neighborhood predicate can go wrong.
positions_strategy = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=40
).map(lambda points: np.asarray(points, dtype=float) / 2.0)


def _csr_rows(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(indptr.size - 1)]


def _brute_rows(within):
    return [np.nonzero(row)[0].tolist() for row in within]


class TestCsrMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(
        positions=positions_strategy,
        radius=st.sampled_from([0.5, 1.0, 2.0, 3.5]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_unitdisk_rows(self, positions, radius, norm):
        state = UnitDiskChannel(radius, norm=norm).link_state(positions)
        within = pairwise_distances(positions, norm=norm) <= radius + 1e-12
        assert _csr_rows(state.indptr, state.indices) == _brute_rows(within)
        assert state.nnz == int(np.count_nonzero(within))

    @settings(max_examples=40, deadline=None)
    @given(positions=positions_strategy, reception=st.sampled_from([1.0, 2.0, 3.0]))
    def test_friis_rows_cover_the_sense_range(self, positions, reception):
        chan = FriisChannel(reception)
        state = chan.link_state(positions)
        within = pairwise_distances(positions, norm="l2") <= chan.sense_range + 1e-12
        assert _csr_rows(state.indptr, state.indices) == _brute_rows(within)
        assert state.interaction_radius == chan.sense_range

    def test_coincident_nodes_all_hear_each_other(self):
        state = UnitDiskChannel(1.0).link_state(np.zeros((5, 2)))
        assert _csr_rows(state.indptr, state.indices) == [list(range(5))] * 5
        assert state.info()["interior_links"] == 20
        assert state.info()["boundary_links"] == 0

    def test_rows_are_ascending_at_scale(self):
        positions = np.random.default_rng(4).uniform(0, 40, size=(700, 2))
        state = UnitDiskChannel(3.0).link_state(positions)
        for row in _csr_rows(state.indptr, state.indices):
            assert row == sorted(row)


class TestSubmatrixMatchesBruteForce:
    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_unitdisk_block_is_the_audibility_predicate(self, norm):
        positions = np.random.default_rng(11).uniform(0, 15, size=(120, 2))
        state = UnitDiskChannel(3.0, norm=norm).link_state(positions)
        listeners = list(range(0, 120, 3))
        senders = list(range(1, 120, 7))
        expected = pairwise_distances(positions, norm=norm) <= 3.0 + 1e-12
        assert np.array_equal(
            state.submatrix(listeners, senders), expected[np.ix_(listeners, senders)]
        )

    @pytest.mark.parametrize("exponent,reference", [(2.0, 1.0), (3.0, 0.5)])
    def test_friis_block_is_the_closed_form_power(self, exponent, reference):
        positions = np.random.default_rng(12).uniform(0, 15, size=(90, 2))
        chan = FriisChannel(3.0, path_loss_exponent=exponent, reference_distance=reference)
        state = chan.link_state(positions)
        assert isinstance(state, FriisLinkState)
        listeners = list(range(0, 90, 2))
        senders = list(range(1, 90, 5))
        dist = np.maximum(pairwise_distances(positions, norm="l2"), reference)
        power = chan.tx_power * (reference / dist) ** exponent
        assert np.array_equal(
            state.submatrix(listeners, senders), power[np.ix_(listeners, senders)]
        )


class TestResolveLinksMatchesObserve:
    """The scalar loop's round path — ``resolve_links`` on the state's
    submatrix — must reproduce ``observe`` on raw positions exactly,
    observations and RNG consumption alike, for every channel."""

    @pytest.mark.parametrize(
        "channel_factory",
        [
            lambda: UnitDiskChannel(3.0),
            lambda: UnitDiskChannel(3.0, norm="linf"),
            lambda: UnitDiskChannel(3.0, loss_probability=0.4),
            lambda: UnitDiskChannel(3.0, capture_probability=0.5, loss_probability=0.3),
            lambda: FriisChannel(reception_range=3.0),
            lambda: FriisChannel(reception_range=3.0, loss_probability=0.3),
        ],
        ids=["unitdisk", "unitdisk-linf", "unitdisk-loss", "unitdisk-capture", "friis", "friis-loss"],
    )
    def test_matches_observe_with_rng_tail(self, channel_factory):
        setup_rng = np.random.default_rng(7)
        chan = channel_factory()
        for trial in range(6):
            positions = setup_rng.uniform(0, 10, size=(40, 2))
            tx_ids = sorted(setup_rng.choice(40, size=3, replace=False).tolist())
            listeners = [i for i in range(40) if i not in tx_ids]
            transmissions = [
                Transmission(t, (float(positions[t, 0]), float(positions[t, 1])),
                             Frame(FrameKind.DATA_BIT, t, (t % 2,)))
                for t in tx_ids
            ]
            rng_direct = np.random.default_rng(trial)
            rng_links = np.random.default_rng(trial)
            direct = chan.observe(listeners, positions[listeners], transmissions, rng_direct)
            block = chan.link_state(positions).submatrix(listeners, tx_ids)
            via_links = chan.resolve_links(block, transmissions, rng_links)
            assert via_links == direct
            assert rng_links.random() == rng_direct.random()


class TestGroupAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(
        positions=positions_strategy,
        data=st.data(),
        radius=st.sampled_from([0.5, 1.5, 3.0]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_matches_brute_force_columns(self, positions, data, radius, norm):
        n = positions.shape[0]
        # Ascending member subsets, single members and (at small radius)
        # isolated members included.
        members = np.asarray(
            sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))),
            dtype=np.intp,
        )
        state = UnitDiskChannel(radius, norm=norm).link_state(positions)
        local_of = np.full(n, -1, dtype=np.int64)
        indptr, indices = _group_adjacency(state, members, local_of)
        within = pairwise_distances(positions[members], norm=norm) <= radius + 1e-12
        for j in range(members.size):
            row = indices[indptr[j] : indptr[j + 1]]
            assert row.tolist() == np.nonzero(within[:, j])[0].tolist()
        assert (local_of == -1).all()

    def test_single_member_hears_itself(self):
        state = UnitDiskChannel(2.0).link_state(np.asarray([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)]))
        indptr, indices = _group_adjacency(state, np.asarray([1]), np.full(3, -1, dtype=np.int64))
        assert indptr.tolist() == [0, 1]
        assert indices.tolist() == [0]

    def test_isolated_members_hear_only_themselves(self):
        positions = np.asarray([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (10.0, 0.0)])
        state = UnitDiskChannel(2.0).link_state(positions)
        # Members 0, 2 and 3 are pairwise out of range; node 1 (in range of
        # node 0) is not a member, so it must not appear.
        local_of = np.full(4, -1, dtype=np.int64)
        indptr, indices = _group_adjacency(state, np.asarray([0, 2, 3]), local_of)
        assert indptr.tolist() == [0, 1, 2, 3]
        assert indices.tolist() == [0, 1, 2]


@pytest.fixture
def deployment():
    return uniform_deployment(150, 12, 12, rng=5)


class TestEngineLinkState:
    @pytest.mark.parametrize(
        "channel,norm", [("unitdisk", "l2"), ("unitdisk", "linf"), ("friis", "l2")]
    )
    def test_plan_cache_info_reports_the_csr_state(self, deployment, channel, norm):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11,
            channel=channel, norm=norm,
        )
        info = build_simulation(deployment, config).plan_cache_info()["spatial_tiling"]
        assert info["tiles"] >= info["occupied_tiles"] > 1
        assert info["nnz"] < 150 * 150
        assert info["interior_links"] + info["boundary_links"] == info["nnz"] - 150
        assert info["index_dtype"] == "int32"

    @pytest.mark.parametrize("soa", [True, False], ids=["soa", "scalar"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"protocol": "neighborwatch"},
            {"protocol": "neighborwatch", "channel": "friis", "loss_probability": 0.25},
            {"protocol": "neighborwatch", "capture_probability": 0.5},
            {"protocol": "multipath", "message_length": 2, "multipath_tolerance": 1},
            {"protocol": "epidemic", "loss_probability": 0.1},
        ],
        ids=["nw", "nw-friis-loss", "nw-capture", "multipath", "epidemic-loss"],
    )
    def test_run_equals_brute_force_state(self, deployment, use_brute_force_links, overrides, soa):
        config = ScenarioConfig(**{"radius": 3.0, "message_length": 3, "seed": 11, **overrides})
        runs = []
        for reference in (False, True):
            if reference:
                use_brute_force_links()
            sim = build_simulation(deployment, config, use_soa_kernels=soa)
            runs.append((sim.run(2000).to_record(), sim.rng.random()))
        assert runs[0] == runs[1]


class TestLinkCacheKey:
    def test_friis_radius_gets_its_own_state(self, deployment):
        """Two Friis channels that differ only in range must not share a
        cached state (the signature once left the sense range out)."""
        clear_link_cache()
        states = {}
        for radius in (3.0, 6.0):
            config = ScenarioConfig(
                protocol="epidemic", radius=radius, message_length=2, seed=1, channel="friis"
            )
            states[radius] = build_simulation(deployment, config)._link_state
        assert link_cache_info()["misses"] == 2
        assert states[3.0].interaction_radius == 4.5
        assert states[6.0].interaction_radius == 9.0
        assert states[6.0].nnz > states[3.0].nnz

    def test_signatures_distinguish_every_parameter(self):
        assert UnitDiskChannel(3.0).link_signature() != UnitDiskChannel(4.0).link_signature()
        assert (
            UnitDiskChannel(3.0).link_signature()
            != UnitDiskChannel(3.0, norm="linf").link_signature()
        )
        assert FriisChannel(3.0).link_signature() != FriisChannel(6.0).link_signature()
        assert (
            FriisChannel(3.0).link_signature()
            != FriisChannel(3.0, sense_range_factor=2.0).link_signature()
        )
        # Parameters the state does not depend on share it.
        assert (
            FriisChannel(3.0).link_signature()
            == FriisChannel(3.0, loss_probability=0.5).link_signature()
        )


class TestCsrIndexDtype:
    """The CSR pair is halved to int32 whenever node count and link count
    both fit; the values are identical and the overflow guard keeps int64
    available past 2^31 - 1."""

    def test_small_topologies_use_int32(self):
        positions = np.random.default_rng(3).uniform(0, 15, size=(120, 2))
        state = UnitDiskChannel(3.0).link_state(positions)
        assert isinstance(state, UnitDiskLinkState)
        assert state.indices.dtype == np.int32
        assert state.indptr.dtype == np.int32
        assert state.info()["index_dtype"] == "int32"

    def test_downcast_preserves_values(self):
        from repro.topology.grid import GridBuckets

        positions = np.random.default_rng(9).uniform(0, 15, size=(150, 2))
        state = UnitDiskChannel(3.0).link_state(positions)
        indptr, indices = GridBuckets(positions, cell_size=3.0).neighbor_arrays(
            3.0 + 1e-12, "l2", include_self=True
        )
        assert np.array_equal(state.indptr, indptr)
        assert np.array_equal(state.indices, indices)

    def test_overflow_guard_falls_back_to_int64(self):
        from repro.sim.linkstate import _index_dtype

        limit = int(np.iinfo(np.int32).max)
        assert _index_dtype(limit, limit) == np.dtype(np.int32)
        assert _index_dtype(limit + 1, 0) == np.dtype(np.int64)
        assert _index_dtype(10, limit + 1) == np.dtype(np.int64)

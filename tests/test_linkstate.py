"""The link states the SoA kernels read, against brute-force references.

Each channel hands its kernels exactly what they read (`repro.sim.linkstate`):
the schedule's grid-bucketed ``NeighborGraph`` for unit disk, positions plus
the exact power block for Friis.  These tests pin them against quadratic
oracles that cannot share their bugs:

* the neighbourhood graph's CSR rows equal the ``pairwise_distances(...) <=
  radius + SLACK`` predicate, ascending, for both norms;
* the unit-disk link state *is* the schedule's graph, and every reader of
  "who is in range" agrees on a pair at the rounding boundary;
* the Friis ``submatrix`` equals the closed-form power, bit for bit;
* a round resolved from the link state equals ``Channel.observe``,
  observations and RNG stream position alike;
* the SoA tier's vectorized group adjacency equals the brute-force columns;
* whole runs on the built state equal runs on :class:`BruteForceLinkState`
  (``tests/conftest.py``) and on the scalar loop, which builds no state;
* the engine's link cache keys exactly the parameters each state reads.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.core.schedule import NodeSchedule
from repro.sim.builder import build_simulation
from repro.sim.config import ScenarioConfig
from repro.sim.engine import Simulation, clear_link_cache, link_cache_info
from repro.sim.linkstate import FriisLinkState
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel
from repro.sim.soa import _group_adjacency
from repro.topology.connectivity import connectivity_report
from repro.topology.deployment import uniform_deployment
from repro.topology.geometry import pairwise_distances
from repro.topology.grid import SLACK, NeighborGraph

# Half-unit grid offsets: many exact-boundary and coincident pairs, which
# are the inputs where a neighborhood predicate can go wrong.
positions_strategy = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=40
).map(lambda points: np.asarray(points, dtype=float) / 2.0)


def _csr_rows(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(indptr.size - 1)]


def _brute_rows(within):
    return [np.nonzero(row)[0].tolist() for row in within]


def _schedule(positions):
    """A schedule over ``positions``, which is where ``Channel.link_state`` reads them."""
    return NodeSchedule(np.asarray(positions, dtype=float), 1.0, 0)


class TestCsrMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(
        positions=positions_strategy,
        radius=st.sampled_from([0.5, 1.0, 2.0, 3.5]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_unitdisk_rows(self, positions, radius, norm):
        state = NeighborGraph(positions, radius, norm)
        within = pairwise_distances(positions, norm=norm) <= radius + SLACK
        assert _csr_rows(state.indptr, state.indices) == _brute_rows(within)
        assert state.nnz == int(np.count_nonzero(within))

    def test_coincident_nodes_all_hear_each_other(self):
        state = NeighborGraph(np.zeros((5, 2)), 1.0)
        assert _csr_rows(state.indptr, state.indices) == [list(range(5))] * 5
        assert state.info() == {"nnz": 25, "index_dtype": "int32"}

    def test_rows_are_ascending_at_scale(self):
        positions = np.random.default_rng(4).uniform(0, 40, size=(700, 2))
        state = NeighborGraph(positions, 3.0)
        for row in _csr_rows(state.indptr, state.indices):
            assert row == sorted(row)


class TestSubmatrixMatchesBruteForce:
    @pytest.mark.parametrize("exponent,reference", [(2.0, 1.0), (3.0, 0.5)])
    def test_friis_block_is_the_closed_form_power(self, exponent, reference):
        positions = np.random.default_rng(12).uniform(0, 15, size=(90, 2))
        chan = FriisChannel(3.0, path_loss_exponent=exponent, reference_distance=reference)
        state = chan.link_state(_schedule(positions))
        assert isinstance(state, FriisLinkState)
        listeners = list(range(0, 90, 2))
        senders = list(range(1, 90, 5))
        dist = np.maximum(pairwise_distances(positions, norm="l2"), reference)
        power = chan.tx_power * (reference / dist) ** exponent
        assert np.array_equal(
            state.submatrix(listeners, senders), power[np.ix_(listeners, senders)]
        )


class TestLinkStateRoundMatchesObserve:
    """A round resolved from what the SoA kernels read — the unit-disk CSR
    rows, the Friis ``submatrix`` — must reproduce ``observe`` on raw
    positions exactly, observations and RNG consumption alike."""

    @staticmethod
    def _links_block(chan, state, listeners, senders):
        if isinstance(chan, FriisChannel):
            return chan._resolve_powers, state.submatrix(listeners, senders)
        audible = np.zeros((len(listeners), len(senders)), dtype=bool)
        for li, node in enumerate(listeners):
            audible[li] = np.isin(senders, state.neighbors(node))
        return chan._resolve_audible, audible

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
            state = chan.link_state(_schedule(positions))
            resolve, block = self._links_block(chan, state, listeners, tx_ids)
            assert resolve(block, transmissions, rng_links) == direct
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
        state = NeighborGraph(positions, radius, norm)
        local_of = np.full(n, -1, dtype=np.int64)
        indptr, indices = _group_adjacency(state, members, local_of)
        within = pairwise_distances(positions[members], norm=norm) <= radius + SLACK
        for j in range(members.size):
            row = indices[indptr[j] : indptr[j + 1]]
            assert row.tolist() == np.nonzero(within[:, j])[0].tolist()
        assert (local_of == -1).all()

    def test_single_member_hears_itself(self):
        state = NeighborGraph(np.asarray([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)]), 2.0)
        indptr, indices = _group_adjacency(state, np.asarray([1]), np.full(3, -1, dtype=np.int64))
        assert indptr.tolist() == [0, 1]
        assert indices.tolist() == [0]

    def test_isolated_members_hear_only_themselves(self):
        positions = np.asarray([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (10.0, 0.0)])
        state = NeighborGraph(positions, 2.0)
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
    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_plan_cache_info_reports_the_csr_state(self, deployment, norm):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, norm=norm
        )
        sim = build_simulation(deployment, config, use_soa_kernels=True)
        within = pairwise_distances(deployment.positions, norm=norm) <= 3.0 + SLACK
        assert sim.plan_cache_info()["link_state"] == {
            "nnz": int(np.count_nonzero(within)),
            "index_dtype": "int32",
        }

    @pytest.mark.parametrize("protocol", ["epidemic", "multipath"])
    def test_unitdisk_state_is_the_schedule_graph(self, deployment, protocol):
        """The listening table and the kernels read one graph: the engine
        adopts the object the schedule built during protocol setup."""
        config = ScenarioConfig(protocol=protocol, radius=3.0, message_length=2, seed=11)
        sim = build_simulation(deployment, config, use_soa_kernels=True)
        assert sim.soa_runtime is not None
        assert sim.soa_runtime.link_state is sim.schedule.neighbor_graph(3.0, "l2")
        assert len(sim.schedule._graphs) == 1

    def test_schedule_of_other_positions_is_rejected(self, deployment):
        config = ScenarioConfig(protocol="epidemic", radius=3.0, message_length=2, seed=11)
        sim = build_simulation(deployment, config, use_soa_kernels=True)
        moved = deployment.positions.copy()
        moved[3] += 0.5
        schedule = NodeSchedule(moved, 3.0, deployment.source_index, phases_per_slot=1)
        with pytest.raises(ValueError, match="other positions"):
            Simulation(sim.nodes, schedule, sim.channel, sim.message)

    def test_friis_state_reports_nothing(self, deployment):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, channel="friis"
        )
        sim = build_simulation(deployment, config, use_soa_kernels=True)
        assert isinstance(sim.soa_runtime.link_state, FriisLinkState)
        assert sim.plan_cache_info()["link_state"] == {}

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
    def test_run_equals_brute_force_state(self, deployment, use_brute_force_links, overrides):
        """SoA on the built state, SoA on the brute-force state and the
        scalar loop (which reads no state) run identically."""
        config = ScenarioConfig(**{"radius": 3.0, "message_length": 3, "seed": 11, **overrides})
        runs = []
        for soa, reference in ((True, False), (True, True), (False, True)):
            if reference:
                use_brute_force_links()
            sim = build_simulation(deployment, config, use_soa_kernels=soa)
            runs.append((sim.run(2000).to_record(), sim.rng.random()))
        assert runs[0] == runs[1] == runs[2]


#: One non-default value per constructor parameter of each channel.
FRIIS_VARIANTS = {
    "reception_range": 6.0,
    "path_loss_exponent": 3.0,
    "sense_range_factor": 2.0,
    "capture_threshold_db": 3.0,
    "noise_floor": 1e-6,
    "loss_probability": 0.5,
    "tx_power": 2.0,
    "reference_distance": 0.5,
}
UNITDISK_VARIANTS = {
    "radius": 4.0,
    "norm": "linf",
    "capture_probability": 0.5,
    "loss_probability": 0.5,
}


class TestLinkCacheKey:
    """The cache key must cover exactly the parameters a state reads: a
    parameter left out lets two channels share a wrong state, one put in
    needlessly splits the cache."""

    def test_variants_cover_every_constructor_parameter(self):
        assert set(inspect.signature(FriisChannel).parameters) == set(FRIIS_VARIANTS)
        assert set(inspect.signature(UnitDiskChannel).parameters) == set(UNITDISK_VARIANTS)

    @pytest.mark.parametrize("param", sorted(FRIIS_VARIANTS))
    def test_friis_signature_covers_what_the_state_reads(self, param):
        positions = np.random.default_rng(2).uniform(0, 10, size=(30, 2))
        ids = np.arange(30)
        base = FriisChannel(3.0)
        kwargs = {"reception_range": 3.0, param: FRIIS_VARIANTS[param]}
        variant = FriisChannel(kwargs.pop("reception_range"), **kwargs)
        same_state = np.array_equal(
            base.link_state(_schedule(positions)).submatrix(ids, ids),
            variant.link_state(_schedule(positions)).submatrix(ids, ids),
        )
        assert (base.link_signature() == variant.link_signature()) == same_state

    @pytest.mark.parametrize("param", sorted(UNITDISK_VARIANTS))
    def test_unitdisk_signature_covers_what_the_state_reads(self, param):
        positions = np.random.default_rng(2).uniform(0, 10, size=(60, 2))
        base = UnitDiskChannel(3.0).link_state(_schedule(positions))
        kwargs = {"radius": 3.0, param: UNITDISK_VARIANTS[param]}
        channel = UnitDiskChannel(kwargs.pop("radius"), **kwargs)
        variant = channel.link_state(_schedule(positions))
        same_state = np.array_equal(base.indptr, variant.indptr) and np.array_equal(
            base.indices, variant.indices
        )
        assert (UnitDiskChannel(3.0).link_signature() == channel.link_signature()) == same_state

    def test_friis_ranges_share_one_state(self, deployment):
        """Reception and sense range never enter the power block, so runs at
        two radii over one deployment build the Friis state once."""
        clear_link_cache()
        states = []
        for radius in (3.0, 6.0):
            config = ScenarioConfig(
                protocol="epidemic", radius=radius, message_length=2, seed=1, channel="friis"
            )
            sim = build_simulation(deployment, config, use_soa_kernels=True)
            states.append(sim.soa_runtime.link_state)
        assert link_cache_info()["misses"] == 1 and link_cache_info()["hits"] == 1
        assert states[0] is states[1]


class TestCsrIndexDtype:
    """The CSR pair is halved to int32 whenever node count and link count
    both fit; the values are identical and the overflow guard keeps int64
    available past 2^31 - 1."""

    def test_small_topologies_use_int32(self):
        positions = np.random.default_rng(3).uniform(0, 15, size=(120, 2))
        state = NeighborGraph(positions, 3.0)
        assert state.indices.dtype == np.int32
        assert state.indptr.dtype == np.int32
        assert state.info()["index_dtype"] == "int32"

    def test_downcast_preserves_values(self):
        from repro.topology.grid import GridBuckets

        positions = np.random.default_rng(9).uniform(0, 15, size=(150, 2))
        state = NeighborGraph(positions, 3.0)
        indptr, indices = GridBuckets(positions, cell_size=3.0).neighbor_arrays(
            3.0 + SLACK, "l2", include_self=True
        )
        assert np.array_equal(state.indptr, indptr)
        assert np.array_equal(state.indices, indices)

    def test_overflow_guard_falls_back_to_int64(self):
        from repro.topology.grid import _index_dtype

        limit = int(np.iinfo(np.int32).max)
        assert _index_dtype(limit, limit) == np.dtype(np.int32)
        assert _index_dtype(limit + 1, 0) == np.dtype(np.int64)
        assert _index_dtype(10, limit + 1) == np.dtype(np.int64)


class TestOneRangePredicate:
    """Every reader of "who is within ``R`` of whom" applies ``distance <=
    R + SLACK``: two nodes whose computed distance exceeds ``R`` only by
    rounding (``0.1 + 0.2`` against ``0.3``) are neighbours to the channel,
    the link state, the listening table, the owner lookup and the
    connectivity report alike."""

    RADIUS = 0.3

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_boundary_pair_is_in_range_everywhere(self, norm):
        # Node 0 is the source, far from the pair (1, 2).
        positions = np.asarray([(5.0, 5.0), (0.0, 0.0), (0.1 + 0.2, 0.0)])
        distance = pairwise_distances(positions, norm=norm)[1, 2]
        assert distance > self.RADIUS  # the pair sits just past R
        schedule = NodeSchedule(positions, self.RADIUS, 0, norm=norm, phases_per_slot=1)
        channel = UnitDiskChannel(self.RADIUS, norm=norm)

        frame = Frame(FrameKind.DATA_BIT, 2, (1,))
        tx = Transmission(2, (float(positions[2, 0]), float(positions[2, 1])), frame)
        (heard,) = channel.observe([1], positions[[1]], [tx], np.random.default_rng(0))
        assert heard.decoded == frame

        assert channel.link_state(schedule).neighbors(1).tolist() == [1, 2]
        slot = schedule.slot_of_node(2)
        assert slot in schedule.neighbor_slots_of_node(1)
        assert schedule.owner_in_neighborhood(slot, 1) == 2

        report = connectivity_report(positions, self.RADIUS, 1, norm=norm)
        assert report.num_components == 2
        assert report.reachable_from_source == pytest.approx(2 / 3)

"""Fast-path-vs-oracle equivalence, and byte-identity end to end.

PR 3 vectorized the per-round channel resolvers (`UnitDiskChannel` /
`FriisChannel`) and added whole-round memoization to the engine.  The
contract is strict bit-identity: each fast path must produce *identical
observations/records* to its scalar oracle **and leave the RNG at exactly
the same stream position** (otherwise every later draw of a run diverges).
These tests pin that contract:

* property tests drive randomized listener/transmitter sets through
  ``observe`` and through the per-listener reference loops
  (``_resolve_audible_scalar`` / ``_resolve_powers_scalar``) side by side
  (same seed) and compare observation lists and the next RNG draw;
* end-to-end tests run whole scenarios with the reference loops swapped in
  on the scalar tier — and, separately, with the SoA tier toggled or the CSR
  link state swapped for a brute-force pairwise one — and compare the full
  result records and the channel-RNG position (randomized SoA-vs-scalar
  properties live in ``tests/test_soa_kernels.py``);
* golden records pin unit-disk capture, the input only the scalar loop runs;
* a warm-store regression runs one experiment cold then warm through a
  ``ResultStore`` (the ``REPRO_BENCH_CACHE_DIR`` path of the benchmark
  harness) and asserts the fast path reproduces the cached bytes with zero
  misses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.core.schedule import NodeSchedule
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel, message_observation
from repro.topology.geometry import block_distances

# Node layouts are drawn as integer grid offsets scaled down, which produces
# plenty of exact-boundary and coincident-position cases (the interesting
# inputs for mask/argmax equivalence) without floating-point surprises.
positions_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=2,
    max_size=12,
)


def _split_roles(positions, data):
    """Choose a non-empty transmitter subset; the rest listen."""
    num = len(positions)
    num_tx = data.draw(st.integers(1, max(1, num // 2)), label="num_tx")
    tx_ids = sorted(data.draw(st.permutations(range(num)), label="tx_ids")[:num_tx])
    listener_ids = [i for i in range(num) if i not in tx_ids]
    if not listener_ids:
        listener_ids = [tx_ids.pop()]
    transmissions = [
        Transmission(i, (float(positions[i][0]) / 2.0, float(positions[i][1]) / 2.0),
                     Frame(FrameKind.DATA_BIT, i, (i % 2,)))
        for i in tx_ids
    ]
    return listener_ids, transmissions


def _observe_both(channel_factory, positions, listener_ids, transmissions, seed):
    """Run ``observe`` and the per-listener reference loop on the same round and RNG seed."""
    pos = np.asarray(positions, dtype=float) / 2.0
    chan = channel_factory()
    listeners = pos[listener_ids]
    senders = pos[[t.sender for t in transmissions]]
    rng_fast = np.random.default_rng(seed)
    rng_slow = np.random.default_rng(seed)
    obs_fast = chan.observe(listener_ids, listeners, transmissions, rng_fast)
    if isinstance(chan, FriisChannel):
        powers = chan.received_powers(listeners, senders)
        obs_slow = chan._resolve_powers_scalar(powers, transmissions, rng_slow)
    else:
        audible = block_distances(listeners, senders, chan.norm) <= chan.radius + 1e-12
        obs_slow = chan._resolve_audible_scalar(audible, transmissions, rng_slow)
    return obs_fast, obs_slow, rng_fast, rng_slow


class TestUnitDiskKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           loss=st.sampled_from([0.0, 0.25, 0.9]))
    def test_loss_configurations_match_scalar(self, data, positions, seed, loss):
        """Deterministic and loss-only configs take the vectorized path."""
        listener_ids, transmissions = _split_roles(positions, data)
        obs_fast, obs_slow, rng_fast, rng_slow = _observe_both(
            lambda: UnitDiskChannel(2.0, loss_probability=loss),
            positions, listener_ids, transmissions, seed,
        )
        assert obs_fast == obs_slow
        # Identical stream position: the next draw must agree.
        assert rng_fast.random() == rng_slow.random()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           capture=st.sampled_from([0.3, 1.0]), loss=st.sampled_from([0.0, 0.25]))
    def test_capture_configurations_match_scalar(self, data, positions, seed, capture, loss):
        """Capture configs fall back to the scalar loop — still equivalent."""
        listener_ids, transmissions = _split_roles(positions, data)
        obs_fast, obs_slow, rng_fast, rng_slow = _observe_both(
            lambda: UnitDiskChannel(2.0, capture_probability=capture, loss_probability=loss),
            positions, listener_ids, transmissions, seed,
        )
        assert obs_fast == obs_slow
        assert rng_fast.random() == rng_slow.random()

    def test_consumes_rng_classification(self):
        assert not UnitDiskChannel(1.0).consumes_rng()
        assert UnitDiskChannel(1.0, loss_probability=0.1).consumes_rng()
        assert UnitDiskChannel(1.0, capture_probability=0.1).consumes_rng()


class TestFriisKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           loss=st.sampled_from([0.0, 0.25, 0.9]))
    def test_matches_scalar(self, data, positions, seed, loss):
        listener_ids, transmissions = _split_roles(positions, data)
        obs_fast, obs_slow, rng_fast, rng_slow = _observe_both(
            lambda: FriisChannel(2.0, loss_probability=loss),
            positions, listener_ids, transmissions, seed,
        )
        assert obs_fast == obs_slow
        assert rng_fast.random() == rng_slow.random()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1))
    def test_link_state_round_matches_observe(self, data, positions, seed):
        """The power block the SoA tier reads resolves like ``observe``."""
        listener_ids, transmissions = _split_roles(positions, data)
        pos = np.asarray(positions, dtype=float) / 2.0
        chan = FriisChannel(2.0, loss_probability=0.25)
        state = chan.link_state(NodeSchedule(pos, 1.0, 0))
        block = state.submatrix(listener_ids, [t.sender for t in transmissions])
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        direct = chan.observe(listener_ids, pos[listener_ids], transmissions, rng_a)
        via_links = chan._resolve_powers(block, transmissions, rng_b)
        assert direct == via_links
        assert rng_a.random() == rng_b.random()

    def test_consumes_rng_classification(self):
        assert not FriisChannel(1.0).consumes_rng()
        assert FriisChannel(1.0, loss_probability=0.1).consumes_rng()


class TestMessageObservationInterning:
    def test_same_frame_same_object(self):
        frame = Frame(FrameKind.DATA_BIT, 3, (1,))
        assert message_observation(frame) is message_observation(Frame(FrameKind.DATA_BIT, 3, (1,)))

    def test_distinct_frames_distinct_observations(self):
        a = message_observation(Frame(FrameKind.DATA_BIT, 3, (1,)))
        b = message_observation(Frame(FrameKind.VETO, 3))
        assert a != b and a.decoded != b.decoded


def _run_with_kernels(deployment, config, faults=None, *, vectorized: bool):
    """One whole run: the default tiers, or the scalar loop on the reference loops."""
    from repro.sim.builder import build_simulation
    from repro.sim.engine import clear_link_cache

    clear_link_cache()  # the link cache is keyed by channel params, but keep runs isolated
    if vectorized:
        return build_simulation(deployment, config, faults).run(4000)
    sim = build_simulation(deployment, config, faults, use_soa_kernels=False)
    chan = sim.channel
    if isinstance(chan, FriisChannel):
        chan._resolve_powers = chan._resolve_powers_scalar
    else:
        chan._resolve_audible = chan._resolve_audible_scalar
    return sim.run(4000)


class TestEndToEndEquivalence:
    """Whole runs on the per-listener reference loops must not move a bit."""

    @pytest.mark.parametrize("channel,loss", [("unitdisk", 0.0), ("unitdisk", 0.2),
                                              ("friis", 0.0), ("friis", 0.2)])
    def test_full_run_identical(self, tiny_grid_deployment, channel, loss):
        from dataclasses import replace

        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11,
            channel=channel, loss_probability=loss,
        )
        fast = _run_with_kernels(tiny_grid_deployment, config, vectorized=True)
        slow = _run_with_kernels(tiny_grid_deployment, replace(config), vectorized=False)
        assert fast.to_record() == slow.to_record()


def _tier_config(protocol, **overrides):
    from repro.sim.config import ScenarioConfig

    kwargs = dict(protocol=protocol, radius=3.0, message_length=3)
    if protocol == "multipath":
        kwargs.update(message_length=2, multipath_tolerance=1)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def _run_tier(deployment, config, faults=None, *, soa: bool, max_rounds=4000):
    """One whole run on one execution tier: (record, RNG tail, SoA info)."""
    from repro.sim.builder import build_simulation
    from repro.sim.engine import clear_link_cache

    clear_link_cache()
    sim = build_simulation(deployment, config, faults, use_soa_kernels=soa)
    record = sim.run(max_rounds).to_record()
    return record, sim.rng.random(), sim.plan_cache_info()["soa_kernels"]


class TestOracleTierEquivalence:
    """SoA-vs-scalar protocol execution must not move a bit.

    Full-record identity on the 25-device grid across channels, loss/capture
    settings, the two-vote variant and fault plans, plus the channel-RNG
    stream-position check (stochastic configurations draw per listener, so
    any divergence in execution order would surface here).  Unit-disk
    capture is ineligible for the SoA kernels: there the knob must fall back
    to the scalar loop rather than approximate it.
    """

    @pytest.mark.parametrize(
        "protocol,channel,loss,capture",
        [
            ("neighborwatch", "unitdisk", 0.0, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.5),
            ("neighborwatch", "friis", 0.0, 0.0),
            ("neighborwatch", "friis", 0.25, 0.0),
            ("neighborwatch2", "unitdisk", 0.1, 0.0),
            ("multipath", "unitdisk", 0.0, 0.0),
            ("epidemic", "unitdisk", 0.1, 0.0),
        ],
    )
    def test_full_run_identical_and_rng_position_matches(
        self, tiny_grid_deployment, protocol, channel, loss, capture
    ):
        config = _tier_config(
            protocol, seed=17, channel=channel,
            loss_probability=loss, capture_probability=capture,
        )
        soa_record, soa_tail, info = _run_tier(tiny_grid_deployment, config, soa=True)
        record, tail, _ = _run_tier(tiny_grid_deployment, config, soa=False)
        assert soa_record == record
        assert soa_tail == tail
        assert info["enabled"] is (capture == 0.0)

    @pytest.mark.parametrize("scenario", ["jammers", "liars", "crashed"])
    def test_fault_plans_identical(self, tiny_grid_deployment, scenario):
        from repro.adversary.placement import random_fault_selection
        from repro.sim.config import FaultPlan

        config = _tier_config("neighborwatch", seed=29)
        picks = random_fault_selection(
            tiny_grid_deployment.num_nodes, 4,
            exclude=[tiny_grid_deployment.source_index], rng=31,
        )
        if scenario == "jammers":
            faults = FaultPlan(jammers=tuple(picks), jammer_budget=25, jam_probability=0.3)
        elif scenario == "liars":
            faults = FaultPlan(liars=tuple(picks))
        else:
            faults = FaultPlan(crashed=tuple(picks))

        soa_record, soa_tail, info = _run_tier(tiny_grid_deployment, config, faults, soa=True)
        record, tail, _ = _run_tier(tiny_grid_deployment, config, faults, soa=False)
        assert soa_record == record
        assert soa_tail == tail
        assert info["enabled"]


class TestUnitDiskCapturePins:
    """Golden records for unit-disk capture, the one input the SoA tier
    leaves to the scalar loop.

    Each pin is the SHA-256 of the sorted-key JSON record plus the channel
    RNG's next draw after the run.  The values were produced identically by
    every execution path the simulator has had for this input, so a change
    to the scalar loop's capture draw order, or to protocol execution under
    collisions, moves a pin.  The RNG tail must also differ from the
    capture-free run's: the pinned runs really do draw capture outcomes.
    """

    #: Next draw of a seed-23 channel RNG that was never consumed.
    UNDRAWN_TAIL = 0.47815469933102206

    PINS = {
        ("neighborwatch", 0.3): (
            "1685888efcdb269d1d951a71fa3df9b981d41bf838b45f3880dbb69e0fce1301",
            0.3059505954502193,
        ),
        ("neighborwatch", 0.8): (
            "1685888efcdb269d1d951a71fa3df9b981d41bf838b45f3880dbb69e0fce1301",
            0.7256152283061043,
        ),
        ("neighborwatch2", 0.3): (
            "de97f909710da0c077bedc96a1e06892a91137893182a0a9be176f1f9fdd6717",
            0.1599875877536704,
        ),
        ("neighborwatch2", 0.8): (
            "de97f909710da0c077bedc96a1e06892a91137893182a0a9be176f1f9fdd6717",
            0.6277780644270691,
        ),
        ("multipath", 0.3): (
            "b99c035335255be7561113595be4103fbe9eb60201b017ce0225551f77e6b567",
            0.7362473397106256,
        ),
        ("multipath", 0.8): (
            "b99c035335255be7561113595be4103fbe9eb60201b017ce0225551f77e6b567",
            0.6517702986297818,
        ),
    }

    @pytest.mark.parametrize("protocol,capture", sorted(PINS))
    def test_record_and_rng_tail_match_pin(self, uniform_small_deployment, protocol, capture):
        import hashlib

        config = _tier_config(protocol, seed=23, capture_probability=capture)
        expected_sha, expected_tail = self.PINS[(protocol, capture)]
        for soa in (True, False):
            record, tail, info = _run_tier(
                uniform_small_deployment, config, soa=soa, max_rounds=2500
            )
            digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
            assert info == {"enabled": False}
            assert digest == expected_sha
            assert tail == expected_tail
            assert tail != self.UNDRAWN_TAIL


class TestWarmStoreByteIdentity:
    """The benchmark harness's REPRO_BENCH_CACHE_DIR path: a warm rerun of an
    experiment through the content-addressed store must reproduce the cold
    run's exported rows byte for byte while dispatching zero simulations."""

    def test_epidemic_comparison_warm_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))  # documents the knob
        from repro.experiments.registry import run_experiment
        from repro.store import ResultStore

        def export(rows):
            return json.dumps(list(rows), sort_keys=True).encode("utf8")

        cold_store = ResultStore(tmp_path)
        cold_rows, _ = run_experiment("EPID", scale="small", store=cold_store)
        assert cold_store.stats.hits == 0 and cold_store.stats.misses > 0

        warm_store = ResultStore(tmp_path)
        warm_rows, _ = run_experiment("EPID", scale="small", store=warm_store)
        assert warm_store.stats.misses == 0
        assert warm_store.stats.hits == cold_store.stats.misses
        assert export(warm_rows) == export(cold_rows)


class TestBruteForceLinkStateEquivalence:
    """The tile-built CSR link state must not move a bit against the
    brute-force pairwise oracle (``BruteForceLinkState`` in conftest).

    Same discipline as the kernel layer: full-record identity
    across protocols, channels and loss/capture settings, plus the explicit
    channel-RNG stream-position check.  The 600- and 1200-node cases are
    scale pins — uniform deployments at the benchmark macros' density, run
    on both states back to back.
    """

    @pytest.mark.parametrize(
        "protocol,channel,loss,capture",
        [
            ("neighborwatch", "unitdisk", 0.0, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.5),
            ("neighborwatch", "friis", 0.0, 0.0),
            ("neighborwatch", "friis", 0.25, 0.0),
            ("neighborwatch2", "unitdisk", 0.1, 0.0),
            ("multipath", "unitdisk", 0.0, 0.0),
            ("epidemic", "unitdisk", 0.1, 0.0),
        ],
    )
    def test_full_run_identical_and_rng_position_matches(
        self, uniform_small_deployment, use_brute_force_links, protocol, channel, loss, capture
    ):
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig
        from repro.sim.engine import clear_link_cache

        kwargs = dict(
            protocol=protocol, radius=3.0, seed=17, channel=channel,
            loss_probability=loss, capture_probability=capture,
        )
        kwargs["message_length"] = 2 if protocol == "multipath" else 3
        if protocol == "multipath":
            kwargs["multipath_tolerance"] = 1
        config = ScenarioConfig(**kwargs)

        results = {}
        for reference in (False, True):
            clear_link_cache()
            if reference:
                use_brute_force_links()
            sim = build_simulation(uniform_small_deployment, config, use_soa_kernels=True)
            record = sim.run(4000).to_record()
            results[reference] = (record, sim.rng.random())
        assert results[True][0] == results[False][0]
        assert results[True][1] == results[False][1]

    @pytest.mark.parametrize(
        "protocol,num_nodes",
        [("neighborwatch", 600), ("epidemic", 1200)],
    )
    def test_scale_pins_600_and_1200_nodes(self, use_brute_force_links, protocol, num_nodes):
        """The acceptance-scale runs: byte-identity at 600/1200 nodes.

        Serialized-record equality covers the exported rows and the bytes a
        ResultStore would persist; the RNG draw pins the stream position.
        """
        from repro.experiments.factories import UniformDeploymentFactory
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig
        from repro.sim.engine import clear_link_cache

        deployment = UniformDeploymentFactory(num_nodes, 20.0, 20.0)(5)
        config = ScenarioConfig(
            protocol=protocol, radius=4.0, message_length=4, seed=5
        )
        serialized = {}
        for reference in (False, True):
            clear_link_cache()
            if reference:
                use_brute_force_links()
            # Pinned to the SoA tier, the only reader of the link state.
            sim = build_simulation(deployment, config, use_soa_kernels=True)
            result = sim.run(20000)
            serialized[reference] = (
                json.dumps(result.to_record(), sort_keys=True, default=str),
                sim.rng.random(),
            )
            assert sim.plan_cache_info()["link_state"]["nnz"] < num_nodes * num_nodes
        assert serialized[True] == serialized[False]

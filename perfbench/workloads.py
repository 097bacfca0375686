"""The benchmark's workloads: inputs from a seed, one timed sample at a time.

Every workload is closed-loop: this process submits the work and waits for
the last row before it starts the next sample.  A sample is a *cold* pass
into a fresh result store (``sweep_norm_s``) followed by warm replays of the
same job set from that store, each opened as a new store object
(``replay_norm_s``); a replay must dispatch no job.  Before each sample the
engine's link-state cache is cleared and the garbage collector run, so no
sample reuses a previous sample's link state.

Passes are timed in CPU seconds of the processes doing the work (this one,
and for ``queue-sweep`` also the worker daemon), together with the host's
speed during the pass (see ``hostspeed.py``); the wall-clock time is kept
beside them.

``size="tiny"`` shrinks every workload to a few seconds for the self-test.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from hostspeed import SpeedSampler

HERE = Path(__file__).resolve().parent
# Samples are hashed exactly as ``BENCH_*.json`` captures hash their series.
sys.path.append(str(HERE.parent / "benchmarks"))

from capture import series_hash  # noqa: E402

#: FIG5's own ``base_seed`` (the input behind ``BENCH_10.json``'s FIG5
#: hash), and the seed at which ``queue-sweep`` runs the specs' defaults.
ANCHOR_SEED = 100


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, files in os.walk(path)
        for name in files
    )


@dataclass
class Sample:
    """One timed sample: a cold pass and its warm replays."""

    index: int
    key: int
    #: Wall-clock seconds of the cold pass and of each replay.
    cold_s: float
    warm_times: list
    #: CPU seconds of the same, in this process, and the host's speed during
    #: the cold pass and during the replays (mean reference turn, ms).
    cold_cpu_s: float
    warm_cpu_times: list
    cold_speed_ms: float
    warm_speed_ms: float
    scenarios: int
    cold_hash: str
    #: Distinct hashes of the replays' outputs (one, equal to ``cold_hash``).
    warm_hashes: list
    telemetry: dict
    replay_attempts: int
    link_cache_hits: int
    store_bytes: int
    store_hits: int
    store_misses: int
    #: Wall-clock ``(start, end)`` of the cold pass, to place worker spans.
    cold_window: tuple
    #: ``queue-sweep``: the worker daemon's CPU seconds on the sample's queue
    #: and the host's speed it read meanwhile, set once
    #: :meth:`QueueSweep.close` has read them.
    worker_cpu_s: float = 0.0
    worker_speed_ms: float = 0.0


class Workload:
    """Base class: subclasses define inputs, stores, executors and one pass."""

    name = ""
    #: Rounds over :meth:`keys` every run makes, however short ``--seconds``.
    min_rounds = 3
    #: Seconds of warm replays per untraced sample (at least three).  A
    #: replay takes 20-150 ms, and on a shared 2-vCPU VM the speed of one
    #: fixed job drifted by 10-30% within seconds, so a longer burst makes
    #: the median replay steadier.  A traced sample replays exactly three
    #: times, so its counts repeat.
    replay_seconds = 1.0

    def __init__(self, seed: int, workdir: Path, *, size: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.tiny = size == "tiny"

    # -- to be defined per workload ------------------------------------------------------
    def keys(self) -> list[int]:
        """The inputs of one round of samples (seeds the program receives)."""
        return [self.seed]

    def setup(self) -> None:
        """Warm-up before the first timed sample (and any daemon start)."""

    def open_store(self, sample_dir: Path):
        from repro.store import ResultStore

        return ResultStore(sample_dir / "store")

    def executor(self, sample_dir: Path, store):
        from repro.sim.runner import SweepExecutor

        return SweepExecutor(0)

    def prepare(self, sample_dir: Path, trace: bool) -> None:
        """Per-sample preparation outside the timed region."""

    def cold_done(self) -> None:
        """Called between a sample's cold pass and its replays."""

    def execute(self, key: int, executor, store):
        """Run the job set once; returns the output to hash."""
        raise NotImplementedError

    def reference(self, key: int):
        """The output for ``key`` by the plain serial path, without a store."""
        raise NotImplementedError

    def close(self) -> dict:
        """Stop what :meth:`setup` started; returns peak RSS (KiB) by process."""
        return {}

    # -- shared ----------------------------------------------------------------------------
    def sample_dir(self, index: int) -> Path:
        return self.workdir / f"sample-{index}"

    def sample(self, key: int, index: int, *, tracer=None) -> tuple:
        """Run one cold pass and its warm replays; returns ``(Sample, spans)``.

        With a ``tracer``, ``spans`` holds its aggregates over the cold pass
        and over the replays (``{"cold": ..., "warm": ...}``).
        """
        from repro.sim.engine import clear_link_cache, link_cache_info

        from tracing import diff

        sample_dir = self.sample_dir(index)
        sample_dir.mkdir(parents=True)
        self.prepare(sample_dir, tracer is not None)
        clear_link_cache()
        gc.collect()
        spans = {}
        store = self.open_store(sample_dir)
        mark = tracer.snapshot() if tracer is not None else None
        with SpeedSampler() as sampler, self.executor(sample_dir, store) as executor:
            wall = time.time()
            started, cpu = time.perf_counter(), sampler.mark()
            output = self.execute(key, executor, store)
            cold_s = time.perf_counter() - started
            cold_cpu_s = sampler.cpu_since(cpu)
            cold_speed_ms = sampler.speed_since(cpu)
            telemetry = executor.telemetry.snapshot()
        if tracer is not None:
            spans["cold"] = diff(tracer.snapshot(), mark)
            spans["cold"]["events"] = tracer.events[mark["events"]:]
        self.cold_done()
        link_hits = link_cache_info()["hits"]
        store_bytes = dir_bytes(Path(store.cache_dir))
        warm_times, warm_cpu_times, warm_hashes, replay_attempts = [], [], set(), 0
        store_hits, store_misses = store.stats.hits, store.stats.misses
        mark = tracer.snapshot() if tracer is not None else None
        replaying = time.perf_counter()
        with SpeedSampler() as sampler:
            burst = sampler.mark()
            while len(warm_times) < 3 or (
                tracer is None and time.perf_counter() - replaying < self.replay_seconds
            ):
                # Each replay starts from the same collector state, so it pays
                # for the same collections.  Without this, fig5-sweep's median
                # replay fell near 14 ms in some runs and 20 ms in others.
                gc.collect()
                warm_store = self.open_store(sample_dir)
                with self.executor(sample_dir, warm_store) as executor:
                    started, cpu = time.perf_counter(), sampler.mark()
                    replayed = self.execute(key, executor, warm_store)
                    warm_times.append(time.perf_counter() - started)
                    warm_cpu_times.append(sampler.cpu_since(cpu))
                    replay_attempts += executor.telemetry.attempts
                warm_hashes.add(series_hash(replayed))
                store_hits += warm_store.stats.hits
                store_misses += warm_store.stats.misses
            warm_speed_ms = sampler.speed_since(burst)
        if tracer is not None:
            spans["warm"] = diff(tracer.snapshot(), mark)
        result = Sample(
            index=index,
            key=key,
            cold_s=cold_s,
            warm_times=warm_times,
            cold_cpu_s=cold_cpu_s,
            warm_cpu_times=warm_cpu_times,
            cold_speed_ms=cold_speed_ms,
            warm_speed_ms=warm_speed_ms,
            scenarios=telemetry["attempts"],
            cold_hash=series_hash(output),
            warm_hashes=sorted(warm_hashes),
            telemetry=telemetry,
            replay_attempts=replay_attempts,
            link_cache_hits=link_hits,
            store_bytes=store_bytes,
            store_hits=store_hits,
            store_misses=store_misses,
            cold_window=(wall, wall + cold_s),
        )
        return result, spans


def _run_spec(spec_id: str, overrides: dict, executor, store):
    # Looked up through the module at call time, so a traced run sees the
    # wrapped entry point.
    from repro.experiments import driver
    from repro.experiments.registry import get_spec

    return driver.run_spec(
        get_spec(spec_id), scale="small", overrides=overrides, executor=executor, store=store
    )


class Fig5Sweep(Workload):
    name = "fig5-sweep"
    min_rounds = 1

    def overrides(self, key: int) -> dict:
        overrides = {"base_seed": key}
        if self.tiny:
            overrides.update(repetitions=1, map_size=6.0)
        return overrides

    def setup(self) -> None:
        from repro.sim.runner import SweepExecutor

        warm = {"base_seed": self.seed, "repetitions": 1, "map_size": 6.0, "densities": (0.8,)}
        with SweepExecutor(0) as executor:
            _run_spec("FIG5", warm, executor, self.open_store(self.workdir / "warm-up"))

    def execute(self, key, executor, store):
        return list(_run_spec("FIG5", self.overrides(key), executor, store))

    def reference(self, key):
        from repro.sim.runner import SweepExecutor

        with SweepExecutor(0) as executor:
            return list(_run_spec("FIG5", self.overrides(key), executor, None))


class Flood(Workload):
    """One epidemic flood on a uniform deployment, as a one-job sweep."""

    channel = ""
    #: Node count and square map side at full size: 12 000 nodes on 310 x
    #: 310 with radius 6 is epidemic-unitdisk-100k's density (0.125) at an
    #: eighth of its size, above the 4096-node threshold of the sparse tiled
    #: link state.
    num_nodes, side = 12_000, 310.0
    radius = 6.0
    #: The flood is simulated for a fixed number of rounds.  On this map
    #: floods finish after 790-910 rounds depending on the deployment, and
    #: one with an isolated node runs on to the derived cap (tens of
    #: thousands of rounds), so a fixed horizon below completion keeps every
    #: seed's round-loop work the same.
    horizon = 700
    #: Two samples: scaled to the host's speed, a flood's passes agree within
    #: a few percent, and the driver's time budget is spent on four workloads.
    min_rounds = 2

    def _task(self, key: int):
        from repro.experiments.factories import UniformDeploymentFactory
        from repro.sim.config import ScenarioConfig
        from repro.sim.runner import SweepTask

        num_nodes, side, horizon = (
            (600, 70.0, 120) if self.tiny else (self.num_nodes, self.side, self.horizon)
        )
        return SweepTask(
            label=f"flood-{self.channel}",
            deployment_factory=UniformDeploymentFactory(num_nodes, side, side),
            config=ScenarioConfig(
                protocol="epidemic",
                radius=self.radius,
                message_length=4,
                seed=key,
                channel=self.channel,
            ),
            repetitions=1,
            base_seed=key,
            max_rounds=horizon,
        )

    def setup(self) -> None:
        from repro.experiments.factories import UniformDeploymentFactory
        from repro.sim.runner import SweepExecutor
        from repro.store import CachingSweepExecutor

        # Large enough (above 4096 nodes) to warm the tiled link-state path.
        task = replace(
            self._task(self.seed),
            deployment_factory=UniformDeploymentFactory(5000, 200.0, 200.0),
            max_rounds=40,
        )
        with SweepExecutor(0) as executor:
            CachingSweepExecutor(self.open_store(self.workdir / "warm-up"), executor).run([task])

    def execute(self, key, executor, store):
        from repro.store import CachingSweepExecutor

        results = CachingSweepExecutor(store, executor).run([self._task(key)])
        return results[0][0].to_record()

    def reference(self, key):
        from repro.sim.builder import run_scenario
        from repro.sim.config import FaultPlan

        task = self._task(key)
        deployment = task.deployment_factory(key)
        result = run_scenario(deployment, task.scenario(key), FaultPlan(), max_rounds=task.max_rounds)
        return result.to_record()


class FloodUnitDisk(Flood):
    name = "flood-unitdisk-12k"
    channel = "unitdisk"


class FloodFriis(Flood):
    name = "flood-friis-12k"
    channel = "friis"


class QueueSweep(Workload):
    name = "queue-sweep"
    #: The submitter's and the worker's poll interval: the defaults of
    #: ``--backend queue`` and ``python -m repro.service worker``.
    poll_interval = 0.2
    #: A cold pass's CPU time moves by ~10% from one run to the next, and
    #: now and then one pass takes 25% more: three per input, so that the
    #: median drops it.
    min_rounds = 3

    def keys(self) -> list[int]:
        # Cold passes differ by ~10% from seed to seed (the simulations do
        # not: the queue and store work does), so a run times two inputs:
        # the seed's and the specs' own (seed 100).
        if self.tiny:
            return [self.seed]
        return [self.seed, ANCHOR_SEED]

    def __init__(self, seed, workdir, *, size="full") -> None:
        super().__init__(seed, workdir, size=size)
        self.control = workdir / "worker-control.json"
        self.spans_path = workdir / "worker-spans.json"
        self.worker = None
        self.worker_record: dict = {}

    def _sweeps(self, key: int) -> list[tuple[str, dict]]:
        # The seed offsets each experiment's own base seed (seed 100 runs
        # the specs' defaults).  FIG7's tolerance search stops at the first
        # failing candidate, so its job count depends on the seed; it keeps
        # its own seed so that every run dispatches the same jobs.  Four
        # repetitions keep the simulations under the fabric's share of the
        # pass (eight left the fabric, queue and store below 40%).
        offset = key - 100
        reps = 1 if self.tiny else 4
        return [
            ("EPID", {"repetitions": reps, "base_seed": 700 + offset}),
            ("MAPSZ", {"repetitions": reps, "base_seed": 600 + offset}),
            ("DUAL", {"seed": 800 + offset}),
            ("FIG7", {"repetitions": reps}),
        ]

    def _control(self, **payload) -> None:
        tmp = self.control.with_name(self.control.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf8")
        os.replace(tmp, self.control)

    def setup(self) -> None:
        self._control(queue=None)
        self.worker = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "worker_shim.py"),
                "--control", str(self.control),
                "--out", str(self.spans_path),
            ],
            stdin=subprocess.DEVNULL,
        )
        # The worker claims and runs a two-job warm-up sweep.
        warm_dir = self.workdir / "warm-up"
        self.prepare(warm_dir, False)
        store = self.open_store(warm_dir)
        with self.executor(warm_dir, store) as executor:
            _run_spec("EPID", {"repetitions": 1}, executor, store)

    def prepare(self, sample_dir: Path, trace: bool) -> None:
        from repro.service.queue import WorkQueue

        queue_dir = sample_dir / "queue"
        WorkQueue.ensure(queue_dir, store_dir=sample_dir / "store", store_backend="shared")
        self._control(queue=str(queue_dir), trace=trace)

    def cold_done(self) -> None:
        # The worker leaves the queue, so that its idle polling does not
        # compete with the replays (which must not dispatch anything).
        self._control(queue=None)

    def open_store(self, sample_dir: Path):
        from repro.store.shared import SharedResultStore

        return SharedResultStore(sample_dir / "store")

    def executor(self, sample_dir: Path, store):
        from repro.service.backend import QueueBackend
        from repro.service.queue import WorkQueue
        from repro.sim.runner import SweepExecutor

        queue = WorkQueue(sample_dir / "queue")
        backend = QueueBackend(queue, store=store, poll_interval=self.poll_interval)
        # Jobs are served within seconds; the wait budget only turns a dead
        # worker into a failed run instead of a hung one.
        return SweepExecutor(0, backend=backend, timeout=30.0, max_retries=0)

    def execute(self, key, executor, store):
        return {
            spec_id: list(_run_spec(spec_id, overrides, executor, store))
            for spec_id, overrides in self._sweeps(key)
        }

    def reference(self, key):
        from repro.sim.runner import SweepExecutor

        with SweepExecutor(0) as executor:
            return {
                spec_id: list(_run_spec(spec_id, overrides, executor, None))
                for spec_id, overrides in self._sweeps(key)
            }

    def worker_spans(self) -> dict:
        return self.worker_record.get("queues", {})

    def worker_usage(self, index: int):
        """The worker's ``{"cpu_s", "speed_ms"}`` on sample ``index``'s queue (after :meth:`close`)."""
        return self.worker_record.get("usage", {}).get(str(self.sample_dir(index) / "queue"))

    def close(self) -> dict:
        if self.worker is None:
            return {}
        self._control(stop=True)
        try:
            self.worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.worker.send_signal(signal.SIGKILL)
            self.worker.wait(timeout=30)
        self.worker = None
        try:
            self.worker_record = json.loads(self.spans_path.read_text(encoding="utf8"))
        except (OSError, ValueError):
            self.worker_record = {}
        return {"worker": self.worker_record.get("peak_rss_kib", 0)}


WORKLOADS = {
    cls.name: cls for cls in (Fig5Sweep, FloodUnitDisk, FloodFriis, QueueSweep)
}

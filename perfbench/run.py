"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-sweep --seed 100 --seconds 20 --trace 0
    python3 perfbench/run.py --workload queue-sweep --seed 7 --seconds 20 --trace 1
    python3 perfbench/run.py --workload flood-friis-12k --size tiny --seconds 1
    python3 perfbench/run.py --workload all

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fig5-sweep``,
``flood-unitdisk-12k``, ``flood-friis-12k`` and ``queue-sweep``; ``all``
runs each in turn and prints every report, then one merged result line
whose metrics are named ``<workload>/<metric>``.

A run sets up once (imports, registry load, a warm-up, and for
``queue-sweep`` a worker daemon that claims a warm-up job), then takes timed
samples, each a cold pass and several warm replays, in rounds over the
workload's inputs: at least ``min_rounds`` rounds, and more while another
round fits in ``--seconds``.  ``sweep_norm_s`` and ``replay_norm_s`` are,
per input, the median over its passes, averaged over the inputs;
``scenario_norm_s`` is ``sweep_norm_s`` per scenario the pass ran.  They
count the CPU seconds of the processes doing the work, scaled to a reference
host speed (see ``hostspeed.py``); the same figures in unscaled CPU seconds
and in wall-clock seconds are printed on ``cpu`` and ``wall`` report lines.
Two more set-ups run in fresh interpreters after the samples; ``setup_s``
is the median over the three of the set-up's wall-clock time with this
process's CPU seconds in it scaled by the host speed read meanwhile (the
rest, mostly waiting for the worker daemon, is left as it is); the
unscaled median is on the ``wall`` line.

Every sample's output is hashed (rows, or ``RunResult.to_record()``) and
must equal its replays, every other sample of the same input, the stored
reference in ``references.json`` when there is one for that input, and for
``queue-sweep`` a serial in-process run of the same job set.  Any drift
prints ``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times one
untraced round and one traced round and prints the per-layer metrics, the
tracing overhead (traced minus untraced) and the workload's profile check;
it exits 1 when an expected span recorded no call.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("fig5-sweep", "flood-unitdisk-12k", "flood-friis-12k", "queue-sweep")

END_TO_END = {
    "sweep_norm_s": "s",
    "scenario_norm_s": "s",
    "replay_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    # construction
    "topology.deploy_s": "s",
    "schedule.build_s": "s",
    "linkstate.build_s": "s",
    "linkstate.nnz": "count",
    "plan.build_s": "s",
    "soa.compile_s": "s",
    "soa.slots_compiled": "count",
    "soa.member_slots": "count",
    "protocol.setup_s": "s",
    "construct.share": "ratio",
    # round loop
    "soa.run_s": "s",
    "run.self_s": "s",
    "run.rounds": "count",
    "run.rounds_per_s": "1/s",
    "soa.slots_run": "count",
    "soa.scalar_fallbacks": "count",
    "soa.compiled_ratio": "ratio",
    "soa.busy_cache_hits": "count",
    "soa.busy_cache_misses": "count",
    "soa.busy_cache_hit_ratio": "ratio",
    # sweep fabric
    "runner.rep_s": "s",
    "runner.fingerprint_s": "s",
    "runner.fingerprint_calls": "count",
    "fabric.attempts": "count",
    "fabric.retries": "count",
    "fabric.failures": "count",
    "fabric.self_s": "s",
    # store
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.contains_s": "s",
    "store.contains_calls": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "B",
    # service
    "queue.enqueue_s": "s",
    "queue.poll_s": "s",
    "queue.poll_sleeps": "count",
    "queue.wait_s": "s",
    "queue.requeues": "count",
    "worker.claim_s": "s",
    "worker.run_s": "s",
    "worker.idle_s": "s",
    # experiments
    "experiments.self_s": "s",
    # isolation and tracing cost
    "linkcache.hits": "count",
    "trace.overhead.sweep_norm_s": "s",
    "trace.overhead.scenario_norm_s": "s",
    "trace.overhead.replay_norm_s": "s",
}

#: Spans each workload must exercise; a traced run fails if one reads zero
#: calls, so a moved entry point cannot silently zero its layer's metrics.
EXPECTED_SPANS = {
    "fig5-sweep": (
        "topology.deploy", "schedule.build", "linkstate.build", "plan.build",
        "soa.compile", "protocol.setup", "run", "soa.run", "runner.rep",
        "runner.fingerprint", "fabric.dispatch", "store.put", "store.get", "experiments",
    ),
    "flood-unitdisk-12k": (
        "topology.deploy", "schedule.build", "linkstate.build", "plan.build",
        "soa.compile", "protocol.setup", "run", "soa.run", "runner.rep",
        "runner.fingerprint", "fabric.dispatch", "store.put", "store.get",
    ),
    "flood-friis-12k": (
        "topology.deploy", "schedule.build", "linkstate.build", "plan.build",
        "soa.compile", "protocol.setup", "run", "soa.run", "runner.rep",
        "runner.fingerprint", "fabric.dispatch", "store.put", "store.get",
    ),
    "queue-sweep": (
        "topology.deploy", "protocol.setup", "run", "runner.rep", "runner.fingerprint",
        "fabric.dispatch", "store.put", "store.get", "store.contains", "queue.enqueue",
        "queue.poll", "worker.claim", "worker.run", "experiments",
    ),
}

#: The intended profile of each workload, checked (and reported) by a traced
#: run: ``(label, value from the per-layer metrics, bound, "min"|"max")``.
#: Spans are wall-clock, so the shares are of the cold pass's wall time.
PROFILES = {
    "fig5-sweep": ("construction / sweep wall", "construct.share", 0.10, "max"),
    "flood-unitdisk-12k": ("construction / scenario wall", "construct.share", 0.70, "min"),
    "flood-friis-12k": ("(soa.run_s + run.self_s) / scenario wall", "round_loop.share", 0.50, "min"),
    "queue-sweep": ("(fabric + queue + store) / sweep wall", "fabric_queue_store.share", 0.40, "min"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def load_references(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf8"))
    except FileNotFoundError:
        return {}


# -- end-to-end metrics ------------------------------------------------------------------------
def pass_times(samples, inputs: int, clock: str) -> dict:
    """Per input the median over its samples, then the mean over inputs.

    Samples are taken in rounds over the workload's ``inputs`` inputs, so a
    sample's input position is its index modulo ``inputs``.  ``clock`` is
    ``"norm"`` (CPU seconds at the reference speed), ``"cpu"`` or ``"wall"``.
    """
    from hostspeed import scaled

    by_key: dict[int, list] = {}
    for sample in samples:
        by_key.setdefault(sample.index % inputs, []).append(sample)

    def over_inputs(values) -> float:
        return statistics.fmean(
            statistics.median(x for s in group for x in values(s)) for group in by_key.values()
        )

    def cold(sample) -> float:
        # A worker daemon's CPU time is scaled by its own speed readings.
        if clock == "norm":
            worker = scaled(sample.worker_cpu_s, sample.worker_speed_ms) if sample.worker_cpu_s else 0.0
            return scaled(sample.cold_cpu_s, sample.cold_speed_ms) + worker
        return sample.cold_cpu_s + sample.worker_cpu_s if clock == "cpu" else sample.cold_s

    def warm(sample) -> list:
        if clock == "norm":
            return [scaled(t, sample.warm_speed_ms) for t in sample.warm_cpu_times]
        return sample.warm_cpu_times if clock == "cpu" else sample.warm_times

    return {
        "sweep": over_inputs(lambda s: [cold(s)]),
        "scenario": over_inputs(lambda s: [cold(s) / max(s.scenarios, 1)]),
        "replay": over_inputs(warm),
    }


def end_to_end(samples, inputs: int, setups, rss_kib: dict) -> dict:
    """``setups`` holds ``(wall seconds, CPU seconds, host speed)`` per set-up."""
    from hostspeed import scaled

    times = pass_times(samples, inputs, "norm")
    return {
        **{f"{name}_norm_s": value for name, value in times.items()},
        "setup_s": statistics.median(
            max(wall - cpu, 0.0) + scaled(cpu, speed) for wall, cpu, speed in setups
        ),
        "peak_rss_mib": max(rss_kib.values()) / 1024.0,
    }


# -- per-layer metrics -------------------------------------------------------------------------
def _merge(into: dict, stats: dict) -> None:
    for name, entry in stats.items():
        base = into.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            base[i] += entry[i]


def _in_window(events, window, span: str):
    start, end = window
    return [e for e in events if e["span"] == span and start <= e["start"] <= end]


def per_layer(workload, traced, spans, worker_queues: dict, overhead: dict) -> tuple:
    """Per-layer metrics of the traced round, per traced sample.

    Returns ``(metrics, profile shares, expected spans with no call, a line
    giving the bases of the ratios)``.  Spans of the cold pass and its
    replays are summed; the worker's spans count when they fall inside the
    sample's cold pass.
    """
    count = len(traced)
    stats: dict = {}
    counters: dict = {}
    cold_busy = 0.0
    waits: list[float] = []
    worker_events = {"worker.claim": 0.0, "worker.run": 0.0, "worker.idle": 0.0}
    for sample, sample_spans in zip(traced, spans):
        cold, warm = sample_spans["cold"], sample_spans["warm"]
        worker = worker_queues.get(str(workload.sample_dir(sample.index) / "queue"))
        parts = [cold, warm] + ([worker] if worker else [])
        cold_parts = [cold] + ([worker] if worker else [])
        for part in parts:
            _merge(stats, part["stats"])
            for name, value in part["counters"].items():
                counters[name] = counters.get(name, 0) + value
        for part in cold_parts:
            cold_busy += sum(
                part["stats"].get(name, [0, 0.0, 0.0])[1]
                for name in (
                    "runner.rep", "store.put", "store.get", "store.contains",
                    "queue.enqueue", "queue.poll",
                )
            )
        if worker:
            enqueued = {e["fp"]: e["end"] for e in cold["events"] if e["span"] == "queue.enqueue"}
            for span in worker_events:
                chosen = _in_window(worker["events"], sample.cold_window, span)
                worker_events[span] += sum(e["end"] - e["start"] for e in chosen)
                if span == "worker.claim":
                    waits += [e["end"] - enqueued[e["fp"]] for e in chosen if e["fp"] in enqueued]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[2]

    def calls(name: str) -> int:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cold_s = sum(s.cold_s for s in traced)
    construction = total("topology.deploy") + total("protocol.setup")
    slots_run = counters.get("soa.slots_run", 0)
    fallbacks = counters.get("soa.scalar_fallbacks", 0)
    busy_hits = counters.get("soa.busy_cache_hits", 0)
    busy_misses = counters.get("soa.busy_cache_misses", 0)
    telemetry = [s.telemetry for s in traced]
    store_hits = sum(s.store_hits for s in traced)
    store_misses = sum(s.store_misses for s in traced)
    values = {
        "topology.deploy_s": total("topology.deploy"),
        "schedule.build_s": total("schedule.build"),
        "linkstate.build_s": total("linkstate.build"),
        "linkstate.nnz": counters.get("linkstate.nnz", 0),
        "plan.build_s": total("plan.build"),
        "soa.compile_s": total("soa.compile"),
        "soa.slots_compiled": counters.get("soa.slots_compiled", 0),
        "soa.member_slots": counters.get("soa.member_slots", 0),
        "protocol.setup_s": self_time("protocol.setup"),
        "soa.run_s": total("soa.run"),
        "run.self_s": self_time("run"),
        "run.rounds": counters.get("run.rounds", 0),
        "soa.slots_run": slots_run,
        "soa.scalar_fallbacks": fallbacks,
        "soa.busy_cache_hits": busy_hits,
        "soa.busy_cache_misses": busy_misses,
        "runner.rep_s": total("runner.rep"),
        "runner.fingerprint_s": total("runner.fingerprint"),
        "runner.fingerprint_calls": calls("runner.fingerprint"),
        "fabric.attempts": sum(t["attempts"] for t in telemetry),
        "fabric.retries": sum(t["retries"] for t in telemetry),
        "fabric.failures": sum(t["timeouts"] + t["worker_crashes"] + t["exceptions"] for t in telemetry),
        "fabric.self_s": cold_s - cold_busy,
        "store.put_s": total("store.put"),
        "store.put_calls": calls("store.put"),
        "store.get_s": total("store.get"),
        "store.get_calls": calls("store.get"),
        "store.contains_s": total("store.contains"),
        "store.contains_calls": calls("store.contains"),
        "store.bytes": sum(s.store_bytes for s in traced),
        "queue.enqueue_s": total("queue.enqueue"),
        "queue.poll_s": total("queue.poll"),
        "queue.poll_sleeps": calls("queue.poll_sleep"),
        "queue.requeues": sum(t["lease_requeues"] for t in telemetry),
        "worker.claim_s": worker_events["worker.claim"],
        "worker.run_s": worker_events["worker.run"],
        "worker.idle_s": worker_events["worker.idle"],
        "experiments.self_s": self_time("experiments"),
        "linkcache.hits": sum(s.link_cache_hits for s in traced),
    }
    # Totals become per-sample figures; ratios use the totals.
    metrics = {name: value / count for name, value in values.items()}
    metrics.update(
        {
            "queue.wait_s": statistics.fmean(waits) if waits else 0.0,
            "construct.share": ratio(construction, cold_s),
            "run.rounds_per_s": ratio(counters.get("run.rounds", 0), total("run")),
            "soa.compiled_ratio": ratio(slots_run, slots_run + fallbacks),
            "soa.busy_cache_hit_ratio": ratio(busy_hits, busy_hits + busy_misses),
            "store.hit_ratio": ratio(store_hits, store_hits + store_misses),
        }
    )
    metrics.update({f"trace.overhead.{name}": value for name, value in overhead.items()})
    shares = {
        "construct.share": metrics["construct.share"],
        "round_loop.share": ratio(total("soa.run") + self_time("run"), cold_s),
        "fabric_queue_store.share": ratio(cold_s - total("runner.rep"), cold_s),
    }
    missing = [name for name in EXPECTED_SPANS[workload.name] if calls(name) == 0]
    bases = (
        f"busy_cache hits/misses={busy_hits}/{busy_misses} store hits/misses="
        f"{store_hits}/{store_misses} queue.wait_s over {len(waits)} jobs"
    )
    return metrics, shares, missing, bases


# -- the run -----------------------------------------------------------------------------------
def setup_probe(args) -> tuple[list, int]:
    """Set the workload up in a fresh interpreter.

    Returns its wall and CPU set-up time with the host speed during it, and
    its peak RSS.
    """
    command = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
        str(args.seed), "--size", args.size, "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record["setup"], record["peak_rss_kib"]


def check_samples(workload, samples, references: dict, serial: dict) -> list[str]:
    """Every way a sample's hash can be wrong, as messages (empty: correct)."""
    problems = []
    stored = references.get(workload.size, {}).get(workload.name, {})
    first: dict[int, str] = {}
    for sample in samples:
        where = f"sample {sample.index} (input {sample.key})"
        if sample.warm_hashes != [sample.cold_hash]:
            replayed = ",".join(h[:12] for h in sample.warm_hashes)
            problems.append(f"{where}: replay output {replayed} != cold {sample.cold_hash[:12]}")
        if sample.replay_attempts:
            problems.append(f"{where}: replay dispatched {sample.replay_attempts} job(s), expected 0")
        expected = first.setdefault(sample.key, sample.cold_hash)
        if sample.cold_hash != expected:
            problems.append(f"{where}: hash {sample.cold_hash[:12]} differs from an earlier sample's {expected[:12]}")
        reference = stored.get(str(sample.key))
        if reference is not None and sample.cold_hash != reference:
            problems.append(f"{where}: hash {sample.cold_hash[:12]} != stored reference {reference[:12]}")
        if sample.key in serial and sample.cold_hash != serial[sample.key]:
            problems.append(f"{where}: hash {sample.cold_hash[:12]} != serial in-process run {serial[sample.key][:12]}")
    return problems


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from hostspeed import SpeedSampler
    from workloads import WORKLOADS, QueueSweep, series_hash

    load_before = os.getloadavg()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, size=args.size)
    workdir.mkdir(parents=True)
    try:
        with SpeedSampler() as sampler:
            mark = sampler.mark()
            workload.setup()
            # Since the interpreter started, without the readings' own time.
            setup = [
                time.perf_counter() - STARTED - sampler.overhead_s,
                time.process_time() - sampler.overhead_s,
                sampler.speed_since(mark),
            ]
        if args.setup_probe:
            rss = workload.close()
            peak = max([peak_rss_kib(), *rss.values()])
            print(json.dumps({"setup": setup, "peak_rss_kib": peak}))
            return 0

        samples, spans, untraced = [], [], []

        def take(key, tracer=None):
            index = len(samples) + len(untraced)
            return workload.sample(key, index, tracer=tracer)

        if args.trace:
            for key in workload.keys():
                untraced.append(take(key)[0])
            tracer = tracing.Tracer()
            tracing.install(tracer, "submitter")
            try:
                for key in workload.keys():
                    sample, sample_spans = take(key, tracer)
                    samples.append(sample)
                    spans.append(sample_spans)
            finally:
                tracer.uninstall()
        else:
            rounds = 0
            begun = time.perf_counter()
            while True:
                for key in workload.keys():
                    samples.append(take(key)[0])
                rounds += 1
                # Stop when another round would overrun --seconds.
                elapsed = time.perf_counter() - begun
                if rounds >= workload.min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                    break
    finally:
        rss = workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    problems = []
    serial = {}
    if isinstance(workload, QueueSweep):
        for sample in samples + untraced:
            usage = workload.worker_usage(sample.index)
            if usage is None:
                problems.append(f"sample {sample.index}: the worker recorded no CPU time for its queue")
            else:
                sample.worker_cpu_s = usage["cpu_s"]
                sample.worker_speed_ms = usage["speed_ms"]
        for key in workload.keys():
            serial[key] = series_hash(workload.reference(key))
    rss["benchmark"] = peak_rss_kib()
    setups = [setup]
    if not args.trace:
        for _ in range(2):
            probe, probe_rss = setup_probe(args)
            setups.append(probe)
            rss["setup-probe"] = max(rss.get("setup-probe", 0), probe_rss)
    references = load_references(Path(args.references))
    problems += check_samples(workload, samples + untraced, references, serial)

    host = host_record()
    host["loadavg_before"] = list(load_before)
    host["peak_rss_mib"] = {name: round(kib / 1024.0, 1) for name, kib in rss.items()}
    if max(load_before[0], host["loadavg"][0]) > (host["nproc"] or 1):
        log(f"warning: load average {host['loadavg'][0]:.2f} exceeds nproc={host['nproc']}; timings are contended")

    print(f"perfbench {workload.name} seed={args.seed} size={args.size} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for sample in untraced + samples:
        reference = references.get(workload.size, {}).get(workload.name, {}).get(str(sample.key))
        print(
            f"sample {sample.index} input={sample.key} sweep_cpu_s={sample.cold_cpu_s + sample.worker_cpu_s:.4f} "
            f"replay_cpu_s={statistics.median(sample.warm_cpu_times):.4f} "
            f"sweep_wall_s={sample.cold_s:.4f} replay_wall_s={statistics.median(sample.warm_times):.4f} "
            f"speed_ms={sample.cold_speed_ms:.3f},{sample.warm_speed_ms:.3f}"
            f"{f',{sample.worker_speed_ms:.3f}' if sample.worker_cpu_s else ''} "
            f"scenarios={sample.scenarios} "
            f"hash={sample.cold_hash} "
            f"reference={'match' if reference == sample.cold_hash else 'none' if reference is None else 'DRIFT'}"
        )
    attempted = sum(s.telemetry["attempts"] for s in samples + untraced)
    failed = sum(
        s.telemetry["timeouts"] + s.telemetry["worker_crashes"] + s.telemetry["exceptions"]
        + s.telemetry["quarantined"]
        for s in samples + untraced
    )
    print(f"failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted} attempts)")
    for clock in ("cpu", "wall"):
        times = pass_times(samples, len(workload.keys()), clock)
        if clock == "wall":
            times["setup"] = statistics.median(wall for wall, _, _ in setups)
        print(f"{clock} " + " ".join(f"{name}_s={value:.6g}" for name, value in times.items()) + f" (n={len(samples)} samples)")
    speeds = [speed for s in untraced + samples for speed in (s.cold_speed_ms, s.warm_speed_ms)]
    print(f"host speed_ms {min(speeds):.3f}-{max(speeds):.3f} (mean reference turn per pass)")

    if args.trace:
        base = end_to_end(untraced, len(workload.keys()), setups, rss)
        traced = end_to_end(samples, len(workload.keys()), setups, rss)
        overhead = {
            name: traced[name] - base[name]
            for name in ("sweep_norm_s", "scenario_norm_s", "replay_norm_s")
        }
        worker_queues = workload.worker_spans() if isinstance(workload, QueueSweep) else {}
        metrics, shares, missing, bases = per_layer(workload, samples, spans, worker_queues, overhead)
        units = PER_LAYER
        for name in missing:
            problems.append(f"span coverage: {name} recorded no call on {workload.name}")
        if workload.name.startswith("flood") and metrics["linkcache.hits"]:
            problems.append("link-state cache hit in a flood sample: a previous sample's link state was reused")
        label, share, bound, sense = PROFILES[workload.name]
        value = shares[share]
        met = value <= bound if sense == "max" else value >= bound
        print(f"profile {label} = {value:.3f} (want {'<=' if sense == 'max' else '>='} {bound}) {'ok' if met else 'MISSED'}")
        print(f"bases {bases}")
    else:
        metrics = end_to_end(samples, len(workload.keys()), setups, rss)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]} (n={len(samples)} samples, {len(workload.keys())} inputs)")
    for problem in problems:
        log(f"error: {problem}")
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(argv: list[str]) -> int:
    """Run every workload in turn, each in its own interpreter, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    position = argv.index("--workload") + 1
    for name in WORKLOAD_NAMES:
        argv[position] = name
        done = subprocess.run([sys.executable, str(Path(__file__)), *argv], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            log(f"error: {name} printed no result (exit {done.returncode})")
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--references", default=str(REFERENCES), help="stored reference hashes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
        return 2
    if args.workload == "all":
        return run_all(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())

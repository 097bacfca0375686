"""A queue worker daemon for the ``queue-sweep`` workload.

Runs :func:`repro.service.worker.worker_loop` unchanged, on one queue
directory after another.  The benchmark names the current queue in a small
JSON control file (``{"queue": DIR, "trace": bool}`` or ``{"stop": true}``);
the worker reads it whenever it is idle, so it switches queues only between
jobs.  Before serving a queue it clears the engine's link-state cache, so no
sample reuses a previous sample's link state.

With ``"trace": true`` the worker-side layer spans of :mod:`tracing` are
installed: ``claim_next`` (``worker.claim``), ``run_claimed_job``
(``worker.run``), the repetition, store and simulation layers, and the idle
sleeps (``worker.idle``).  At exit the CPU seconds spent serving each queue
and the host's speed meanwhile (see ``hostspeed.py``), the spans of every
traced queue and the process's peak RSS are written as JSON to ``--out``.

Usage (started by ``perfbench/run.py``)::

    python3 perfbench/worker_shim.py --control CONTROL.json --out SPANS.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from workloads import QueueSweep  # noqa: E402

WORKER_ID = "perfbench-worker"

#: The worker exits at its next idle moment after this many seconds, or as
#: soon as its parent (the benchmark) is gone.
MAX_LIFETIME_SECONDS = 900.0
STARTED = time.monotonic()


class _Switch(Exception):
    """Raised from an idle sleep when the control file names another queue."""


def _orphaned(parent: int) -> bool:
    return os.getppid() != parent or time.monotonic() - STARTED > MAX_LIFETIME_SECONDS


def read_control(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf8"))
    except (OSError, ValueError):
        return {}


class _Controlled:
    """The worker module's ``time``, whose ``sleep`` watches the control file."""

    def __init__(self, control: Path, current: dict) -> None:
        self._control = control
        self._current = current
        self._parent = os.getppid()

    def __getattr__(self, attr):
        return getattr(time, attr)

    def sleep(self, seconds: float) -> None:
        if read_control(self._control) != self._current:
            raise _Switch
        if _orphaned(self._parent):
            self._current.clear()
            self._current["stop"] = True
            raise _Switch
        time.sleep(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--control", required=True, help="control file naming the queue")
    parser.add_argument("--out", required=True, help="where to write spans and peak RSS")
    args = parser.parse_args(argv)

    from repro.service import worker
    from repro.sim.engine import clear_link_cache

    control = Path(args.control)
    poll = QueueSweep.poll_interval
    tracer = tracing.Tracer()
    queues: dict[str, dict] = {}
    usage: dict[str, dict] = {}
    parent = os.getppid()
    try:
        while True:
            current = read_control(control)
            if current.get("stop") or _orphaned(parent):
                break
            queue_dir = current.get("queue")
            if not queue_dir:
                time.sleep(poll)
                continue
            clear_link_cache()
            gc.collect()
            worker.time = _Controlled(control, current)
            if current.get("trace"):
                tracing.install(tracer, "worker")
            before = tracer.snapshot()
            try:
                with SpeedSampler() as sampler:
                    mark = sampler.mark()
                    try:
                        worker.worker_loop(queue_dir, worker_id=WORKER_ID, poll_interval=poll)
                    except _Switch:
                        pass
                    usage[queue_dir] = {
                        "cpu_s": sampler.cpu_since(mark),
                        "speed_ms": sampler.speed_since(mark),
                    }
            finally:
                tracer.uninstall()
                worker.time = time
            if current.get("trace"):
                spans = tracing.diff(tracer.snapshot(), before)
                spans["events"] = tracer.events[before["events"]:]
                queues[queue_dir] = spans
            if current.get("stop"):
                break
    finally:
        record = {
            "queues": queues,
            "usage": usage,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        Path(args.out).write_text(json.dumps(record), encoding="utf8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

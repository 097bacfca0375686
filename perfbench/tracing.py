"""Outside-in span tracing around each layer's public entry points.

The benchmark traces the program from its own files: :func:`install` replaces
entry points with timing wrappers — methods on their classes, functions under
the names the calling module looks up — and :meth:`Tracer.uninstall` puts
the originals back.  Nothing under ``src/`` is edited, and an untraced run
has no wrapper installed at all.

Each span is aggregated by name into ``[calls, total_s, self_s]``; a span's
self time is its duration minus the time of the spans it directly encloses.
A span already open on the stack is not reopened (``super()`` chains and
dense/sparse fallbacks count once).  Job-level spans also keep one event per
call with its wall-clock start and end and the job fingerprint, so the
submitter's and the worker's spans can be merged by fingerprint.
"""

from __future__ import annotations

import time

import numpy as np

class _SleepCounter:
    """Stands in for the ``time`` module of one program module.

    Only ``sleep`` is traced (as span ``name``); every other attribute is
    looked up on the object it replaced.
    """

    def __init__(self, tracer: "Tracer", name: str, inner, event) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._event = event

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def sleep(self, seconds: float) -> None:
        self._tracer.call(self._name, self._inner.sleep, (seconds,), {}, self._event)


class Tracer:
    """Span aggregates, job events and counters of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs, event=None, skip_within=()):
        """Run ``fn(*args, **kwargs)`` inside span ``name``.

        No span is opened when ``name`` or a name in ``skip_within`` is
        already open.
        """
        stack = self._stack
        for frame in stack:
            if frame[0] == name or frame[0] in skip_within:
                return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        wall = time.time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        if event is not None:
            fingerprint = event(args, result)
            if fingerprint is not None:
                self.events.append(
                    {"span": name, "fp": fingerprint, "start": wall, "end": wall + elapsed}
                )
        return result

    def snapshot(self) -> dict:
        """A copy of the aggregates, for :func:`diff` against a later one."""
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "counters": dict(self.counters),
            "events": len(self.events),
        }

    # -- patching ------------------------------------------------------------------------
    def patch(
        self, owner, attr: str, name: str, *, event=None, after=None, skip_within=()
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(args, result)`` runs outside the span (counter collection);
        ``event(args, result)`` returns the job fingerprint to log with the
        span (``""`` for a span of no job), or ``None`` to log nothing.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs, event, skip_within)
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_generator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`patch` for a generator method: each ``next`` is one span."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (iterator,), {})
                except StopIteration:
                    return
                yield item

        wrapper.__name__ = original.__name__
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_sleep(self, module, name: str, *, event=None) -> None:
        """Trace ``module.time.sleep`` calls as span ``name``."""
        self._patches.append((module, "time", module.time))
        module.time = _SleepCounter(self, name, module.time, event)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def diff(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    stats = {}
    for name, entry in after["stats"].items():
        base = before["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [entry[i] - base[i] for i in range(3)]
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return {"stats": stats, "counters": counters}


# -- layer entry points ---------------------------------------------------------------------
def _subclasses(cls):
    seen = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer, side: str) -> None:
    """Wrap every layer entry point this process calls.

    ``side`` is ``"submitter"`` (the benchmark process) or ``"worker"`` (the
    queue worker daemon): queue polling is a submitter span, claiming and
    idling are worker spans, and the simulation and store layers are traced
    on both sides.
    """
    from repro.experiments import driver, factories
    from repro.sim import builder, engine, plan, radio, runner, soa
    from repro.store import shared, store
    from repro.topology import deployment

    for module in (deployment, factories):
        for attr in ("uniform_deployment", "clustered_deployment"):
            tracer.patch(module, attr, "topology.deploy")
    tracer.patch(builder, "build_schedule", "schedule.build")

    def count_nnz(args, state) -> None:
        if state is None:
            return
        if hasattr(state, "nnz"):
            tracer.count("linkstate.nnz", int(state.nnz))
        else:
            tracer.count("linkstate.nnz", int(np.count_nonzero(state)))

    for cls in _subclasses(radio.Channel):
        for attr in ("link_state", "link_state_sparse"):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                tracer.patch(cls, attr, "linkstate.build", after=count_nnz)
    tracer.patch(plan.SlotPlan, "__init__", "plan.build")
    tracer.patch(soa.SoaRuntime, "__init__", "soa.compile")
    tracer.patch(builder, "build_simulation", "protocol.setup")

    def after_run(args, result) -> None:
        simulation = args[0]
        tracer.count("run.rounds", result.total_rounds)
        info = simulation.plan_cache_info()["soa_kernels"]
        if info.get("enabled"):
            for key in (
                "slots_compiled",
                "member_slots",
                "slots_run",
                "scalar_fallbacks",
                "busy_cache_hits",
                "busy_cache_misses",
            ):
                tracer.count(f"soa.{key}", info[key])

    tracer.patch(engine.Simulation, "run", "run", after=after_run)
    tracer.patch(soa.SoaRuntime, "run_slot", "soa.run")

    tracer.patch(runner, "run_repetition", "runner.rep")
    tracer.patch(runner.SweepTask, "fingerprint", "runner.fingerprint")
    tracer.patch_generator(runner.SweepExecutor, "iter_jobs", "fabric.dispatch")
    for cls in (store.ResultStore, shared.SharedResultStore):
        for attr in ("get", "put", "contains"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, f"store.{attr}")

    if side == "submitter":
        from repro.service import backend, queue

        tracer.patch(
            queue.WorkQueue, "enqueue", "queue.enqueue", event=lambda args, out: out.fingerprint
        )
        # enqueue checks done_info itself; that check is enqueue time.
        tracer.patch(queue.WorkQueue, "done_info", "queue.poll", skip_within=("queue.enqueue",))
        tracer.patch(queue.WorkQueue, "requeue_expired", "queue.poll")
        tracer.patch_sleep(backend, "queue.poll_sleep")
        tracer.patch(driver, "run_spec", "experiments")
    else:
        from repro.service import queue, worker

        tracer.patch(worker, "run_repetition", "runner.rep")
        # The worker's spans are logged as events, so that the benchmark can
        # keep those inside a sample's cold pass.
        tracer.patch(
            queue.WorkQueue,
            "claim_next",
            "worker.claim",
            event=lambda args, job: job.fingerprint if job is not None else "",
        )
        tracer.patch(
            worker, "run_claimed_job", "worker.run", event=lambda args, status: args[2].fingerprint
        )
        tracer.patch_sleep(worker, "worker.idle", event=lambda args, result: "")

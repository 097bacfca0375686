"""How fast the host runs while a timed pass runs, read on the same CPU.

On a shared VM the same CPU-bound pass takes a varying number of CPU
seconds: on a 2-vCPU VM with nothing else running inside it, a fixed loop's
30 s medians ranged from 76 to 104 ms within five minutes, and the same FIG5
sweep (seed 100) took from 5.4 to 15.3 CPU seconds within an hour.
Wall time moves with it, and also counts the time the hypervisor ran other
guests on the vCPU.  So the benchmark times passes in CPU seconds and scales
them to a fixed host speed, read while the pass runs: every
:data:`PERIOD_S` a ``SIGALRM`` handler times one :func:`reference_turn`
between two bytecodes of the program.  The turns' own CPU time is kept
apart (:attr:`SpeedSampler.overhead_s`) and left out of the pass.  The
timer runs on wall-clock time: with a CPU-time timer (``ITIMER_PROF``)
armed, this kernel reads process CPU time in whole 4 ms ticks.

The scaling holds as far as a pass speeds up and slows down with the
reference turn.  File-system calls and polling follow it less closely, so
``queue-sweep``'s scaled figures still move a few percent with the host.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: CPU milliseconds of one :func:`reference_turn` at the speed the scaled
#: metrics refer to (about a 2-vCPU Xeon VM's on a busy host).
REFERENCE_MS = 4.0

#: Seconds between two readings: about 2% of a CPU-bound pass goes to them.
PERIOD_S = 0.2

_RNG = np.random.default_rng(0)
#: A fixed 150-node random graph and per-node thresholds for the turn's
#: flood; the sort's input and a buffer allocated once, so that no turn pays
#: for fresh pages.
_LINKS = _RNG.random((150, 150)) < 0.06
_THRESHOLDS = _RNG.random(150)
_SOURCE = _RNG.random(100_000)
_BUFFER = np.empty_like(_SOURCE)


def reference_turn() -> float:
    """CPU milliseconds of one turn of a fixed piece of work.

    The turn floods a small fixed graph round by round with numpy calls on
    small arrays and a dict of per-node counts, then sorts 100 000 floats:
    the kind of work the program's round loops and protocol set-up do, in
    code of the benchmark's own, so that a change to the program cannot
    change the turn.  A cache-resident integer loop tracked the program's
    speed less well: when the host slowed down, FIG5 took 2.4x its CPU time
    and that loop 2.0x.
    """
    started = time.process_time()
    informed = np.zeros(150, dtype=bool)
    informed[:3] = True
    counts = np.zeros(17, dtype=np.int64)
    heard: dict[int, int] = {}
    for step in range(120):
        senders = np.flatnonzero(informed & (_THRESHOLDS > (step % 10) / 10))
        reached = _LINKS[senders].any(axis=0) & ~informed
        informed |= reached
        np.add.at(counts, senders % 17, 1)
        for node in np.flatnonzero(reached).tolist():
            heard[node] = heard.get(node, 0) + step
        if informed.all():
            informed[3:] = False
    np.copyto(_BUFFER, _SOURCE)
    _BUFFER.sort()
    return (time.process_time() - started) * 1e3


def scaled(seconds: float, speed_ms: float) -> float:
    """CPU ``seconds`` read at ``speed_ms``, at the reference speed."""
    return seconds * REFERENCE_MS / speed_ms


class SpeedSampler:
    """Takes :func:`reference_turn` readings while a ``with`` block runs.

    Usage::

        with SpeedSampler() as sampler:
            mark = sampler.mark()
            run_the_pass()
            cpu_s = sampler.cpu_since(mark)
            speed_ms = sampler.speed_since(mark)
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.process_time()
        self.readings.append(reference_turn())
        self.overhead_s += time.process_time() - started

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return time.process_time() - self.overhead_s, len(self.readings)

    def cpu_since(self, mark: tuple[float, int]) -> float:
        """This process's CPU seconds since ``mark``, without the readings'."""
        return time.process_time() - self.overhead_s - mark[0]

    def speed_since(self, mark: tuple[float, int]) -> float:
        """The mean reading since ``mark``.

        A stretch too short to be interrupted gets five turns read after it.
        """
        readings = self.readings[mark[1]:]
        if not readings:
            readings = [reference_turn() for _ in range(5)]
        return statistics.fmean(readings)

"""Host speed reference: a fixed pure-Python probe timed next to the program.

On a shared virtual machine the same code runs at different speeds from
one moment to the next: other tenants of the host slow a vCPU by up to
1.75x for seconds to minutes at a time, and process time slows with wall
time, so the cause is contention for the shared caches, not descheduling.
A run that falls into a slow stretch reads slow from start to end, and
neither longer runs nor best-of-N replicates remove that.

The benchmark therefore times a fixed reference workload -- :func:`probe`,
which never touches the repository's code -- right next to every timed
span of the program, and reports each span at reference speed::

    normalised_s = cpu_s * (REFERENCE_S / median(probes next to the span)) ** sensitivity

Spans and probes are timed in the thread's CPU time, which leaves out
the moments the hypervisor runs another guest on the vCPU (steal time);
what is left is the slowdown of the shared caches, which the probe
measures.  A change to the program moves its time and leaves the probe
as it was, so it moves the normalised time by the same factor; a slow
stretch of the host moves both and cancels.  The probe does what the
simulator's cycle loop does -- random reads of dict-held records that
are no longer in the core's private cache, list append and pop, integer
arithmetic in the interpreter loop -- so contention slows it in step
with the engine, though less far; ``sensitivity`` is that ratio in log
terms, fitted per kind of span (see ``workloads.ENGINE_SENSITIVITY``).
Its table (about 13 MB) is larger than a core's L2 and is walked onward
from call to call, so a probe finds its records as cold after another
probe as after a block of the program.

:data:`REFERENCE_S` is the probe's time on an uncontended vCPU of the
machine the bounds were set on (a 2-vCPU x86-64 VM, CPython 3.11), so
there the normalised figures read as that machine's uncontended
seconds.  On other hardware they are seconds at that reference speed.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from time import perf_counter, thread_time

#: Probe time, in seconds, on an uncontended vCPU of the reference machine.
REFERENCE_S = 2.3e-3

_RECORDS = 40_000
_STEPS = 3_000

_rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_TABLE = [{"key": i, "items": [i, i + 1]} for i in range(_RECORDS)]
#: Peak-RSS KiB the probe's table adds to the process (subtracted from
#: the benchmark's memory figure).
TABLE_KIB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - _rss_before

_cursor = [12345]  # the walk goes on from call to call


def probe() -> float:
    """Seconds taken by one run of the reference workload."""
    table = _TABLE
    total = 0
    j = _cursor[0]
    start = thread_time()
    for _ in range(_STEPS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        record = table[j % _RECORDS]
        total += record["key"] + record["items"][1]
        record["items"].append(total)
        record["items"].pop()
    elapsed = thread_time() - start
    _cursor[0] = j
    return elapsed


def probes(n: int) -> list[float]:
    """``n`` probe times taken back to back."""
    return [probe() for _ in range(n)]


def normalise(raw_s: float, around: list[float], sensitivity: float = 1.0) -> float:
    """``raw_s`` at reference speed, given the probe times ``around`` it.

    ``sensitivity`` is how much more than the probe the timed code slows
    on a slow host, as an exponent: the code's time goes as the probe's
    time to that power.
    """
    return raw_s * scale(around, sensitivity)


def scale(around: list[float], sensitivity: float = 1.0) -> float:
    """Factor from host time to reference speed, given nearby probe times."""
    return (REFERENCE_S / statistics.median(around)) ** sensitivity


@dataclass
class Series:
    """Results and times of repeated calls (see :func:`series`)."""

    results: list
    wall: list[float]
    cpu: list[float]
    scale: list[float]
    probes: list[float]

    @property
    def norm(self) -> list[float]:
        """Each call's CPU time at reference speed."""
        return [c * k for c, k in zip(self.cpu, self.scale)]


def series(step, n: int, every: int = 1, span: int = 3,
           sensitivity: float = 1.0) -> Series:
    """Call ``step()`` ``n`` times, timing each call.

    A probe runs after every ``every`` calls and after the last one; call
    ``i`` is scaled by the ``span`` probes each side of its own.
    """
    results, wall, cpu, taken = [], [], [], []
    for i in range(1, n + 1):
        start, start_cpu = perf_counter(), thread_time()
        results.append(step())
        cpu.append(thread_time() - start_cpu)
        wall.append(perf_counter() - start)
        if i % every == 0 or i == n:
            taken.append(probe())
    factors = [scale(taken[max(0, j - span):j + span + 1], sensitivity)
               for j in (i // every for i in range(n))]
    return Series(results, wall, cpu, factors, taken)


class Timer:
    """Times spans of the program between runs of the probe.

    ``with timer.span() as s: ...`` runs ``edge`` probes before and
    after the block and leaves ``s.wall``, ``s.cpu``, ``s.scale`` and
    ``s.norm`` set.  The probe times are kept in :attr:`history` for the
    provenance line.
    """

    def __init__(self, edge: int = 3, sensitivity: float = 1.0) -> None:
        self.edge = edge
        self.sensitivity = sensitivity
        self.history: list[float] = []

    def span(self, sensitivity: float | None = None) -> "_Span":
        """A span scaled with ``sensitivity`` (default: the timer's)."""
        return _Span(self, self.sensitivity if sensitivity is None else sensitivity)


class _Span:
    wall: float
    cpu: float
    scale: float
    norm: float  # the span's CPU time at reference speed

    def __init__(self, timer: Timer, sensitivity: float) -> None:
        self._timer = timer
        self._sensitivity = sensitivity

    def __enter__(self) -> "_Span":
        self._before = probes(self._timer.edge)
        self._start, self._start_cpu = perf_counter(), thread_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = thread_time() - self._start_cpu
        self.wall = perf_counter() - self._start
        around = self._before + probes(self._timer.edge)
        self._timer.history.extend(around)
        self.scale = scale(around, self._sensitivity)
        self.norm = self.cpu * self.scale

"""Compile a scenario into a schedule: the cluster's discrete-event core.

Because every job's duration is fixed the moment it is drawn from the
mix, the entire scheduling history — arrivals, queueing, placement,
departures — is computable *without* simulating the network: a pure
discrete-event pass over arrival/finish events.  :func:`compile_scenario`
runs that pass and emits a pinned
:class:`~repro.workloads.spec.WorkloadSpec` (every started job carries
its exact ``node_list`` and ``start``/``stop`` cycles), so the network
simulation downstream is the stock
:class:`~repro.workloads.composite.CompositeTraffic` lifecycle — churn
literally rides on the workload layer, and two runs replaying the
same compiled schedule see bit-identical traffic.

Schedulers are pluggable: implement :class:`Scheduler` and register the
class in :data:`SCHEDULERS` (or via :func:`register_scheduler`).  The
built-ins are FCFS (strict queue order; head-of-line blocking is part
of what the scenario measures) and EASY backfill (head job gets a
count-based shadow reservation; later jobs may jump the queue when they
fit now and cannot delay the head).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.spec import ArrivalSpec, JobMix, ScenarioSpec
from repro.topology.dragonfly import Dragonfly
from repro.workloads.placement import place_one
from repro.workloads.spec import JobSpec, WorkloadSpec

_INF = float("inf")


@dataclass
class ScheduledJob:
    """One job's life through the cluster, as the scheduler saw it."""

    name: str
    size: int
    duration: int
    pattern: str
    load: float
    arrival: int
    start: int | None = None
    finish: int | None = None  # start + duration (may exceed the horizon)
    nodes: tuple[int, ...] | None = None
    owned: frozenset[int] = field(default_factory=frozenset)

    @property
    def wait(self) -> int | None:
        return None if self.start is None else self.start - self.arrival

    @property
    def slowdown(self) -> float | None:
        """Scheduling slowdown vs an isolated machine: (wait+run)/run.

        The isolated baseline starts immediately and runs for exactly
        ``duration`` cycles, so only queueing inflates this ratio;
        network interference is measured separately, per job, by the
        scenario runner's metrics.
        """
        if self.start is None:
            return None
        return (self.start - self.arrival + self.duration) / self.duration


class Machine:
    """Incremental placement state: which nodes are busy right now."""

    def __init__(self, topo: Dragonfly, policy: str, seed: int) -> None:
        self.topo = topo
        self.policy = policy
        self.rng = random.Random(seed)
        self.used: set[int] = set()

    @property
    def free_count(self) -> int:
        return self.topo.num_nodes - len(self.used)

    def try_place(self, job: ScheduledJob) -> bool:
        """Place ``job`` now if it fits; side-effect free on failure."""
        try:
            nodes, owned = place_one(
                self.topo, self.policy, self.used, job.size, job.name, self.rng
            )
        except ValueError:
            return False
        job.nodes, job.owned = nodes, owned
        return True

    def release(self, job: ScheduledJob) -> None:
        self.used.difference_update(job.owned)


class Scheduler:
    """Decides which queued jobs start when the machine changes state.

    ``schedule`` is called at every event time with the FIFO ``queue``
    (arrival order), the :class:`Machine`, and the currently ``running``
    jobs; it starts jobs by placing them and setting ``start``/``finish``
    and returns the list it started (the caller moves them to
    ``running``).  Implementations must be deterministic functions of
    their arguments and the machine's seeded RNG.
    """

    name = "base"

    def schedule(
        self, now: int, queue: list[ScheduledJob], machine: Machine,
        running: list[ScheduledJob],
    ) -> list[ScheduledJob]:
        raise NotImplementedError


class FCFSScheduler(Scheduler):
    """Strict arrival order: the queue head either starts or blocks all."""

    name = "fcfs"

    def schedule(self, now, queue, machine, running):
        started = []
        while queue and machine.try_place(queue[0]):
            job = queue.pop(0)
            job.start = now
            job.finish = now + job.duration
            started.append(job)
        return started

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__}>"


class EasyScheduler(FCFSScheduler):
    """EASY backfill: reserve for the head, backfill behind the shadow.

    When the head does not fit, it gets a *count-based* reservation: the
    shadow time is the earliest finish by which enough owned nodes free
    up.  A later job may start now iff it fits the machine and either
    finishes by the shadow time or needs no more than the nodes left
    spare at it — the classic aggressive-backfill rule.  Count-based
    shadow + policy-based actual placement means a backfill candidate
    that fits by count but not by policy (e.g. no whole free group under
    ``group-exclusive``) simply stays queued.
    """

    name = "easy"

    def schedule(self, now, queue, machine, running):
        started = super().schedule(now, queue, machine, running)
        if not queue:
            return started
        head = queue[0]
        shadow, spare = self._shadow(head, machine.free_count, running)
        for job in list(queue[1:]):
            if job.size > machine.free_count:
                continue
            by_shadow = now + job.duration <= shadow
            if not by_shadow and job.size > spare:
                continue
            if not machine.try_place(job):
                continue
            queue.remove(job)
            job.start = now
            job.finish = now + job.duration
            started.append(job)
            if not by_shadow:
                spare -= job.size
        return started

    @staticmethod
    def _shadow(
        head: ScheduledJob, free: int, running: list[ScheduledJob]
    ) -> tuple[float, int]:
        """(shadow time, nodes spare at it) for the blocked head job."""
        avail = free
        for job in sorted(running, key=lambda j: (j.finish, j.name)):
            avail += len(job.owned)
            if avail >= head.size:
                return float(job.finish), avail - head.size
        return _INF, free  # head never fits by count; backfill freely


#: Pluggable scheduler registry: name -> zero-arg factory.
SCHEDULERS: dict[str, type[Scheduler]] = {
    "fcfs": FCFSScheduler,
    "easy": EasyScheduler,
}


def register_scheduler(name: str, factory: type[Scheduler]) -> None:
    """Register a custom scheduler class under ``name``."""
    SCHEDULERS[name] = factory


# ----------------------------------------------------------------------
# Arrival realization
# ----------------------------------------------------------------------
def _draw(rng: random.Random, table: tuple) -> object:
    """One weighted draw from a ((value, weight), ...) table."""
    total = sum(w for _, w in table)
    x = rng.random() * total
    for value, w in table:
        x -= w
        if x < 0:
            return value
    return table[-1][0]


def _new_job(name: str, arrival: int, mix: JobMix, rng: random.Random) -> ScheduledJob:
    return ScheduledJob(
        name=name,
        size=int(_draw(rng, mix.sizes)),
        duration=int(_draw(rng, mix.durations)),
        pattern=str(_draw(rng, mix.patterns)),
        load=float(_draw(rng, mix.loads)),
        arrival=arrival,
    )


def _open_arrivals(arrivals: ArrivalSpec, horizon: int, rng: random.Random) -> list[int]:
    """Arrival cycles for the open (poisson / trace) processes."""
    if arrivals.kind == "trace":
        out, t = [], 0
        for gap in arrivals.interarrivals:
            t += gap
            if t >= horizon:
                break
            out.append(t)
        return out
    out, t = [], 0.0
    for _ in range(arrivals.jobs):
        t += rng.expovariate(arrivals.rate)
        if t >= horizon:
            break
        out.append(int(t))
    return out


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclass
class CompiledScenario:
    """The deterministic schedule a scenario spec expands to."""

    spec: ScenarioSpec
    jobs: list[ScheduledJob]  # arrival order, started or not
    workload: WorkloadSpec  # started jobs only, fully pinned
    utilization: list[tuple[int, int]]  # (cycle, busy nodes) steps
    mean_utilization: float  # node-cycles busy / node-cycles available
    makespan: int  # last departure (clamped to the horizon)

    @property
    def started(self) -> list[ScheduledJob]:
        return [j for j in self.jobs if j.start is not None]


def compile_scenario(spec: ScenarioSpec, topo: Dragonfly) -> CompiledScenario:
    """Run the scheduling discrete-event pass; no network involved.

    Jobs that never start before the horizon stay in the returned
    ``jobs`` list with ``start=None`` (censored: they count as queued
    forever in the fairness/slowdown picture but emit no traffic).
    """
    max_size = max(s for s, _ in spec.mix.sizes)
    if max_size > topo.num_nodes:
        raise ValueError(
            f"job size {max_size} exceeds the machine ({topo.num_nodes} nodes)"
        )
    arrival_rng = random.Random(spec.seed)
    mix_rng = random.Random(spec.seed ^ 0x51C3)
    scheduler = SCHEDULERS[spec.scheduler]()
    machine = Machine(topo, spec.placement, spec.placement_seed)
    horizon = spec.horizon

    jobs: list[ScheduledJob] = []
    queue: list[ScheduledJob] = []
    running: list[ScheduledJob] = []
    pending: list[ScheduledJob] = []  # not yet arrived, by arrival cycle
    seq = 0

    def submit(arrival: int) -> None:
        nonlocal seq
        job = _new_job(f"j{seq:04d}", arrival, spec.mix, mix_rng)
        seq += 1
        jobs.append(job)
        pending.append(job)

    if spec.arrivals.kind == "closed":
        for _ in range(spec.arrivals.jobs):
            t = int(arrival_rng.expovariate(spec.arrivals.rate))
            if t < horizon:
                submit(t)
        pending.sort(key=lambda j: (j.arrival, j.name))
    else:
        for t in _open_arrivals(spec.arrivals, horizon, arrival_rng):
            submit(t)

    while True:
        next_arrival = pending[0].arrival if pending else _INF
        next_finish = (
            min(j.finish for j in running) if running else _INF
        )
        now = min(next_arrival, next_finish)
        if now == _INF or now >= horizon:
            break
        # Departures first: freed nodes are visible to same-cycle
        # arrivals, and a closed slot resubmits the moment it finishes.
        for job in sorted(
            [j for j in running if j.finish == now],
            key=lambda j: j.name,
        ):
            running.remove(job)
            machine.release(job)
            if spec.arrivals.kind == "closed":
                gap = 1 + int(arrival_rng.expovariate(spec.arrivals.rate))
                if now + gap < horizon:
                    submit(now + gap)
                    pending.sort(key=lambda j: (j.arrival, j.name))
        while pending and pending[0].arrival == now:
            queue.append(pending.pop(0))
        running.extend(scheduler.schedule(now, queue, machine, running))

    started = [j for j in jobs if j.start is not None]
    workload_jobs = tuple(
        JobSpec(
            name=j.name,
            node_list=j.nodes,
            traffic="bernoulli",
            pattern=j.pattern,
            load=j.load,
            start=j.start,
            stop=j.finish,
        )
        for j in started
    )
    if not workload_jobs:
        raise ValueError(
            "scenario compiled to zero started jobs — raise the horizon, "
            "the arrival rate, or shrink the job sizes"
        )
    workload = WorkloadSpec(
        jobs=workload_jobs,
        placement=spec.placement,
        placement_seed=spec.placement_seed,
    )

    utilization, mean_util = _utilization(started, topo.num_nodes, horizon)
    makespan = max(min(j.finish, horizon) for j in started)
    return CompiledScenario(
        spec=spec,
        jobs=jobs,
        workload=workload,
        utilization=utilization,
        mean_utilization=mean_util,
        makespan=makespan,
    )


def _utilization(
    started: list[ScheduledJob], num_nodes: int, horizon: int
) -> tuple[list[tuple[int, int]], float]:
    """Step timeline of busy nodes (owned counts) and its time average."""
    deltas: dict[int, int] = {}
    for j in started:
        n = len(j.owned) if j.owned else len(j.nodes or ())
        deltas[j.start] = deltas.get(j.start, 0) + n
        stop = min(j.finish, horizon)
        deltas[stop] = deltas.get(stop, 0) - n
    steps: list[tuple[int, int]] = []
    busy = 0
    busy_node_cycles = 0
    prev = 0
    for cycle in sorted(deltas):
        busy_node_cycles += busy * (min(cycle, horizon) - prev)
        prev = min(cycle, horizon)
        busy += deltas[cycle]
        if not steps or steps[-1][1] != busy:
            steps.append((cycle, busy))
    busy_node_cycles += busy * (horizon - prev)
    return steps, busy_node_cycles / (num_nodes * horizon)


__all__ = [
    "CompiledScenario",
    "EasyScheduler",
    "FCFSScheduler",
    "Machine",
    "SCHEDULERS",
    "ScheduledJob",
    "Scheduler",
    "compile_scenario",
    "register_scheduler",
]

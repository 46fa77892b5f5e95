"""Running workloads and attributing the results back to jobs.

:func:`run_workload` executes one multi-job :class:`RunSpec` (a spec
whose ``workload`` field is set) with per-job metrics enabled and
returns a :class:`WorkloadResult`: the global :class:`LoadPoint`, one
LoadPoint per job (throughput normalized to the *job's* node count, so
it is directly comparable to an isolated run of the same job), Jain's
fairness index across job throughputs, and a job-by-job interference
matrix derived from per-job link occupancy.

Interference matrix
-------------------
During the measurement window every output channel counts the phits it
carried per job (``OutputChannel.job_phits``).  With ``u_i(c)`` the
per-cycle rate of job ``i`` on channel ``c``, the matrix entry

    M[i][j] = sum over router-to-router channels c of u_i(c) * u_j(c)

is the *channel-sharing energy* of the pair: it is large exactly when
both jobs load the same channels hard at the same time, zero when their
traffic never meets.  The diagonal measures a job's self-concentration
(how much it funnels onto few links).  The matrix is symmetric by
construction and routing-sensitive — OFAR's misrouting spreads a bully
job's phits over many channels, shrinking its row.

Slowdowns against an isolated baseline come from
:func:`isolated_spec` + :func:`job_slowdowns`: the baseline re-runs one
job alone on its *exact placed nodes*, so the only difference is the
other jobs' traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator
from repro.network.router import CODE_NODE
from repro.topology.dragonfly import Dragonfly
from repro.workloads.composite import CompositeTraffic
from repro.workloads.placement import place_jobs
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.store import ResultStore
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.sampler import TelemetrySeries

#: Store sidecar kind for cached WorkloadResults (see run_workload_cached).
SIDECAR_KIND = "workloads"

WORKLOAD_RESULT_FORMAT = 1


@dataclass
class JobResult:
    """One job's share of a workload run."""

    name: str
    num_nodes: int
    point: LoadPoint

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "point": self.point.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "JobResult":
        return cls(
            name=data["name"],
            num_nodes=data["num_nodes"],
            point=LoadPoint.from_jsonable(data["point"]),
        )


@dataclass
class WorkloadResult:
    """Everything one workload run produces, attributed per job."""

    total: LoadPoint
    jobs: list[JobResult]  # workload order == packet-tag job id order
    jain_across_jobs: float
    interference: list[list[float]]  # symmetric jobs x jobs matrix

    def job(self, name: str) -> JobResult:
        for jr in self.jobs:
            if jr.name == name:
                return jr
        raise KeyError(f"no job named {name!r}")

    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {
            "format": WORKLOAD_RESULT_FORMAT,
            "total": self.total.to_jsonable(),
            "jobs": [jr.to_jsonable() for jr in self.jobs],
            "jain_across_jobs": self.jain_across_jobs,
            "interference": self.interference,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "WorkloadResult":
        if data.get("format") != WORKLOAD_RESULT_FORMAT:
            raise ValueError(f"unknown WorkloadResult format {data.get('format')!r}")
        return cls(
            total=LoadPoint.from_jsonable(data["total"]),
            jobs=[JobResult.from_jsonable(j) for j in data["jobs"]],
            jain_across_jobs=data["jain_across_jobs"],
            interference=[list(row) for row in data["interference"]],
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_workload_sim(spec: RunSpec) -> Simulator:
    """Fresh simulator + composite generator for one workload spec."""
    if spec.workload is None:
        raise ValueError("spec.workload must be set to run a workload")
    config = spec.config
    sim = Simulator(config, record_per_source=True, record_per_job=True)
    sim.generator = CompositeTraffic(
        sim.network.topo, spec.workload, config.packet_size, config.seed
    )
    return sim


def total_offered_load(generator: CompositeTraffic, num_nodes: int) -> float:
    """Network-wide offered load implied by the jobs, phits/(node*cycle)."""
    return sum(
        job.offered_load * len(job.nodes) for job in generator.jobs
    ) / num_nodes


def run_workload(spec: RunSpec) -> WorkloadResult:
    """Warm up, measure, and attribute one multi-job spec."""
    sim = build_workload_sim(spec)
    sim.warm_up(spec.warmup)
    baseline = _job_phit_baseline(sim.network)
    sim.run(spec.measure)
    return _summarize(sim, baseline)


def run_workload_with_telemetry(
    spec: RunSpec, telemetry: "TelemetryConfig | None" = None
) -> tuple[WorkloadResult, "TelemetrySeries | None"]:
    """:func:`run_workload` with an in-run sampler over the measurement
    window; the WorkloadResult is bit-identical either way."""
    cfg = telemetry if telemetry is not None else spec.telemetry
    if cfg is None:
        return run_workload(spec), None
    from repro.telemetry.sampler import TelemetrySampler

    sim = build_workload_sim(spec)
    sim.warm_up(spec.warmup)
    baseline = _job_phit_baseline(sim.network)
    sampler = TelemetrySampler(sim, cfg)
    sampler.attach()
    sim.run(spec.measure)
    return _summarize(sim, baseline), sampler.finish()


def _job_phit_baseline(network) -> dict[tuple[int, int], dict[int, int]]:
    """Snapshot per-channel per-job phit counters at window start."""
    return {
        (rt.rid, ch.port): dict(ch.job_phits)
        for rt in network.routers
        for ch in rt.out
        if ch is not None and ch.kind_code != CODE_NODE
    }


def _summarize(
    sim: Simulator, baseline: dict[tuple[int, int], dict[int, int]]
) -> WorkloadResult:
    generator = sim.generator
    assert isinstance(generator, CompositeTraffic)
    metrics = sim.metrics
    num_nodes = sim.network.topo.num_nodes
    cycle = sim.cycle
    window = max(1, cycle - metrics.window_start)

    total = metrics.load_point(total_offered_load(generator, num_nodes), cycle)
    jobs = [
        JobResult(
            name=job.spec.name,
            num_nodes=len(job.nodes),
            point=metrics.job_load_point(
                job.index, job.offered_load, cycle, len(job.nodes)
            ),
        )
        for job in generator.jobs
    ]

    n_jobs = len(jobs)
    matrix = [[0.0] * n_jobs for _ in range(n_jobs)]
    for rt in sim.network.routers:
        for ch in rt.out:
            if ch is None or ch.kind_code == CODE_NODE or not ch.job_phits:
                continue
            base = baseline.get((rt.rid, ch.port), {})
            rates = [
                (job, (phits - base.get(job, 0)) / window)
                for job, phits in ch.job_phits.items()
                if phits - base.get(job, 0) > 0
            ]
            for a, (job_a, u_a) in enumerate(rates):
                for job_b, u_b in rates[a:]:
                    e = u_a * u_b
                    matrix[job_a][job_b] += e
                    if job_a != job_b:
                        matrix[job_b][job_a] += e

    return WorkloadResult(
        total=total,
        jobs=jobs,
        jain_across_jobs=jain_across_jobs([jr.point.throughput for jr in jobs]),
        interference=matrix,
    )


def jain_across_jobs(throughputs: list[float]) -> float:
    """Jain's fairness index over per-job per-node throughputs.

    Because each job's throughput is already normalized by its own node
    count, a big job and a small job receiving proportional service
    score as fair.  1.0 = perfectly fair; 1/n = one job gets everything;
    1.0 by convention when nothing flowed.
    """
    vals = [t for t in throughputs if not math.isnan(t)]
    total = sum(vals)
    if not vals or total == 0:
        return 1.0
    squares = sum(t * t for t in vals)
    return (total * total) / (len(vals) * squares)


# ----------------------------------------------------------------------
# Isolated baselines and slowdowns
# ----------------------------------------------------------------------
def isolated_spec(spec: RunSpec, job_name: str) -> RunSpec:
    """The spec that runs ``job_name`` *alone* on its exact placed nodes.

    Placement is resolved against the full workload and pinned via
    ``node_list``, so the isolated run differs from the shared run only
    by the other jobs' absence — the definition a slowdown needs.
    """
    if spec.workload is None:
        raise ValueError("spec.workload must be set")
    workload = spec.workload
    topo = Dragonfly(spec.config.h)
    placements = place_jobs(topo, workload)
    index = workload.job_index(job_name)
    pinned = replace(
        workload.jobs[index], nodes=0, node_list=placements[index]
    )
    return replace(
        spec,
        workload=WorkloadSpec(
            jobs=(pinned,),
            placement=workload.placement,
            placement_seed=workload.placement_seed,
        ),
    )


def job_slowdowns(
    shared: WorkloadResult, isolated: dict[str, WorkloadResult]
) -> dict[str, float]:
    """Per-job latency slowdown: shared latency / isolated latency.

    1.0 = no interference; NaN when either window measured nothing.
    """
    out: dict[str, float] = {}
    for jr in shared.jobs:
        base = isolated[jr.name].job(jr.name).point.avg_latency
        out[jr.name] = jr.point.avg_latency / base
    return out


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------
def run_workload_cached(
    spec: RunSpec, store: "ResultStore | None", use_cache: bool = True
) -> WorkloadResult:
    """:func:`run_workload` through the result store.

    The full :class:`WorkloadResult` is cached as a store *sidecar*
    (kind ``"workloads"``) keyed by the spec fingerprint; the global
    LoadPoint is additionally written to the main store so orchestrated
    sweeps over the same spec hit cache.  A hit round-trips through
    JSON, which is lossless — cached and fresh results are identical.
    """
    if store is not None and use_cache:
        payload = store.get_sidecar(SIDECAR_KIND, spec)
        if payload is not None:
            try:
                return WorkloadResult.from_jsonable(payload)
            except (ValueError, KeyError, TypeError):
                pass  # corrupt sidecar: recompute and overwrite
    result = run_workload(spec)
    if store is not None:
        store.put_sidecar(SIDECAR_KIND, spec, result.to_jsonable())
        store.put(spec, result.total)
    return result

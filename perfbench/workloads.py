"""The benchmark's workloads: two simulations and one campaign.

Every workload turns ``--seed`` into its inputs (RunSpecs or a campaign
file), runs them through the repository's public entry points, checks
the outputs, and returns a :class:`Result`.  Nothing here is tuned to a
seed: the seed only reaches the program through the generated inputs.

Sim workloads (``advh-h4-ofar``, ``un-h6-pb``) run a *job* of
:data:`POINTS` replicate points of one spec, in process.  A point is the
steady-state protocol of :func:`repro.engine.runner.run_spec` -- build,
warm up, measure -- taken the way a checkpointed point that is retried
takes it (``--snapshot-every``): after warm-up the state is saved
(:class:`repro.snapshot.Snapshot`), restored into a freshly built
simulator, and the measured window runs on that one, timed in blocks of
:data:`BLOCK` cycles.  Restored state is bit-identical (checked), so the
window simulates exactly what :func:`run_spec` would.

The campaign workload (``campaign-tiny-grid``) drains a 48-point grid
through ``repro.cli.main(["campaign", "run", ...])`` with two worker
processes into a fresh result store, then re-runs it against the same
store, where every point is a cache hit.

Every host time is reported at reference speed: it is timed between runs
of the :mod:`hostspeed` probe and scaled by how fast the probe ran next
to it, so that a slow stretch of a shared host does not read as a slow
program.  The raw medians go into the provenance line next to them.

The ``repro`` imports below need ``src`` on ``sys.path``; ``run.py`` puts
it there.  They happen at import so that no timed region pays for them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.campaign as campaign_mod
import repro.network.network as netmod
from repro import cli
from repro.analysis.bounds import min_adversarial_bound
from repro.analysis.store import ResultStore
from repro.campaign.spec import CampaignSpec
from repro.engine.config import SimulationConfig
from repro.engine.orchestrator import Orchestrator
from repro.engine.runner import build_steady_sim
from repro.engine.runspec import RunSpec
from repro.network.router import Router
from repro.snapshot import Snapshot

import hostspeed
from tracer import Tracer

#: Replicate points per sim job.  They share one spec, so they must end
#: in the same state digest -- a determinism check on every run.
POINTS = 4
#: Cycles per timed block of the measured window (``cycle_ms.*``).
BLOCK = 10
#: The host speed probe runs after every this many blocks; a block is
#: normalised by the probes of :data:`PROBE_SPAN` neighbours each side.
PROBE_EVERY = 4
PROBE_SPAN = 3
#: How the program's time follows the probe's on a slow host (exponent),
#: fitted on the reference machine as the slope of log raw time against
#: log probe time over 20 to 30 runs.  Work in the benchmark's own
#: process: 1.66 (h=4 window), 1.57 (h=6 window), 1.55 (cached re-run)
#: -- the program leans on the shared cache harder than the probe's
#: 13 MB table.  A fresh drain, whose workers run on both vCPUs while the
#: probe runs in the idle parent before and after: 0.67.  Building a
#: simulator or loading a campaign (allocation-heavy set-up): 1.0 -- two
#: sets of ten ``advh-h4-ofar`` runs gave setup medians 21% apart at 1.6
#: and 6% apart at 1.0.
ENGINE_SENSITIVITY = 1.6
DRAIN_SENSITIVITY = 0.67
BUILD_SENSITIVITY = 1.0

#: Campaign protocol: one fresh drain per this many ``--seconds``, each
#: followed by :data:`RESUMES` cached re-runs and :data:`COMPILES` timed
#: load-and-expand calls (``setup_s``).  Short operations are spread over
#: the run so that their medians sample more than one moment of the host.
DRAIN_SECONDS = 5.0
RESUMES = 10
COMPILES = 40
WORKERS = 2
SNAPSHOT_EVERY = 200
GRID_TEMPLATE = Path(__file__).with_name("campaign_grid.json")

#: Standard deviations of sampling noise allowed above the offered load
#: (see :func:`check_throughput`).
NOISE_SIGMAS = 4.0


class GateError(AssertionError):
    """A correctness check on the program's output failed."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass
class Result:
    """What a workload run measured, checked and fed in."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    inputs: dict
    workers: int = 1  # processes running points (the sim jobs run in process)
    details: dict = field(default_factory=dict)


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def check_throughput(load: float, throughput: float, ejected: int, what: str) -> None:
    """Accepted throughput must not exceed the offered load.

    A finite window measures a Bernoulli process, so the accepted rate of
    a network that keeps up scatters around the offered load with a
    relative standard deviation of about ``1/sqrt(packets)``; the gate
    allows :data:`NOISE_SIGMAS` of that and no more.
    """
    ceiling = load * (1.0 + NOISE_SIGMAS / max(ejected, 1) ** 0.5)
    gate(throughput <= ceiling,
         f"{what}: accepted throughput {throughput} exceeds offered load {load}")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest child, without
    the host speed probe's table (which forked children share)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - hostspeed.TABLE_KIB
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - hostspeed.TABLE_KIB
    return kib / 1024.0


def digest_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ======================================================================
# Simulation workloads
# ======================================================================
@dataclass(frozen=True)
class SimWorkload:
    routing: str
    pattern: str
    load: float
    h: int
    paper: bool  # SimulationConfig.paper (h=6, §V) vs .small(h)
    warmup: int
    #: Cycles/s used only to size the measured window from ``--seconds``;
    #: the window is a cycle count, so simulated results are exact for a
    #: given seed and budget whatever the host speed.
    nominal_cycles_per_s: float
    #: Accepted throughput must stay above MIN's ADV+h bound 1/(2h^2).
    adversarial_floor: bool = False

    def spec(self, seed: int, seconds: float):
        if self.paper:
            config = SimulationConfig.paper(routing=self.routing, seed=seed)
        else:
            config = SimulationConfig.small(h=self.h, routing=self.routing, seed=seed)
        cycles = self.nominal_cycles_per_s * seconds / POINTS
        measure = max(2 * BLOCK, int(cycles) // BLOCK * BLOCK)
        return RunSpec(config, self.pattern, self.load, self.warmup, measure)


@dataclass
class PointRun:
    #: Host seconds of each phase (``build``, ``warm_up``, ``capture``,
    #: ``rebuild``, ``restore``; checks and digests excluded), raw and at
    #: reference speed (:mod:`hostspeed`).
    phases: dict[str, float]
    phases_norm: dict[str, float]
    block_s: list[float]
    block_norm: list[float]
    probes: list[float]  # every probe time taken around this point
    point: object  # LoadPoint
    p99_latency: float
    digest: str

    @property
    def window_s(self) -> float:
        return sum(self.block_s)

    @property
    def wall_norm(self) -> float:
        return sum(self.phases_norm.values()) + sum(self.block_norm)

    @property
    def resume_norm(self) -> float:
        p = self.phases_norm
        return p["rebuild"] + p["restore"] + sum(self.block_norm)


def run_point(spec, tracer: Tracer | None = None) -> PointRun:
    """One steady-state point: build, warm up, checkpoint, resume, measure.

    With a ``tracer`` the first build and the measured window run traced
    (warm-up stays untraced); every wrapper is removed before the state
    digest is taken.
    """
    timer = hostspeed.Timer(sensitivity=ENGINE_SENSITIVITY)
    spans = {}
    gc.collect()
    with (tracer.active() if tracer else contextlib.nullcontext()):
        if tracer is not None:
            _trace_build(tracer)
        with timer.span(BUILD_SENSITIVITY) as spans["build"]:
            sim = build_steady_sim(spec)
    with timer.span() as spans["warm_up"]:
        sim.warm_up(spec.warmup)
    with timer.span() as spans["capture"]:
        snapshot = Snapshot.capture(sim)
    del sim
    gc.collect()
    with timer.span(BUILD_SENSITIVITY) as spans["rebuild"]:
        sim = build_steady_sim(spec)
    with timer.span() as spans["restore"]:
        snapshot.restore_into(sim)
    gate(sim.state_digest() == snapshot.digest(),
         "restored simulator differs from its checkpoint")
    del snapshot
    run = sim.run
    with (tracer.active() if tracer else contextlib.nullcontext()):
        if tracer is not None:
            _trace_window(tracer, sim)
        window = hostspeed.series(lambda: run(BLOCK), spec.measure // BLOCK,
                                  every=PROBE_EVERY, span=PROBE_SPAN,
                                  sensitivity=ENGINE_SENSITIVITY)
    point = sim.metrics.load_point(spec.load, sim.cycle)
    sim.network.check_conservation()
    width = sim.metrics.histogram_bucket
    p99 = interpolated_percentile(sim.metrics.latency_histogram, width, 0.99)
    gate(point.p99_latency - width <= p99 <= point.p99_latency,
         f"p99 latency {p99} outside the LoadPoint's bucket ending at {point.p99_latency}")
    return PointRun(
        phases={k: s.wall for k, s in spans.items()},
        phases_norm={k: s.norm for k, s in spans.items()},
        block_s=window.wall, block_norm=window.norm,
        probes=timer.history + window.probes, point=point, p99_latency=p99,
        digest=sim.state_digest(),
    )


def interpolated_percentile(histogram: dict[int, int], width: int, fraction: float) -> float:
    """Latency percentile, interpolated linearly inside its histogram bucket.

    The LoadPoint reports the upper edge of the bucket, which at these
    scales reads the same on every seed; interpolating keeps the metric
    exact for a seed but as fine-grained as the histogram allows.
    """
    target = fraction * sum(histogram.values())
    seen = 0
    for bucket in sorted(histogram):
        count = histogram[bucket]
        if seen + count >= target:
            return (bucket + (target - seen) / count) * width
        seen += count
    return 0.0


def _trace_build(tracer: Tracer) -> None:
    tracer.patch(netmod, "Dragonfly", lambda f: tracer.timed("topology.dragonfly", f))
    tracer.patch(netmod, "HamiltonianRing", lambda f: tracer.timed("topology.ring", f))
    tracer.patch(netmod.Network, "__init__", lambda f: tracer.timed("network.build", f))


def _trace_window(tracer: Tracer, sim) -> None:
    network, routing, generator = sim.network, sim.routing, sim.generator

    def on_grants(grants: int) -> None:
        tracer.tally("network.allocate.grants", grants)
        if not grants:
            tracer.tally("network.allocate.idle")

    def on_route(request) -> None:
        if request is None:
            tracer.tally("routing.route.none")

    def on_packets(packets) -> None:
        tracer.tally("traffic.packets", len(packets))

    def on_try_inject(accepted: bool) -> None:
        if accepted:
            tracer.tally("network.try_inject.accepted")

    t = tracer
    t.patch(network, "process_events", lambda f: t.timed("network.process_events", f))
    t.patch(routing, "tick", lambda f: t.timed("routing.tick", f))
    t.patch(generator, "packets_for_cycle",
            lambda f: t.timed("traffic.packets_for_cycle", f, on_packets))
    t.patch(sim, "_inject", lambda f: t.timed("engine.inject", f))
    t.patch(routing, "on_inject", lambda f: t.timed("routing.on_inject", f))
    t.patch(network, "try_inject", lambda f: t.counted("network.try_inject", f, on_try_inject))
    t.patch(Router, "allocate", lambda f: t.timed("network.allocate", f, on_grants))
    t.patch(routing, "route", lambda f: t.timed("routing.route", f, on_route))
    t.patch(network, "execute_grant", lambda f: t.timed("network.execute_grant", f))


#: Spans inside the measured window; their self times plus
#: ``engine.step.other_s`` add up to the traced window.
WINDOW_SPANS = (
    "network.process_events", "routing.tick", "traffic.packets_for_cycle",
    "engine.inject", "routing.on_inject", "network.allocate",
    "routing.route", "network.execute_grant",
)


def _check_point(workload: SimWorkload, spec, run: PointRun) -> None:
    throughput = run.point.throughput
    check_throughput(spec.load, throughput, run.point.ejected_packets, spec.label())
    if workload.adversarial_floor:
        floor = min_adversarial_bound(workload.h)
        gate(throughput > floor,
             f"accepted throughput {throughput} not above MIN's ADV+h bound {floor}")


def _same(a, b) -> bool:
    """Equal LoadPoints (compared in JSON form, where NaN equals NaN)."""
    return json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())


def run_sim(workload: SimWorkload, seed: int, seconds: float) -> Result:
    spec = workload.spec(seed, seconds)
    runs = []
    for _ in range(POINTS):
        run = run_point(spec)
        _check_point(workload, spec, run)
        runs.append(run)
    first = runs[0]
    for run in runs[1:]:
        gate(run.digest == first.digest and _same(run.point, first.point),
             "replicate points of one spec ended in different states")
    blocks_ms = [b * 1000.0 / BLOCK for r in runs for b in r.block_norm]
    walls = [r.wall_norm for r in runs]
    setups = [r.phases_norm[k] for r in runs for k in ("build", "rebuild")]
    metrics = {
        "setup_s": statistics.median(setups),
        "cycles_per_s": POINTS * spec.measure / sum(sum(r.block_norm) for r in runs),
        "cycle_ms.p50": statistics.median(blocks_ms),
        "cycle_ms.p95": quantile(blocks_ms, 95),
        "peak_rss_mb": peak_rss_mb(),
        "campaign_s": sum(walls),
        "resume_s": statistics.median(r.resume_norm for r in runs),
        "point_s.p50": statistics.median(walls),
        "point_s.p75": quantile(walls, 75),
        "sim_throughput": first.point.throughput,
        "sim_latency_avg": first.point.avg_latency,
        "sim_latency_p99": first.p99_latency,
    }
    raw_ms = [b * 1000.0 / BLOCK for r in runs for b in r.block_s]
    return Result(
        metrics, attempted=POINTS, failed=0,
        inputs={"spec": spec.to_jsonable(), "fingerprint": spec.fingerprint()},
        details={"state_digest": first.digest, "blocks": len(blocks_ms),
                 "setup_samples": len(setups),
                 "raw": {"cycles_per_s": POINTS * spec.measure / sum(r.window_s for r in runs),
                         "cycle_ms.p50": statistics.median(raw_ms),
                         "setup_s": statistics.median(
                             r.phases[k] for r in runs for k in ("build", "rebuild"))},
                 "probe_s": _probe_summary([p for r in runs for p in r.probes])},
    )


def _probe_summary(probes: list[float]) -> dict:
    q = statistics.quantiles(probes, n=4)
    return {"n": len(probes), "p25": q[0], "p50": q[1], "p75": q[2],
            "reference": hostspeed.REFERENCE_S}


def trace_sim(workload: SimWorkload, seed: int, seconds: float) -> Result:
    """One untraced and one traced point of the same spec."""
    spec = workload.spec(seed, seconds)
    plain = run_point(spec)
    _check_point(workload, spec, plain)
    tracer = Tracer()
    traced = run_point(spec, tracer)
    _check_point(workload, spec, traced)
    gate(traced.digest == plain.digest,
         "traced and untraced runs ended in different states")
    gate(_same(traced.point, plain.point), "tracing changed the simulated results")
    t = tracer
    grants = t.counts.get("network.allocate.grants", 0)
    accounted = sum(t.self_time(name) for name in WINDOW_SPANS)
    other = traced.window_s - accounted
    gate(other >= 0, f"spans cover more than the traced window ({other} s)")
    metrics = {
        "routing.route.s": t.total("routing.route"),
        "routing.route.calls": t.calls("routing.route"),
        "routing.route.none_ratio": _ratio(t.counts.get("routing.route.none", 0),
                                           t.calls("routing.route")),
        "routing.route.calls_per_grant": _ratio(t.calls("routing.route"), grants),
        "network.allocate.self_s": t.self_time("network.allocate"),
        "network.allocate.calls": t.calls("network.allocate"),
        "network.allocate.grants": grants,
        "network.allocate.idle_ratio": _ratio(t.counts.get("network.allocate.idle", 0),
                                              t.calls("network.allocate")),
        "network.execute_grant.s": t.total("network.execute_grant"),
        "network.execute_grant.calls": t.calls("network.execute_grant"),
        "network.process_events.s": t.total("network.process_events"),
        "network.process_events.calls": t.calls("network.process_events"),
        "traffic.packets_for_cycle.s": t.total("traffic.packets_for_cycle"),
        "traffic.packets": t.counts.get("traffic.packets", 0),
        "engine.inject.s": t.self_time("engine.inject"),
        "network.try_inject.calls": t.counts.get("network.try_inject", 0),
        "network.try_inject.accept_ratio": _ratio(
            t.counts.get("network.try_inject.accepted", 0),
            t.counts.get("network.try_inject", 0)),
        "routing.on_inject.s": t.total("routing.on_inject"),
        "routing.on_inject.calls": t.calls("routing.on_inject"),
        "routing.tick.s": t.total("routing.tick"),
        "routing.tick.calls": t.calls("routing.tick"),
        "topology.build_s": t.total("topology.dragonfly") + t.total("topology.ring"),
        "network.build_s": t.self_time("network.build"),
        "engine.step.other_s": other,
        "trace.overhead": sum(traced.block_norm) / sum(plain.block_norm) - 1.0,
        **dict.fromkeys(CAMPAIGN_LAYER_METRICS, 0.0),
    }
    return Result(
        metrics, attempted=2, failed=0,
        inputs={"spec": spec.to_jsonable(), "fingerprint": spec.fingerprint()},
        details={"state_digest": plain.digest, "window_s": traced.window_s,
                 "untraced_window_s": plain.window_s, "trace": tracer.to_jsonable()},
    )


#: Per-layer metrics of one kind of workload; the other kind does no
#: work in those layers and reports them as 0.
SIM_LAYER_METRICS = (
    "routing.route.s", "routing.route.calls", "routing.route.none_ratio",
    "routing.route.calls_per_grant", "network.allocate.self_s",
    "network.allocate.calls", "network.allocate.grants",
    "network.allocate.idle_ratio", "network.execute_grant.s",
    "network.execute_grant.calls", "network.process_events.s",
    "network.process_events.calls", "traffic.packets_for_cycle.s",
    "traffic.packets", "engine.inject.s", "network.try_inject.calls",
    "network.try_inject.accept_ratio", "routing.on_inject.s",
    "routing.on_inject.calls", "routing.tick.s", "routing.tick.calls",
    "topology.build_s", "network.build_s", "engine.step.other_s",
)
CAMPAIGN_LAYER_METRICS = (
    "orchestrator.run_s", "executor.busy_ratio", "store.put.s",
    "store.put.calls", "store.get.s", "store.get.calls", "store.hit_ratio",
    "campaign.emit_s", "campaign.compile_s",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ======================================================================
# Campaign workload
# ======================================================================
def _write_grid(seed: int, workdir: Path) -> tuple[Path, dict]:
    grid = json.loads(GRID_TEMPLATE.read_text())
    grid["config"] = {"seed": seed}
    path = workdir / "campaign.json"
    path.write_text(json.dumps(grid, indent=1))
    return path, grid


def _cli(argv: list[str]) -> str:
    """``repro.cli.main(argv)`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


@dataclass
class Drain:
    wall_s: float
    text: str
    csv: dict[str, bytes]


def _drain(path: Path, store: Path, out: Path) -> Drain:
    start = perf_counter()
    text = _cli(["campaign", "run", str(path), "--workers", str(WORKERS),
                 "--store", str(store), "--snapshot-every", str(SNAPSHOT_EVERY),
                 "--out", str(out)])
    wall = perf_counter() - start
    csv = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return Drain(wall, text, csv)


def _summary_counts(text: str) -> tuple[int, int, int, int]:
    """(total, run, cached, failed) from the campaign summary line."""
    head = text.splitlines()[0]
    # "[campaign NAME] 48 points: 48 run, 0 cached, 0 failed"
    body = head.split("] ", 1)[1]
    total = int(body.split(" points:")[0])
    parts = dict(reversed(p.strip().split(" ")) for p in body.split(":", 1)[1].split(","))
    return total, int(parts["run"]), int(parts["cached"]), int(parts["failed"])


def _store_points(store: Path) -> list[dict]:
    """Every entry the drain wrote (spec, LoadPoint, per-point wall time)."""
    return [json.loads(p.read_text()) for p in sorted((store / "objects").glob("*/*.json"))]


def _check_store(store: Path, points: int) -> list[dict]:
    bad = ResultStore(store).verify()
    gate(not bad, f"result store failed verification: {bad[:3]}")
    entries = _store_points(store)
    gate(len(entries) == points, f"store holds {len(entries)} of {points} points")
    # The check is on the campaign's sim_throughput (the mean over its
    # points), not point by point: a 400-cycle window of a 72-node network
    # can accept more than was offered in it when it drains a warm-up
    # backlog (seen: 0.228 at 0.2, 35 backlog packets of 822 ejected).
    check_throughput(statistics.fmean(e["spec"]["load"] for e in entries),
                     statistics.fmean(e["point"]["throughput"] for e in entries),
                     sum(e["point"]["ejected_packets"] for e in entries), "campaign")
    return entries


def _compile(path: Path):
    return campaign_mod.load_campaign(path).expand()


def _campaign_inputs(grid: dict, points) -> dict:
    fingerprints = [p.spec.fingerprint() for p in points]
    return {"campaign": grid, "fingerprint": digest_json(fingerprints)}


def _fresh_drain(path: Path, store: Path, out: Path) -> tuple[Drain, float]:
    """A fresh drain and its wall time at reference speed."""
    with hostspeed.Timer(edge=10, sensitivity=DRAIN_SENSITIVITY).span() as span:
        drain = _drain(path, store, out)
    return drain, drain.wall_s * span.scale


def _at_reference(calls: hostspeed.Series, raw: list[float]) -> list[float]:
    """``raw`` times of the calls in ``calls`` at reference speed."""
    return [r * k for r, k in zip(raw, calls.scale)]


def run_campaign(seed: int, seconds: float, workdir: Path) -> Result:
    path, grid = _write_grid(seed, workdir)
    points = _compile(path)
    n = len(points)
    drains = max(1, round(seconds / DRAIN_SECONDS))
    compiles, drain_s, resume_s, point_s, ms_per_cycle, rates = [], [], [], [], [], []
    raw = {"campaign_s": [], "resume_s": []}
    attempted = failed = 0
    reference = None
    for d in range(drains):
        store = workdir / f"store{d}"
        fresh, wall = _fresh_drain(path, store, workdir / f"out{d}")
        total, ran, cached, bad = _summary_counts(fresh.text)
        attempted += total
        failed += bad
        gate((total, ran, cached, bad) == (n, n, 0, 0),
             f"fresh drain resolved {ran}/{total} points ({cached} cached, {bad} failed)")
        entries = _check_store(store, n)
        speed = wall / fresh.wall_s
        cycles = [e["spec"]["warmup"] + e["spec"]["measure"] for e in entries]
        walls = [e["wall_time"] * speed for e in entries]
        point_s += walls
        ms_per_cycle += [1000.0 * w / c for w, c in zip(walls, cycles)]
        rates.append(sum(cycles) / wall)
        drain_s.append(wall)
        raw["campaign_s"].append(fresh.wall_s)
        if reference is None:
            reference = (fresh.csv, entries)
        gate(fresh.csv == reference[0], "drains of one grid emitted different tables")
        again = hostspeed.series(lambda: _drain(path, store, workdir / f"again{d}"), RESUMES,
                                 sensitivity=ENGINE_SENSITIVITY)
        for rerun in again.results:
            total, ran, cached, bad = _summary_counts(rerun.text)
            attempted += total
            failed += bad
            gate((total, ran, cached, bad) == (n, 0, n, 0),
                 f"cached re-run resolved {cached}/{total} points from the store")
            gate(rerun.csv == fresh.csv, "cached re-run emitted different tables")
        walls = [r.wall_s for r in again.results]
        resume_s += _at_reference(again, walls)
        raw["resume_s"] += walls
        _check_store(store, n)
        compiles += hostspeed.series(lambda: _compile(path), COMPILES,
                                     sensitivity=BUILD_SENSITIVITY).norm
    entries = reference[1]
    metrics = {
        "setup_s": statistics.median(compiles),
        "cycles_per_s": statistics.median(rates),
        "cycle_ms.p50": statistics.median(ms_per_cycle),
        "cycle_ms.p95": quantile(ms_per_cycle, 95),
        "peak_rss_mb": peak_rss_mb(children=True),
        "campaign_s": statistics.median(drain_s),
        "resume_s": statistics.median(resume_s),
        "point_s.p50": statistics.median(point_s),
        "point_s.p75": quantile(point_s, 75),
        "sim_throughput": statistics.fmean(e["point"]["throughput"] for e in entries),
        "sim_latency_avg": statistics.fmean(e["point"]["avg_latency"] for e in entries),
        "sim_latency_p99": statistics.fmean(e["point"]["p99_latency"] for e in entries),
    }
    return Result(
        metrics, attempted=attempted, failed=failed,
        inputs=_campaign_inputs(grid, points), workers=WORKERS,
        details={"points": n, "drains": drains, "resumes": len(resume_s),
                 "point_samples": len(point_s),
                 "raw": {k: statistics.median(v) for k, v in raw.items()}},
    )


def trace_campaign(seed: int, seconds: float, workdir: Path) -> Result:
    """One untraced drain + re-run, then the same traced on a fresh store."""
    path, grid = _write_grid(seed, workdir)
    points = _compile(path)
    n = len(points)
    plain, plain_wall = _fresh_drain(path, workdir / "plain", workdir / "plain_out")
    gate(_summary_counts(plain.text) == (n, n, 0, 0), "untraced drain did not run every point")

    drain_tracer, resume_tracer = Tracer(), Tracer()
    results: list = []

    def keep_results(out) -> None:
        results.extend(out)

    def install(t: Tracer) -> None:
        t.patch(Orchestrator, "run", lambda f: t.timed("orchestrator.run", f, keep_results))
        t.patch(ResultStore, "put", lambda f: t.timed("store.put", f))
        t.patch(ResultStore, "get", lambda f: t.timed(
            "store.get", f, lambda p: t.tally("store.hit") if p is not None else None))
        t.patch(campaign_mod, "emit", lambda f: t.timed("campaign.emit", f))
        t.patch(campaign_mod, "load_campaign", lambda f: t.timed("campaign.load", f))
        t.patch(CampaignSpec, "expand", lambda f: t.timed("campaign.expand", f))

    store = workdir / "traced"
    with drain_tracer.active():
        install(drain_tracer)
        fresh, fresh_wall = _fresh_drain(path, store, workdir / "traced_out")
    gate(_summary_counts(fresh.text) == (n, n, 0, 0), "traced drain did not run every point")
    gate(fresh.csv == plain.csv, "traced and untraced drains emitted different tables")
    busy = sum(r.wall_time for r in results)
    with resume_tracer.active():
        install(resume_tracer)
        again = _drain(path, store, workdir / "traced_again")
    gate(_summary_counts(again.text) == (n, 0, n, 0), "cached re-run missed the store")
    gate(again.csv == fresh.csv, "cached re-run emitted different tables")
    _check_store(store, n)
    d, r = drain_tracer, resume_tracer
    metrics = {
        "orchestrator.run_s": d.total("orchestrator.run"),
        "executor.busy_ratio": busy / (WORKERS * fresh.wall_s),
        "store.put.s": d.total("store.put"),
        "store.put.calls": d.calls("store.put"),
        "store.get.s": r.total("store.get"),
        "store.get.calls": r.calls("store.get"),
        "store.hit_ratio": _ratio(r.counts.get("store.hit", 0), r.calls("store.get")),
        "campaign.emit_s": r.total("campaign.emit"),
        "campaign.compile_s": d.total("campaign.load") + d.total("campaign.expand"),
        "trace.overhead": fresh_wall / plain_wall - 1.0,
        **dict.fromkeys(SIM_LAYER_METRICS, 0.0),
    }
    return Result(
        metrics, attempted=3 * n, failed=0, inputs=_campaign_inputs(grid, points),
        workers=WORKERS,
        details={"drain_s": fresh.wall_s, "untraced_drain_s": plain.wall_s,
                 "resume_s": again.wall_s,
                 "trace": {"drain": d.to_jsonable(), "resume": r.to_jsonable()}},
    )


# ======================================================================
SIM_WORKLOADS = {
    # Allocation-bound: OFAR's in-transit routing under ADV+h below its
    # knee; Router.allocate takes ~3/4 of step time and route() runs
    # about twice per grant (credit-stalled heads are re-asked).
    "advh-h4-ofar": SimWorkload(
        routing="ofar", pattern="ADV+4", load=0.20, h=4, paper=False,
        warmup=300, nominal_cycles_per_s=330.0, adversarial_floor=True,
    ),
    # Paper scale (§V, 5,256 nodes): light allocation, per-cycle fixed
    # cost (event wheel over 100-cycle links, Bernoulli generation over
    # every node, PB's injection decision and broadcast tick).
    "un-h6-pb": SimWorkload(
        routing="pb", pattern="UN", load=0.05, h=6, paper=True,
        warmup=300, nominal_cycles_per_s=420.0,
    ),
}

WORKLOADS = (*SIM_WORKLOADS, "campaign-tiny-grid")


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Run workload ``name``: timed (end-to-end) or traced (per-layer)."""
    if name in SIM_WORKLOADS:
        return (trace_sim if trace else run_sim)(SIM_WORKLOADS[name], seed, seconds)
    return (trace_campaign if trace else run_campaign)(seed, seconds, workdir)

"""Mid-run checkpointing for orchestrated points.

:func:`run_spec_checkpointed` is a drop-in for
:func:`~repro.engine.runner.run_spec` that periodically saves the full
simulator state (atomic writes, result-store layout) and, on a rerun,
resumes from the last checkpoint instead of cycle 0.  Because the
snapshot codec is bit-exact, the resumed run produces the *identical*
LoadPoint (and WorkloadResult, and telemetry series) an uninterrupted
run would — crash recovery without a reproducibility tax.

Checkpoints live beside the other store objects::

    <store>/snapshots/<fp[:2]>/<fp>.json

keyed by the spec fingerprint, so each point owns exactly one
checkpoint slot (newer saves atomically replace older ones).  A
corrupt, foreign or version-mismatched checkpoint reads as a miss —
the point restarts from cycle 0, never errors.  On success the
checkpoint is deleted: the completed result supersedes it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.snapshot.codec import SnapshotError
from repro.snapshot.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import LoadPoint
    from repro.engine.runspec import RunSpec

#: Store subdirectory holding mid-run checkpoints.
CHECKPOINT_KIND = "snapshots"


class Preempted(Exception):
    """Raised by :func:`run_spec_checkpointed` when its ``should_stop``
    callback fires: the in-flight point was checkpointed at the current
    cycle and can resume bit-identically — the run was preempted, not
    failed.  Carries the spec fingerprint and the checkpoint cycle."""

    def __init__(self, fingerprint: str, cycle: int) -> None:
        super().__init__(f"preempted at cycle {cycle} ({fingerprint[:12]})")
        self.fingerprint = fingerprint
        self.cycle = cycle


def checkpoint_path(store_root: str | os.PathLike, fingerprint: str) -> Path:
    """``<store>/snapshots/<fp[:2]>/<fp>.json`` — the store's sharded
    layout, one slot per spec."""
    return Path(store_root) / CHECKPOINT_KIND / fingerprint[:2] / f"{fingerprint}.json"


def load_checkpoint(
    store_root: str | os.PathLike, spec: "RunSpec"
) -> Optional[Snapshot]:
    """The spec's checkpoint, or None on any kind of miss.

    Same corruption tolerance as the result store: unreadable JSON, a
    foreign format version, or a checkpoint whose embedded spec does not
    match all read as "no checkpoint".
    """
    path = checkpoint_path(store_root, spec.fingerprint())
    try:
        snap = Snapshot.load(path)
    except (OSError, ValueError, KeyError, TypeError, SnapshotError):
        return None
    if snap.state.get("spec") != spec.to_jsonable():
        return None
    return snap


def clear_checkpoint(store_root: str | os.PathLike, spec: "RunSpec") -> None:
    try:
        os.unlink(checkpoint_path(store_root, spec.fingerprint()))
    except OSError:
        pass


# ----------------------------------------------------------------------
def _encode_baseline(baseline: dict) -> list:
    """JSON-safe form of the workload runner's per-channel baseline
    (tuple keys become [rid, port, pairs] triples, iteration order)."""
    return [
        [rid, port, [[j, p] for j, p in counts.items()]]
        for (rid, port), counts in baseline.items()
    ]


def _decode_baseline(encoded: list) -> dict:
    return {
        (rid, port): {j: p for j, p in pairs}
        for rid, port, pairs in encoded
    }


def run_spec_checkpointed(
    spec: "RunSpec",
    store_root: str | os.PathLike,
    snapshot_every: int,
    telemetry=None,
    telemetry_dir: str | os.PathLike | None = None,
    should_stop=None,
) -> "LoadPoint":
    """Run one point with periodic checkpoints; resume if one exists.

    Checkpoints are taken at every multiple of ``snapshot_every``
    cycles.  The measurement-window bookkeeping (metrics reset, the
    workload runner's attribution baseline, the scenario runner's
    boundary state, the telemetry sampler attach) happens exactly once
    at the warm-up boundary and *travels inside the checkpoint* (the
    baseline/state rides in the snapshot's ``extras``, the sampler in
    its telemetry section), so a resume lands mid-measurement with
    nothing replayed and nothing lost.

    Workload specs additionally persist their full
    :class:`~repro.workloads.runner.WorkloadResult` as a store sidecar,
    matching the orchestrator's default worker; scenario specs persist
    their :class:`~repro.cluster.runner.ScenarioResult` the same way.
    With a telemetry config (``telemetry`` or ``spec.telemetry``) the
    series is written to ``<telemetry_dir>/<fp[:2]>/<fp>.jsonl``, as
    usual.

    ``should_stop`` is the graceful-preemption hook (SIGTERM in the
    fabric worker): a zero-arg callable polled at every segment
    boundary.  When it returns true, the current state is checkpointed
    unconditionally and :class:`Preempted` is raised — the point can
    resume later, on any host, bit-identically.
    """
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    if spec.max_windows is not None:
        raise ValueError(
            "checkpointed execution runs a fixed warmup+measure budget; "
            "windowed-convergence specs (max_windows) cannot resume "
            "mid-protocol — run them without --snapshot-every"
        )
    from repro.engine.runner import build_steady_sim

    workload = spec.workload is not None
    scenario = spec.scenario is not None
    if scenario:
        from repro.cluster.runner import build_scenario_sim, scenario_plan

        def _build(s):
            return build_scenario_sim(s)[0]
    elif workload:
        from repro.workloads.runner import build_workload_sim as _build
    else:
        _build = build_steady_sim

    sim = _build(spec)
    plan = scenario_plan(spec.scenario, sim.network.topo) if scenario else None
    extras: Optional[dict] = None
    snap = load_checkpoint(store_root, spec)
    if snap is not None:
        sim = snap.restore_into(_build(spec))
        extras = snap.extras
    path = checkpoint_path(store_root, spec.fingerprint())
    tcfg = telemetry if telemetry is not None else spec.telemetry

    total = spec.warmup + spec.measure
    while True:
        if sim.cycle >= spec.warmup and (extras is None or not extras.get("measuring")):
            # Warm-up boundary bookkeeping, exactly once per point: the
            # "measuring" marker rides in every later checkpoint.
            sim.metrics.reset(sim.cycle)
            extras = {"measuring": True}
            if scenario:
                from repro.cluster.runner import fresh_state

                extras["scenario"] = fresh_state()
            elif workload:
                from repro.workloads.runner import _job_phit_baseline

                extras["baseline"] = _encode_baseline(_job_phit_baseline(sim.network))
            if tcfg is not None:
                from repro.telemetry.sampler import TelemetrySampler

                TelemetrySampler(sim, tcfg).attach()
        if sim.cycle >= total:
            break
        if should_stop is not None and should_stop():
            Snapshot.capture(sim, spec=spec, extras=extras).save(str(path))
            raise Preempted(spec.fingerprint(), sim.cycle)
        stop = min(total, (sim.cycle // snapshot_every + 1) * snapshot_every)
        if sim.cycle < spec.warmup:
            stop = min(stop, spec.warmup)
        if scenario:
            from repro.cluster.runner import advance_scenario

            advance_scenario(sim, plan, extras["scenario"], stop)
        else:
            sim.run(stop - sim.cycle)
        if sim.cycle < total and sim.cycle % snapshot_every == 0:
            Snapshot.capture(sim, spec=spec, extras=extras).save(str(path))

    series = sim.telemetry.finish() if sim.telemetry is not None else None
    if scenario:
        from repro.analysis.store import ResultStore
        from repro.cluster.runner import (
            SIDECAR_KIND as SCENARIO_KIND,
            summarize_scenario,
        )
        from repro.cluster.schedule import compile_scenario

        compiled = compile_scenario(spec.scenario, sim.network.topo)
        result = summarize_scenario(sim, compiled, plan, extras["scenario"])
        ResultStore(store_root).put_sidecar(SCENARIO_KIND, spec, result.to_jsonable())
        point = result.total
    elif workload:
        from repro.workloads.runner import SIDECAR_KIND, _summarize

        result = _summarize(sim, _decode_baseline(extras["baseline"]))
        from repro.analysis.store import ResultStore

        ResultStore(store_root).put_sidecar(SIDECAR_KIND, spec, result.to_jsonable())
        point = result.total
    else:
        point = sim.metrics.load_point(spec.load, sim.cycle)
    if series is not None and telemetry_dir is not None:
        from repro.telemetry.export import write_jsonl

        fp = spec.fingerprint()
        write_jsonl(series, Path(telemetry_dir) / fp[:2] / f"{fp}.jsonl")
    clear_checkpoint(store_root, spec)
    return point


__all__ = [
    "CHECKPOINT_KIND",
    "Preempted",
    "checkpoint_path",
    "clear_checkpoint",
    "load_checkpoint",
    "run_spec_checkpointed",
]

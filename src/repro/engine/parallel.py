"""Parallel execution of independent simulation points.

Every steady-state point is an independent single-threaded simulation,
so load sweeps and figure grids parallelize embarrassingly across
processes.  The heavy lifting lives in
:mod:`repro.engine.orchestrator`; this module keeps the historical
sweep signatures as thin wrappers over it (strict mode: a failure
raises, like the sequential runner) plus the worker-count heuristics
the orchestrator itself uses.  Determinism comes from the per-point
seed, not from execution order: parallel results are bit-identical to
sequential ones.
"""

from __future__ import annotations

import os

from repro.engine.config import SimulationConfig
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine's CPUs even when a cgroup /
    container / taskset limit grants far fewer, which oversubscribes CI
    runners; prefer the scheduling affinity mask where the platform has
    one (Linux), falling back to ``cpu_count`` elsewhere (macOS).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 2


def default_workers() -> int:
    """Half the available CPUs, at least 1 — simulations are memory-light
    but the harness usually runs other things too."""
    return max(1, available_cpus() // 2)


def _run_specs(specs: list[RunSpec], workers: int | None) -> list[LoadPoint]:
    from repro.engine.orchestrator import Orchestrator

    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(specs) <= 1:
        workers = 0  # in-process: no subprocess overhead for trivial grids
    return Orchestrator(workers=workers, retries=0).run_points(specs)


def run_load_sweep_parallel(
    config: SimulationConfig,
    pattern_spec: str,
    loads: list[float],
    warmup: int = 2_000,
    measure: int = 2_000,
    workers: int | None = None,
) -> list[LoadPoint]:
    """Parallel equivalent of :func:`repro.engine.runner.run_load_sweep`.

    Results are returned in ``loads`` order and are identical to the
    sequential runner's (same seeds, same simulations).
    """
    specs = [
        RunSpec(config, pattern_spec, load, warmup, measure) for load in loads
    ]
    return _run_specs(specs, workers)


def run_grid_parallel(
    tasks: list[tuple[SimulationConfig, str, float]],
    warmup: int = 2_000,
    measure: int = 2_000,
    workers: int | None = None,
) -> list[LoadPoint]:
    """Run an arbitrary (config, pattern, load) grid in parallel.

    Useful for figure drivers that sweep routings x loads; results come
    back in task order.
    """
    specs = [
        RunSpec(cfg, pattern, load, warmup, measure) for cfg, pattern, load in tasks
    ]
    return _run_specs(specs, workers)

"""Simulation engine: configuration, the single-cycle loop, metrics and
experiment runners (steady-state load sweeps, transients, bursts)."""

from repro.engine.config import SimulationConfig, ThresholdConfig
from repro.engine.metrics import Metrics, LoadPoint
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator, DeadlockError
from repro.engine.runner import (
    build_steady_sim,
    run_spec,
    run_load_sweep,
    run_transient,
    run_burst,
)
from repro.engine.orchestrator import Orchestrator, OrchestratorError, PointResult

__all__ = [
    "SimulationConfig",
    "ThresholdConfig",
    "Metrics",
    "LoadPoint",
    "RunSpec",
    "Simulator",
    "DeadlockError",
    "Orchestrator",
    "OrchestratorError",
    "PointResult",
    "build_steady_sim",
    "run_spec",
    "run_load_sweep",
    "run_transient",
    "run_burst",
]

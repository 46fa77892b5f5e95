"""OFAR — On-the-Fly Adaptive Routing in high-radix hierarchical networks.

A full reproduction of García et al., *On-the-Fly Adaptive Routing in
High-Radix Hierarchical Networks* (ICPP 2012): a cycle-driven dragonfly
network simulator with virtual cut-through routers, credit flow control
and a separable LRS allocator; the MIN/VAL/UGAL-L/PB baselines with
ascending-VC deadlock avoidance; and the OFAR mechanism itself —
in-transit adaptive misrouting protected by a Hamiltonian escape ring
with bubble flow control (physical or embedded).

Quickstart::

    from repro import RunSpec, SimulationConfig, run_spec

    cfg = SimulationConfig.small(h=2, routing="ofar")
    point = run_spec(RunSpec(cfg, "ADV+2", load=0.3))
    print(point.throughput, point.avg_latency)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.engine.config import SimulationConfig, ThresholdConfig
from repro.engine.metrics import LoadPoint, Metrics
from repro.engine.runner import (
    BurstResult,
    TransientResult,
    build_steady_sim,
    run_burst,
    run_load_sweep,
    run_spec,
    run_transient,
    run_transient_forked,
)
from repro.engine.runspec import RunSpec
from repro.engine.simulator import DeadlockError, Simulator
from repro.network.network import Network
from repro.snapshot import Snapshot
from repro.topology.dragonfly import Dragonfly
from repro.topology.hamiltonian import HamiltonianRing

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "ThresholdConfig",
    "LoadPoint",
    "Metrics",
    "RunSpec",
    "Simulator",
    "DeadlockError",
    "Network",
    "Dragonfly",
    "HamiltonianRing",
    "Snapshot",
    "build_steady_sim",
    "run_spec",
    "run_load_sweep",
    "run_transient",
    "run_transient_forked",
    "run_burst",
    "TransientResult",
    "BurstResult",
    "__version__",
]

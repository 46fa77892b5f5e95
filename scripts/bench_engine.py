#!/usr/bin/env python
"""Benchmark the simulation engine: cycles/sec on a fixed workload.

The workload is pinned — ``h = 3``, OFAR, uniform (UN) and adversarial
(ADV+h) phases at fixed loads and seeds — so numbers are comparable
across engine versions on the same machine.  Two loads per pattern
cover the engine's operating regimes:

* a low load (0.05), where the active-set scheduler pays off most
  (few routers hold work on any given cycle);
* a load just below each pattern's saturation point (0.25 UN /
  0.20 ADV+3), where per-grant semantic work dominates.

Results are written to ``BENCH_engine.json`` (see docs/architecture.md,
section "Performance & benchmarking"); keep the previous file around to
track the perf trajectory PR over PR.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py                # full run
    PYTHONPATH=src python scripts/bench_engine.py --check        # CI smoke
    PYTHONPATH=src python scripts/bench_engine.py --out out.json
    PYTHONPATH=src python scripts/bench_engine.py \
        --compare-tree /tmp/seed_tree/src                        # A/B vs seed
    PYTHONPATH=src python scripts/bench_engine.py --telemetry    # sampler cost
    PYTHONPATH=src python scripts/bench_engine.py --snapshot     # codec + fork

``--check`` runs a few hundred cycles per phase only — enough to catch
a broken or pathologically slow engine in the tier-1 suite without
turning the test run into a benchmark session.

``--telemetry`` measures the in-run telemetry sampler
(:mod:`repro.telemetry`) on the same pinned workload: sampling off vs
on at interval 100, alternating in-process like ``--compare-tree``, and
cross-checking ejected counts (sampling must never perturb the run).
Writes ``BENCH_telemetry.json``; the *off* numbers double as the proof
that the dormant hook costs nothing beyond noise vs
``BENCH_engine.json``.

``--snapshot`` measures the checkpoint/restore subsystem
(:mod:`repro.snapshot`) on the same pinned workload: wall cost of each
codec operation (capture, digest, save, load, restore — restore
digest-checked against the original) plus the fork-after-warmup speedup
of a 3-variant transient sweep (one shared warm-up vs one warm-up per
variant, series cross-checked for exact equality).  Writes
``BENCH_snapshot.json``.

``--compare-tree PATH`` measures a second source tree (e.g. a ``git
archive`` of the pre-optimization commit, unpacked so that ``PATH``
contains the ``repro`` package) in the *same process*, alternating
baseline/current rounds with module purging in between.  Alternation is
the only reliable protocol on shared machines: separate runs minutes
apart see ±30 % wall-clock drift from co-tenancy, which swamps the
effect being measured.  Best-of-N per engine per phase discards the
slow outliers both engines suffer equally.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

# The fixed benchmark workload.  h=3 is the largest size the tier-1
# suite exercises; loads sit below each pattern's saturation point so
# the run measures the engine, not an ever-growing source-queue backlog.
BENCH_H = 3
BENCH_ROUTING = "ofar"
BENCH_SEED = 1
PHASES = (
    ("UN", 0.05),
    ("UN", 0.25),
    ("ADV+3", 0.05),
    ("ADV+3", 0.20),
)


def _load_engine(tree: str | None) -> dict:
    """(Re-)import the ``repro`` package, optionally from ``tree``.

    Purges any previously imported ``repro`` modules first so two
    source trees can be exercised alternately in one process.  All
    ``repro`` imports are module-level, so importing the entry modules
    below pulls the whole engine in while ``tree`` is on ``sys.path``.
    """
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    if tree is not None:
        sys.path.insert(0, tree)
    try:
        mods = {
            "config": importlib.import_module("repro.engine.config"),
            "runner": importlib.import_module("repro.engine.runner"),
            "simulator": importlib.import_module("repro.engine.simulator"),
            "generators": importlib.import_module("repro.traffic.generators"),
            "patterns": importlib.import_module("repro.traffic.patterns"),
        }
    finally:
        if tree is not None:
            sys.path.remove(tree)
    return mods


def _build_sim(eng: dict, pattern_spec: str, load: float):
    cfg = eng["config"].SimulationConfig.small(
        h=BENCH_H, routing=BENCH_ROUTING, seed=BENCH_SEED
    )
    sim = eng["simulator"].Simulator(cfg)
    topo = sim.network.topo
    pattern = eng["patterns"].make_pattern(
        topo, eng["runner"]._pattern_rng(cfg, 2), pattern_spec
    )
    sim.generator = eng["generators"].BernoulliTraffic(
        pattern, load, cfg.packet_size, topo.num_nodes, BENCH_SEED ^ 0x5A5A
    )
    return sim


def _time_phase(
    eng: dict, pattern_spec: str, load: float, warmup: int, cycles: int
) -> tuple[float, int]:
    """One timed measurement: fresh sim, warm up, time ``cycles``.

    Returns ``(elapsed_seconds, ejected_packets)``.  The ejected count
    is a cheap behavioral fingerprint: two engines claiming
    bit-identical semantics must agree on it exactly.
    """
    sim = _build_sim(eng, pattern_spec, load)
    sim.run(warmup)
    start = time.perf_counter()
    sim.run(cycles)
    elapsed = time.perf_counter() - start
    return elapsed, sim.network.ejected_packets


def run_benchmark(warmup: int, cycles: int, repeats: int) -> dict:
    """Measure the current engine only (normal and ``--check`` modes)."""
    eng = _load_engine(None)
    phases = []
    for pattern_spec, load in PHASES:
        best = float("inf")
        ejected = 0
        for _ in range(repeats):
            elapsed, ejected = _time_phase(eng, pattern_spec, load, warmup, cycles)
            best = min(best, elapsed)
        phases.append(
            {
                "pattern": pattern_spec,
                "load": load,
                "warmup": warmup,
                "cycles": cycles,
                "repeats": repeats,
                "best_seconds": round(best, 4),
                "cycles_per_sec": round(cycles / best, 1),
                "ejected_packets": ejected,
            }
        )
    total_cycles = sum(ph["cycles"] for ph in phases)
    total_seconds = sum(ph["best_seconds"] for ph in phases)
    return {
        "workload": _workload_stanza(),
        "machine": _machine_stanza(),
        "phases": phases,
        "combined_cycles_per_sec": round(total_cycles / total_seconds, 1),
    }


def run_compare(tree: str, warmup: int, cycles: int, rounds: int) -> dict:
    """Alternating A/B: baseline tree vs the current tree, best-of-N."""
    if not os.path.isdir(os.path.join(tree, "repro")):
        # Without this check a bad path would silently fall through to
        # the ambient sys.path and benchmark the engine against itself.
        raise SystemExit(f"--compare-tree: no 'repro' package under {tree!r}")
    keys = [f"{p}@{load:.2f}" for p, load in PHASES]
    best = {
        "baseline": dict.fromkeys(keys, float("inf")),
        "current": dict.fromkeys(keys, float("inf")),
    }
    ejected: dict[str, dict[str, int]] = {"baseline": {}, "current": {}}
    for rnd in range(rounds):
        for label, path in (("baseline", tree), ("current", None)):
            eng = _load_engine(path)
            for (pattern_spec, load), key in zip(PHASES, keys):
                elapsed, ej = _time_phase(eng, pattern_spec, load, warmup, cycles)
                best[label][key] = min(best[label][key], elapsed)
                ejected[label][key] = ej
        print(f"[round {rnd + 1}/{rounds} done]", file=sys.stderr)
    phases = []
    for (pattern_spec, load), key in zip(PHASES, keys):
        if ejected["baseline"][key] != ejected["current"][key]:
            raise SystemExit(
                f"behavioral mismatch on {key}: baseline ejected "
                f"{ejected['baseline'][key]}, current {ejected['current'][key]}"
            )
        b, c = best["baseline"][key], best["current"][key]
        phases.append(
            {
                "pattern": pattern_spec,
                "load": load,
                "warmup": warmup,
                "cycles": cycles,
                "rounds": rounds,
                "baseline_cycles_per_sec": round(cycles / b, 1),
                "cycles_per_sec": round(cycles / c, 1),
                "speedup": round(b / c, 2),
                "ejected_packets": ejected["current"][key],
            }
        )
    total_cycles = len(PHASES) * cycles
    base_seconds = sum(best["baseline"][k] for k in keys)
    cur_seconds = sum(best["current"][k] for k in keys)
    return {
        "workload": _workload_stanza(),
        "machine": _machine_stanza(),
        "method": (
            "alternating same-process A/B vs baseline tree, "
            f"best of {rounds} rounds per engine per phase; "
            "combined = total cycles / total best-seconds"
        ),
        "baseline_tree": tree,
        "phases": phases,
        "baseline_combined_cycles_per_sec": round(total_cycles / base_seconds, 1),
        "combined_cycles_per_sec": round(total_cycles / cur_seconds, 1),
        "combined_speedup": round(base_seconds / cur_seconds, 2),
    }


def _time_phase_telemetry(
    eng, pattern_spec: str, load: float, warmup: int, cycles: int, interval: int
) -> tuple[float, int, int]:
    """Like :func:`_time_phase` but with a telemetry sampler attached
    for the timed window; also returns the sample count."""
    sampler_mod = importlib.import_module("repro.telemetry.sampler")
    config_mod = importlib.import_module("repro.telemetry.config")
    sim = _build_sim(eng, pattern_spec, load)
    sim.run(warmup)
    sampler = sampler_mod.TelemetrySampler(
        sim, config_mod.TelemetryConfig(interval=interval)
    )
    sampler.attach()
    start = time.perf_counter()
    sim.run(cycles)
    elapsed = time.perf_counter() - start
    series = sampler.finish()
    return elapsed, sim.network.ejected_packets, len(series.samples)


def run_telemetry_bench(
    warmup: int, cycles: int, rounds: int, interval: int = 100
) -> dict:
    """Sampling-off vs sampling-on (interval ``interval``), alternating.

    Measures the telemetry subsystem's two cost claims on the pinned
    workload: *off* must be within noise of the plain engine (the hook
    is one attribute check per cycle — compare against
    ``BENCH_engine.json``), and *on* must stay a small, bounded
    per-window cost.  The ejected-packet cross-check enforces the
    stronger claim: sampling does not change the simulation at all.
    """
    eng = _load_engine(None)
    keys = [f"{p}@{load:.2f}" for p, load in PHASES]
    best = {
        "off": dict.fromkeys(keys, float("inf")),
        "on": dict.fromkeys(keys, float("inf")),
    }
    ejected: dict[str, dict[str, int]] = {"off": {}, "on": {}}
    samples: dict[str, int] = {}
    for rnd in range(rounds):
        for (pattern_spec, load), key in zip(PHASES, keys):
            elapsed, ej = _time_phase(eng, pattern_spec, load, warmup, cycles)
            best["off"][key] = min(best["off"][key], elapsed)
            ejected["off"][key] = ej
            elapsed, ej, ns = _time_phase_telemetry(
                eng, pattern_spec, load, warmup, cycles, interval
            )
            best["on"][key] = min(best["on"][key], elapsed)
            ejected["on"][key] = ej
            samples[key] = ns
        print(f"[round {rnd + 1}/{rounds} done]", file=sys.stderr)
    phases = []
    for (pattern_spec, load), key in zip(PHASES, keys):
        if ejected["off"][key] != ejected["on"][key]:
            raise SystemExit(
                f"telemetry perturbed the simulation on {key}: "
                f"{ejected['off'][key]} ejected without vs "
                f"{ejected['on'][key]} with sampling"
            )
        off, on = best["off"][key], best["on"][key]
        phases.append(
            {
                "pattern": pattern_spec,
                "load": load,
                "warmup": warmup,
                "cycles": cycles,
                "rounds": rounds,
                "interval": interval,
                "samples": samples[key],
                "off_cycles_per_sec": round(cycles / off, 1),
                "cycles_per_sec": round(cycles / on, 1),
                "overhead": round(on / off - 1.0, 4),
                "ejected_packets": ejected["on"][key],
            }
        )
    total_cycles = len(PHASES) * cycles
    off_seconds = sum(best["off"][k] for k in keys)
    on_seconds = sum(best["on"][k] for k in keys)
    return {
        "workload": _workload_stanza(),
        "machine": _machine_stanza(),
        "method": (
            "alternating same-process off/on rounds, best of "
            f"{rounds} per mode per phase; overhead = on/off - 1; "
            "ejected counts cross-checked (sampling must not perturb)"
        ),
        "phases": phases,
        "off_combined_cycles_per_sec": round(total_cycles / off_seconds, 1),
        "combined_cycles_per_sec": round(total_cycles / on_seconds, 1),
        "combined_overhead": round(on_seconds / off_seconds - 1.0, 4),
    }


def run_snapshot_bench(warmup: int, cycles: int, rounds: int) -> dict:
    """Snapshot codec wall costs + the fork-after-warmup speedup.

    Part 1 warms the pinned h=3 workload (ADV+3 @ 0.20) to
    ``warmup + cycles`` and times each codec operation — capture,
    digest, save, load, restore-into-a-fresh-simulator — best of
    ``rounds``, cross-checking that the restored simulator's state
    digest matches the original's.

    Part 2 measures what the snapshot subsystem buys: a 3-variant
    transient sweep (one warm-up per variant vs one shared warm-up +
    :func:`~repro.engine.runner.run_transient_forked`), on the
    warm-up-dominated protocol the fork API exists for.  The per-variant
    series are cross-checked for exact equality — the speedup is only
    worth reporting if the fork path is bit-identical.
    """
    import tempfile

    eng = _load_engine(None)
    snapmod = importlib.import_module("repro.snapshot")
    pattern_spec, load = "ADV+3", 0.20

    sim = _build_sim(eng, pattern_spec, load)
    sim.run(warmup + cycles)
    ops = ("capture", "digest", "save", "load", "restore")
    best = dict.fromkeys(ops, float("inf"))
    size = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench_snapshot.json")
        for _ in range(rounds):
            start = time.perf_counter()
            snap = snapmod.Snapshot.capture(sim)
            best["capture"] = min(best["capture"], time.perf_counter() - start)
            start = time.perf_counter()
            snap.digest()
            best["digest"] = min(best["digest"], time.perf_counter() - start)
            start = time.perf_counter()
            snap.save(path)
            best["save"] = min(best["save"], time.perf_counter() - start)
            size = os.path.getsize(path)
            start = time.perf_counter()
            loaded = snapmod.Snapshot.load(path)
            best["load"] = min(best["load"], time.perf_counter() - start)
            fresh = _build_sim(eng, pattern_spec, load)
            start = time.perf_counter()
            loaded.restore_into(fresh)
            best["restore"] = min(best["restore"], time.perf_counter() - start)
            if fresh.state_digest() != sim.state_digest():
                raise SystemExit("restored simulator diverged from the original")
    codec = {
        "pattern": pattern_spec,
        "load": load,
        "at_cycle": warmup + cycles,
        "rounds": rounds,
        "snapshot_bytes": size,
        **{f"{op}_ms": round(best[op] * 1e3, 2) for op in ops},
    }

    # Fork-after-warmup: N variants branched off one warmed state.
    afters = ["ADV+3", "ADV+1", "MIX1"]
    fw, fp, fd = 4 * cycles, max(cycles // 3, 60), max(cycles // 3, 60)
    runner, config_mod = eng["runner"], eng["config"]
    cfg = config_mod.SimulationConfig.small(
        h=BENCH_H, routing=BENCH_ROUTING, seed=BENCH_SEED
    )
    kwargs = dict(warmup=fw, post=fp, drain_margin=fd, bucket=20)
    best_ind = best_fork = float("inf")
    for rnd in range(rounds):
        start = time.perf_counter()
        individual = [
            runner.run_transient(cfg, "UN", a, load, **kwargs) for a in afters
        ]
        best_ind = min(best_ind, time.perf_counter() - start)
        start = time.perf_counter()
        forked = runner.run_transient_forked(cfg, "UN", afters, load, **kwargs)
        best_fork = min(best_fork, time.perf_counter() - start)
        for after, ind, frk in zip(afters, individual, forked):
            if ind.series != frk.series:
                raise SystemExit(f"forked transient diverged on {after}")
        print(f"[round {rnd + 1}/{rounds} done]", file=sys.stderr)
    fork = {
        "after_patterns": afters,
        "load": load,
        "warmup": fw,
        "post": fp,
        "drain_margin": fd,
        "rounds": rounds,
        "individual_cycles": len(afters) * (fw + fp + fd),
        "forked_cycles": fw + len(afters) * (fp + fd),
        "individual_seconds": round(best_ind, 4),
        "forked_seconds": round(best_fork, 4),
        "speedup": round(best_ind / best_fork, 2),
    }
    return {
        "workload": _workload_stanza(),
        "machine": _machine_stanza(),
        "method": (
            "codec ops timed on a warmed simulator, best of "
            f"{rounds}, restore digest-checked against the original; "
            "fork sweep = N individually-warmed transients vs one shared "
            "warm-up + run_transient_forked, series cross-checked for "
            "exact equality"
        ),
        "codec": codec,
        "fork": fork,
    }


def _workload_stanza() -> dict:
    return {
        "h": BENCH_H,
        "routing": BENCH_ROUTING,
        "seed": BENCH_SEED,
        "phases": [{"pattern": p, "load": load} for p, load in PHASES],
    }


def _machine_stanza() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="smoke mode: a few hundred cycles per phase, no file written "
        "unless --out is given (keeps the bench harness exercised in CI)",
    )
    parser.add_argument(
        "--compare-tree",
        default=None,
        metavar="PATH",
        help="path to an alternate source tree (containing the repro "
        "package) to benchmark against, alternating in-process",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="measure telemetry overhead: sampling off vs on (interval "
        "100), alternating in-process; writes BENCH_telemetry.json",
    )
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help="measure the snapshot subsystem: codec wall costs (capture/"
        "digest/save/load/restore) plus the fork-after-warmup speedup on "
        "a 3-variant transient sweep; writes BENCH_snapshot.json",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=5, help="A/B rounds")
    args = parser.parse_args(argv)

    if args.check:
        warmup = args.warmup if args.warmup is not None else 100
        cycles = args.cycles if args.cycles is not None else 300
        repeats = args.repeats if args.repeats is not None else 1
    else:
        warmup = args.warmup if args.warmup is not None else 300
        cycles = args.cycles if args.cycles is not None else 1500
        repeats = args.repeats if args.repeats is not None else 3

    if args.compare_tree is not None:
        result = run_compare(args.compare_tree, warmup, cycles, args.rounds)
    elif args.telemetry:
        rounds = args.rounds if not args.check else 1
        result = run_telemetry_bench(warmup, cycles, rounds)
    elif args.snapshot:
        rounds = args.rounds if not args.check else 1
        result = run_snapshot_bench(warmup, cycles, rounds)
    else:
        result = run_benchmark(warmup, cycles, repeats)
    out = args.out
    if out is None and not args.check:
        if args.telemetry:
            out = "BENCH_telemetry.json"
        elif args.snapshot:
            out = "BENCH_snapshot.json"
        else:
            out = "BENCH_engine.json"
    if out is not None:
        with open(out, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[saved {out}]", file=sys.stderr)
    if args.snapshot:
        c, fk = result["codec"], result["fork"]
        print(
            f"codec @ cycle {c['at_cycle']} ({c['snapshot_bytes']} bytes): "
            f"capture {c['capture_ms']:.1f} ms, digest {c['digest_ms']:.1f} ms, "
            f"save {c['save_ms']:.1f} ms, load {c['load_ms']:.1f} ms, "
            f"restore {c['restore_ms']:.1f} ms"
        )
        print(
            f"fork sweep ({len(fk['after_patterns'])} variants): "
            f"{fk['individual_seconds']:.2f}s individual vs "
            f"{fk['forked_seconds']:.2f}s forked  "
            f"(speedup {fk['speedup']:.2f}x, simulated cycles "
            f"{fk['individual_cycles']} -> {fk['forked_cycles']})"
        )
        return 0
    for ph in result["phases"]:
        line = (
            f"{ph['pattern']:>6s} @ {ph['load']:.2f}: "
            f"{ph['cycles_per_sec']:>10.1f} cycles/sec"
        )
        if "baseline_cycles_per_sec" in ph:
            line += (
                f"  (baseline {ph['baseline_cycles_per_sec']:.1f}, "
                f"speedup {ph['speedup']:.2f}x)"
            )
        if "overhead" in ph:
            line += (
                f"  (off {ph['off_cycles_per_sec']:.1f}, "
                f"sampling overhead {100 * ph['overhead']:+.1f}%)"
            )
        print(line)
    line = f"combined: {result['combined_cycles_per_sec']:.1f} cycles/sec"
    if "combined_speedup" in result:
        line += f"  (speedup {result['combined_speedup']:.2f}x)"
    if "combined_overhead" in result:
        line += f"  (sampling overhead {100 * result['combined_overhead']:+.1f}%)"
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

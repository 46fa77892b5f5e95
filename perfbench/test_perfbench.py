"""Quick mode of the benchmark: every workload, briefly, both run kinds.

Run from the repository root::

    python -m pytest perfbench -q

Each case runs ``perfbench/run.py --seconds 1`` in a subprocess and
checks the output: the last line is the result object, every metric
``BENCHMARK.json`` declares is present with its unit, and the
correctness gate held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3
    assert len(provenance["input_digest"]) == 64
    assert provenance["machine"]["nproc"] >= 1
    if trace:
        assert provenance["trace_overhead"] == result["metrics"]["trace.overhead"]["value"]


def test_same_seed_same_inputs_and_sim_results():
    runs = [_run(ROOT, "advh-h4-ofar", 0, seed=5) for _ in range(2)]
    assert all(p.returncode == 0 for p in runs)
    prov = [json.loads(p.stdout.strip().splitlines()[-2])["provenance"] for p in runs]
    res = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in runs]
    assert prov[0]["input_digest"] == prov[1]["input_digest"]
    assert prov[0]["details"]["state_digest"] == prov[1]["details"]["state_digest"]
    for name in ("sim_throughput", "sim_latency_avg", "sim_latency_p99"):
        assert res[0][name] == res[1][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    obj = Layer()
    tracer = Tracer()
    with tracer.active():
        tracer.patch(Layer, "outer", lambda f: tracer.timed("outer", f))
        tracer.patch(obj, "inner", lambda f: tracer.timed("inner", f))
        assert obj.outer() == 2
    assert Layer.__dict__["outer"] is original
    assert "inner" not in vars(obj)
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    outer_total, outer_self = tracer.total("outer"), tracer.self_time("outer")
    assert outer_self == pytest.approx(outer_total - tracer.total("inner"))


def test_hostspeed_scales_by_the_probe_next_to_each_call():
    calls = hostspeed.series(lambda: "done", 10, every=4, span=1)
    assert calls.results == ["done"] * 10
    assert len(calls.wall) == len(calls.cpu) == len(calls.norm) == 10
    assert len(calls.probes) == 3  # after calls 4, 8 and the last one
    for i, (cpu, norm) in enumerate(zip(calls.cpu, calls.norm)):
        j = i // 4
        near = calls.probes[max(0, j - 1):j + 2]
        assert norm == pytest.approx(hostspeed.normalise(cpu, near))
    assert hostspeed.normalise(1.0, [hostspeed.REFERENCE_S * 2]) == pytest.approx(0.5)
    assert hostspeed.normalise(1.0, [hostspeed.REFERENCE_S * 2], 2.0) == pytest.approx(0.25)
    with hostspeed.Timer(edge=2).span() as span:
        sum(range(1000))
    assert span.wall > 0 and span.cpu > 0
    assert span.norm == pytest.approx(span.cpu * span.scale)
    assert hostspeed.TABLE_KIB > 0

"""Tier-1 wiring for the engine benchmark harness.

``scripts/bench_engine.py --check`` runs a heavily shortened version of
the fixed benchmark workload.  Keeping it in the test suite guarantees
the harness itself never rots (imports, workload construction, JSON
emission) without turning CI into a benchmark session — timings from
this smoke run are meaningless and deliberately not asserted on.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "bench_engine.py")


@pytest.fixture(scope="module")
def check_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [
            sys.executable,
            SCRIPT,
            "--check",
            "--warmup",
            "20",
            "--cycles",
            "60",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return proc, out


def test_check_mode_succeeds(check_run):
    proc, _ = check_run
    assert proc.returncode == 0, proc.stderr


def test_check_mode_reports_every_phase(check_run):
    proc, out = check_run
    payload = json.loads(out.read_text())
    assert [ph["pattern"] for ph in payload["phases"]] == [
        p["pattern"] for p in payload["workload"]["phases"]
    ]
    for ph in payload["phases"]:
        assert ph["cycles_per_sec"] > 0
        assert ph["ejected_packets"] > 0  # the workload actually moved traffic
    assert payload["combined_cycles_per_sec"] > 0
    # Stdout carries the human-readable per-phase summary.
    assert "combined:" in proc.stdout


def test_telemetry_check_mode(tmp_path):
    """--telemetry --check exercises the off/on alternating harness,
    including the sampling-must-not-perturb ejected-count cross-check."""
    out = tmp_path / "bench_telemetry.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [
            sys.executable, SCRIPT, "--telemetry", "--check",
            "--warmup", "20", "--cycles", "120", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert "combined_overhead" in payload
    for ph in payload["phases"]:
        assert ph["off_cycles_per_sec"] > 0 and ph["cycles_per_sec"] > 0
        assert ph["ejected_packets"] > 0
    assert "sampling overhead" in proc.stdout


def test_check_mode_writes_no_file_by_default(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--check", "--warmup", "5", "--cycles", "20"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []  # smoke mode must not litter

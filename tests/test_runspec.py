"""Tests for RunSpec (fingerprint, JSON) and LoadPoint/Series round-trips."""

import json
import math

import pytest

from repro.analysis.results import Series
from repro.engine.config import SimulationConfig
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec


def spec(**kw):
    base = dict(
        config=SimulationConfig.small(h=2, routing="ofar", seed=3),
        pattern_spec="ADV+2",
        load=0.3,
        warmup=200,
        measure=200,
    )
    base.update(kw)
    return RunSpec(**base)


class TestRunSpec:
    def test_frozen_and_hashable(self):
        s = spec()
        with pytest.raises(AttributeError):
            s.load = 0.5
        assert s == spec()
        assert hash(s) == hash(spec())

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(load=-0.1)
        with pytest.raises(ValueError):
            spec(warmup=-1)

    def test_fingerprint_stable_and_distinct(self):
        a, b = spec(), spec()
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 64  # sha256 hex
        # Every field participates in the key.
        assert spec(load=0.31).fingerprint() != a.fingerprint()
        assert spec(pattern_spec="UN").fingerprint() != a.fingerprint()
        assert spec(warmup=201).fingerprint() != a.fingerprint()
        assert spec(measure=201).fingerprint() != a.fingerprint()
        other_cfg = SimulationConfig.small(h=2, routing="ofar", seed=4)
        assert spec(config=other_cfg).fingerprint() != a.fingerprint()

    def test_json_round_trip(self):
        s = spec()
        assert RunSpec.from_json(s.to_json()) == s
        assert RunSpec.from_json(s.to_json()).fingerprint() == s.fingerprint()

    def test_telemetry_excluded_from_identity(self):
        """Telemetry is an observation sidecar, not simulation identity:
        it must not enter the fingerprint or the canonical JSON, or it
        would fork cache keys for bit-identical results."""
        from repro.telemetry import TelemetryConfig

        plain = spec()
        observed = spec(telemetry=TelemetryConfig(interval=50, per_link=True))
        assert observed.fingerprint() == plain.fingerprint()
        assert observed.to_json() == plain.to_json()
        assert "telemetry" not in observed.to_jsonable()
        # Round-tripping drops the sidecar — identity survives.
        assert RunSpec.from_json(observed.to_json()) == plain
        # Still frozen and hashable with the extra field (it participates
        # in dataclass equality, just not in fingerprint identity).
        assert observed != plain
        hash(observed)
        with pytest.raises(AttributeError):
            observed.telemetry = None

    def test_json_rejects_unknown_keys(self):
        data = json.loads(spec().to_json())
        data["surprise"] = 1
        with pytest.raises(ValueError):
            RunSpec.from_jsonable(data)

    def test_label_mentions_the_point(self):
        text = spec().label()
        assert "ofar" in text and "ADV+2" in text and "0.3" in text

    def test_max_windows_is_identity(self):
        """Windowed convergence changes the reported numbers, so it IS
        part of the fingerprint — but only when set, so pre-existing
        fixed-window fingerprints are untouched."""
        plain = spec()
        windowed = spec(max_windows=8)
        assert windowed.fingerprint() != plain.fingerprint()
        assert "max_windows" not in plain.to_jsonable()
        assert windowed.to_jsonable()["max_windows"] == 8
        assert RunSpec.from_json(windowed.to_json()) == windowed
        with pytest.raises(ValueError):
            spec(max_windows=0)


def mk_point(**kw):
    base = dict(
        offered_load=0.3, throughput=0.2987654321, avg_latency=77.51234,
        avg_network_latency=75.9, avg_hops=4.28, avg_local_hops=2.0,
        avg_global_hops=1.1, p50_latency=76.0, p99_latency=144.0,
        ejected_packets=543, window_cycles=200, ring_fraction=0.0,
        local_misroute_rate=0.698, global_misroute_rate=0.654,
        jain_index=0.9871, worst_source_share=0.0213,
    )
    base.update(kw)
    return LoadPoint(**base)


class TestLoadPointJson:
    def test_round_trip_exact(self):
        pt = mk_point(throughput=1 / 3, avg_latency=0.1 + 0.2)
        assert LoadPoint.from_json(pt.to_json()) == pt  # floats exact

    def test_nan_round_trip(self):
        pt = mk_point(
            avg_latency=float("nan"), avg_hops=float("nan"), ejected_packets=0
        )
        text = pt.to_json()
        assert "NaN" not in text  # valid JSON: NaN encodes as null
        back = LoadPoint.from_json(text)
        assert math.isnan(back.avg_latency)
        assert back.as_row() == pt.as_row()

    def test_missing_and_unknown_keys_rejected(self):
        data = mk_point().to_jsonable()
        data.pop("throughput")
        with pytest.raises(ValueError):
            LoadPoint.from_jsonable(data)
        data2 = mk_point().to_jsonable()
        data2["bogus"] = 1
        with pytest.raises(ValueError):
            LoadPoint.from_jsonable(data2)

    def test_fairness_fields_optional(self):
        """Store entries written before the fairness fields existed read
        back with NaN there (back-compat: not recorded, not an error)."""
        data = mk_point().to_jsonable()
        del data["jain_index"], data["worst_source_share"]
        back = LoadPoint.from_jsonable(data)
        assert math.isnan(back.jain_index)
        assert math.isnan(back.worst_source_share)
        assert back.throughput == mk_point().throughput


class TestSeriesJson:
    def test_round_trip(self):
        s = Series("ofar", [mk_point(), mk_point(offered_load=0.4)])
        back = Series.from_json(s.to_json())
        assert back.name == "ofar"
        assert back.points == s.points

    def test_nan_safe(self):
        s = Series("x", [mk_point(avg_latency=float("nan"), ejected_packets=0)])
        back = Series.from_json(s.to_json())
        assert math.isnan(back.points[0].avg_latency)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Series.from_jsonable({"name": "x"})

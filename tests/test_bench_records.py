"""Schema validation for every committed ``BENCH_*.json`` record.

The benchmark harness persists one record per scenario and ``--check``
compares fresh runs against them, so a harness refactor that silently
changes the record shape (dropping ``git_sha``, renaming a primary
metric, writing strings where numbers belong) would disarm the
regression gate without failing anything.  These tests pin the contract
documented in ``docs/BENCHMARKING.md``; the ``benchmark-harness-smoke``
CI job runs them against the freshly rewritten records too.
"""

from __future__ import annotations

import json
import math
from datetime import datetime
from pathlib import Path

import pytest

from benchmarks.harness import SCENARIOS

RECORDS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "records"

REQUIRED_KEYS = {
    "scenario",
    "timestamp",
    "git_sha",
    "quick",
    "cpu_count",
    "harness_wall_clock_s",
    "timings",
    "metrics",
}


def record_paths() -> list[Path]:
    return sorted(RECORDS_DIR.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_scenario_has_a_committed_record():
    committed = {path.stem.removeprefix("BENCH_") for path in record_paths()}
    assert committed == set(SCENARIOS), (
        "every harness scenario must commit a BENCH_<scenario>.json record "
        f"(missing: {set(SCENARIOS) - committed}, "
        f"stale: {committed - set(SCENARIOS)})"
    )


@pytest.mark.parametrize("path", record_paths(), ids=lambda p: p.stem)
class TestRecordSchema:
    def test_required_keys_present(self, path: Path) -> None:
        record = load(path)
        missing = REQUIRED_KEYS - set(record)
        assert not missing, f"{path.name} is missing {sorted(missing)}"

    def test_scenario_matches_filename(self, path: Path) -> None:
        record = load(path)
        assert record["scenario"] == path.stem.removeprefix("BENCH_")
        assert record["scenario"] in SCENARIOS

    def test_timestamp_is_iso8601(self, path: Path) -> None:
        parsed = datetime.fromisoformat(load(path)["timestamp"])
        assert parsed.tzinfo is not None, "timestamps must carry a timezone"

    def test_git_sha_and_counts(self, path: Path) -> None:
        record = load(path)
        assert isinstance(record["git_sha"], str) and record["git_sha"]
        assert isinstance(record["quick"], bool)
        assert isinstance(record["cpu_count"], int) and record["cpu_count"] >= 1
        wall = record["harness_wall_clock_s"]
        assert isinstance(wall, (int, float)) and wall > 0

    def test_timings_are_finite_numbers(self, path: Path) -> None:
        timings = load(path)["timings"]
        assert isinstance(timings, dict) and timings
        for key, value in timings.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float)) and math.isfinite(value), (
                f"{path.name}: timing {key!r} is not a finite number: {value!r}"
            )

    def test_primary_metric_present_and_finite(self, path: Path) -> None:
        record = load(path)
        _, primary_key, _ = SCENARIOS[record["scenario"]]
        metrics = record["metrics"]
        assert isinstance(metrics, dict) and metrics
        assert primary_key in metrics, (
            f"{path.name}: primary metric {primary_key!r} missing "
            f"(has {sorted(metrics)})"
        )
        value = metrics[primary_key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value) and value > 0

    def test_previous_block_shape_when_present(self, path: Path) -> None:
        previous = load(path).get("previous")
        if previous is None:
            return
        assert isinstance(previous, dict)
        assert {"git_sha", "timestamp", "metrics"} <= set(previous)


def test_serving_chaos_record_proves_the_storm_happened():
    """The chaos record must show faults fired AND the stack absorbed them.

    An availability of 1.0 against a plan that never injected anything
    would be a vacuous gate, so the record has to carry the evidence:
    at least one supervised worker respawn, a non-zero injected-fault
    count, and a recovery tail within the gate the scenario enforces
    in-run.  Orphan count is pinned to exactly zero — it only appears
    in the record at all when the post-shutdown sweep found none.
    """
    record = load(RECORDS_DIR / "BENCH_serving_chaos.json")
    metrics = record["metrics"]
    assert 0.99 <= metrics["chaos_availability"] <= 1.0
    assert metrics["chaos_scheduled"] > 0
    assert (
        metrics["chaos_completed"] + metrics["chaos_failed"] + metrics["chaos_dropped"]
        == metrics["chaos_scheduled"]
    )
    assert metrics["worker_restarts"] >= 1
    assert metrics["injected_faults"] >= 3
    assert metrics["orphan_processes"] == 0
    assert metrics["deadline_sheds"] >= 0
    timings = record["timings"]
    for key in ("baseline_p99_ms", "chaos_p99_ms", "recovery_p99_ms"):
        assert timings[key] > 0, key
    ceiling = max(2.0 * timings["baseline_p99_ms"], 250.0)
    assert timings["recovery_p99_ms"] <= ceiling


def test_serving_chaos_sidecar_matches_the_committed_plan():
    """The sidecar's fault log must come from the committed schedule.

    The record has to describe the storm in version control: the
    sidecar carries the harness's ``CHAOS_SCHEDULE`` verbatim, and its
    observed fault log holds each scheduled fault as many times as it
    was scheduled (the truncation burst ``count`` times), no earlier
    than its time.
    """
    from benchmarks.harness import CHAOS_SCHEDULE
    from repro.loadgen import LatencyHistogram

    record = load(RECORDS_DIR / "BENCH_serving_chaos.json")
    assert record.get("artifacts") == ["serving_chaos_histogram.json"]
    sidecar = load(RECORDS_DIR / "serving_chaos_histogram.json")
    assert sidecar["schedule"] == [dict(event) for event in CHAOS_SCHEDULE]
    log = sidecar["fault_log"]
    assert len(log) == record["metrics"]["injected_faults"]
    for event in CHAOS_SCHEDULE:
        applied = [
            entry
            for entry in log
            if entry[1] == event["kind"] and entry[2] == event.get("target")
        ]
        assert len(applied) == event.get("count", 1), (event, log)
        assert all(entry[0] >= event["at_s"] for entry in applied), (event, log)
    assert set(sidecar["legs"]) == {"baseline", "chaos", "recovery"}
    for leg, payload in sidecar["legs"].items():
        histogram = LatencyHistogram.from_dict(payload)
        assert histogram.count > 0, leg

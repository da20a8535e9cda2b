"""Tests for the open-loop load generation substrate (``repro.loadgen``).

Pins the three honesty rules the open-loop runner exists for:

1. latency is charged from the *intended* send time, so transport
   backlog shows up in the histogram instead of shrinking offered load;
2. the in-flight cap is deadline-aware — arrivals that cannot be sent in
   time are dropped *and charged the full deadline*;
3. failures are typed and counted, and the accounting invariant
   ``scheduled == completed + failed + dropped`` always holds.

Plus the coordinated-omission regression test: an injected
whole-service stall must surface in the open-loop p99, charged to every
request that was due while it lasted.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.corpus.factory import CorpusFactory
from repro.engine.engine import PredictionEngine
from repro.engine.server import InferenceServer
from repro.loadgen import (
    ArrivalSchedule,
    LatencyHistogram,
    fixed_rate_schedule,
    poisson_schedule,
    run_open_loop,
)
from repro.serving.client import GatewayOverloaded, ServingClient
from repro.serving.gateway import ServingGateway

TEXTS = ["alpha text", "beta text", "gamma text"]


def instant_send(text: str, intended_at: float) -> None:
    return


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
class TestSchedules:
    def test_fixed_rate_gaps_are_exact(self):
        schedule = fixed_rate_schedule(100.0, n=10)
        assert len(schedule) == 10
        assert schedule.times == tuple(pytest.approx(i / 100.0) for i in range(10))
        assert schedule.duration_s == pytest.approx(0.1)
        assert schedule.kind == "fixed"

    def test_poisson_is_deterministic_per_seed(self):
        a = poisson_schedule(200.0, n=500, seed=42)
        b = poisson_schedule(200.0, n=500, seed=42)
        c = poisson_schedule(200.0, n=500, seed=43)
        assert a.times == b.times
        assert a.times != c.times
        assert a.kind == "poisson"

    def test_poisson_mean_gap_matches_rate(self):
        schedule = poisson_schedule(200.0, n=5000, seed=7)
        gaps = np.diff(schedule.times)
        assert gaps.mean() == pytest.approx(1 / 200.0, rel=0.05)
        assert (gaps >= 0).all()

    def test_duration_and_n_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            fixed_rate_schedule(10.0)
        with pytest.raises(ValueError):
            fixed_rate_schedule(10.0, duration_s=1.0, n=10)
        with pytest.raises(ValueError):
            poisson_schedule(0.0, n=10)
        with pytest.raises(ValueError):
            fixed_rate_schedule(10.0, duration_s=-1.0)

    def test_schedule_validates_times(self):
        with pytest.raises(ValueError):
            ArrivalSchedule("fixed", 10.0, 0, times=(0.2, 0.1))
        with pytest.raises(ValueError):
            ArrivalSchedule("fixed", 10.0, 0, times=(-0.1, 0.1))
        with pytest.raises(ValueError):
            ArrivalSchedule("fixed", -1.0, 0, times=(0.0,))

    def test_trace_round_trip(self, tmp_path):
        schedule = poisson_schedule(120.0, n=64, seed=11)
        path = schedule.save(tmp_path / "trace.json")
        replayed = ArrivalSchedule.load(path)
        assert replayed == schedule

    def test_unknown_trace_version_rejected(self):
        payload = poisson_schedule(10.0, n=3, seed=0).to_dict()
        payload["trace_version"] = 99
        with pytest.raises(ValueError, match="trace_version"):
            ArrivalSchedule.from_dict(payload)


# ----------------------------------------------------------------------
# HDR-style histogram
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_percentiles_within_relative_error_bound(self):
        rng = np.random.default_rng(3)
        samples = np.exp(rng.normal(1.5, 1.0, size=20_000))  # lognormal ms
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(float(value))
        ordered = np.sort(samples)
        for q in (50, 90, 95, 99, 99.9):
            exact = ordered[max(0, int(np.ceil(len(ordered) * q / 100.0)) - 1)]
            reported = histogram.percentile(q)
            assert reported == pytest.approx(exact, rel=0.03), f"p{q}"

    def test_max_is_exact(self):
        histogram = LatencyHistogram()
        for value in (1.0, 250.0, 3.7):
            histogram.record(value)
        assert histogram.max_ms == 250.0
        assert histogram.percentile(100) == 250.0

    def test_record_n_counts(self):
        histogram = LatencyHistogram()
        histogram.record(5.0, n=10)
        histogram.record(500.0)
        assert histogram.count == 11
        assert histogram.percentile(50) == pytest.approx(5.0, rel=0.03)

    def test_merge_equals_combined_recording(self):
        rng = np.random.default_rng(5)
        left, right, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for value in rng.exponential(20.0, size=2000):
            left.record(float(value))
            combined.record(float(value))
        for value in rng.exponential(80.0, size=2000):
            right.record(float(value))
            combined.record(float(value))
        left.merge(right)
        assert left.count == combined.count
        assert left.percentile(99) == combined.percentile(99)
        assert left.max_ms == combined.max_ms

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(growth=1.1))

    def test_round_trip_preserves_distribution(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.5, 3.0, 3.1, 900.0):
            histogram.record(value)
        clone = LatencyHistogram.from_dict(histogram.to_dict())
        assert clone.count == histogram.count
        assert clone.percentiles() == histogram.percentiles()

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99) == 0.0
        assert histogram.mean_ms() == 0.0
        assert histogram.percentiles()["max_ms"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(lowest_ms=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().record(1.0, n=0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)


# ----------------------------------------------------------------------
# Open-loop runner semantics
# ----------------------------------------------------------------------
class TestOpenLoopRunner:
    def test_accounting_invariant_on_clean_run(self):
        schedule = fixed_rate_schedule(500.0, n=250)
        result = run_open_loop(schedule, instant_send, TEXTS, max_in_flight=16)
        assert result.scheduled == 250
        assert result.completed == 250
        assert result.failed == 0 and result.dropped == 0
        assert result.error_types == {}
        assert result.achieved_rate_rps == pytest.approx(500.0, rel=0.25)
        assert result.offered_rate_rps == 500.0
        assert result.histogram.count == 250

    def test_backlog_charged_to_intended_time(self):
        # One transport slot, 50 ms per send, arrivals 10 ms apart: each
        # send takes 50 ms of wall clock, but queue wait accrues from the
        # intended arrival, so recorded latency must grow far beyond the
        # 50 ms service time.
        def slow_send(text: str, intended_at: float) -> None:
            time.sleep(0.05)

        schedule = fixed_rate_schedule(100.0, n=6)
        result = run_open_loop(
            schedule, slow_send, TEXTS, max_in_flight=1, deadline_s=10.0
        )
        assert result.completed == 6
        # Last request: intended at 50 ms, finished near 6 * 50 = 300 ms.
        assert result.histogram.max_ms > 150.0

    def test_late_arrivals_dropped_and_charged_full_deadline(self):
        def very_slow_send(text: str, intended_at: float) -> None:
            time.sleep(0.3)

        schedule = fixed_rate_schedule(100.0, n=5)
        result = run_open_loop(
            schedule, very_slow_send, TEXTS, max_in_flight=1, deadline_s=0.1
        )
        assert result.scheduled == 5
        assert result.completed + result.failed + result.dropped == 5
        assert result.dropped >= 3
        # Drops are charged exactly the deadline: the tail cannot hide.
        assert result.histogram.max_ms >= 100.0

    def test_failures_are_typed_and_counted(self):
        def flaky_send(text: str, intended_at: float) -> None:
            if text == "beta text":
                raise ValueError("injected")

        schedule = fixed_rate_schedule(300.0, n=30)
        result = run_open_loop(schedule, flaky_send, TEXTS, max_in_flight=8)
        assert result.failed == 10  # every 3rd text round-robin
        assert result.completed == 20
        assert result.error_types == {"ValueError": 10}
        assert result.histogram.count == 30

    def test_validation(self):
        schedule = fixed_rate_schedule(10.0, n=2)
        with pytest.raises(ValueError):
            run_open_loop(schedule, instant_send, [])
        with pytest.raises(ValueError):
            run_open_loop(schedule, instant_send, TEXTS, max_in_flight=0)
        with pytest.raises(ValueError):
            run_open_loop(schedule, instant_send, TEXTS, deadline_s=0.0)

    def test_summary_is_flat_and_json_ready(self):
        result = run_open_loop(
            fixed_rate_schedule(200.0, n=20), instant_send, TEXTS
        )
        summary = result.summary()
        assert summary["mode"] == "open"
        assert summary["scheduled"] == 20
        for key in ("p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms"):
            assert isinstance(summary[key], float)


# ----------------------------------------------------------------------
# Coordinated omission: the regression test for the whole methodology
# ----------------------------------------------------------------------
class _StallingTransport:
    """~2 ms service with one global ~500 ms pause after 20 requests.

    The pause freezes *every* caller (as a GC pause or page fault
    would), not just the thread that triggered it, so every request due
    during the pause waits for its end.
    """

    def __init__(self, stall_after: int = 20, stall_s: float = 0.5) -> None:
        self.stall_after = stall_after
        self.stall_s = stall_s
        self._served = 0
        self._stall_until: float | None = None
        self._lock = threading.Lock()

    def __call__(self, text: str, intended_at: float) -> None:
        with self._lock:
            self._served += 1
            if self._stall_until is None and self._served >= self.stall_after:
                self._stall_until = time.monotonic() + self.stall_s
            until = self._stall_until
        if until is not None:
            now = time.monotonic()
            if now < until:
                time.sleep(until - now)
        time.sleep(0.002)


class TestCoordinatedOmission:
    def test_open_loop_charges_the_stall_to_p99(self):
        stall_ms = 500.0
        result = run_open_loop(
            fixed_rate_schedule(200.0, duration_s=1.5, seed=1),
            _StallingTransport(stall_s=stall_ms / 1000.0),
            TEXTS,
            max_in_flight=256,
            deadline_s=10.0,
        )
        assert result.dropped == 0 and result.failed == 0
        # Every request due during the stall is charged its wait from its
        # intended send time, so the requests due at its start set p99 ...
        assert result.p99_ms > 0.8 * stall_ms
        # ... while the median request, due outside it, never saw it.
        assert result.p50_ms < 100.0


# ----------------------------------------------------------------------
# End to end: the serving stack under open-loop load
# ----------------------------------------------------------------------
class _TinyBackend:
    n_classes = 6

    def proba_batch(self, texts):
        time.sleep(0.001)
        return np.full((len(texts), 6), 1.0 / 6.0)


def _make_server() -> InferenceServer:
    return InferenceServer(
        PredictionEngine(_TinyBackend(), model_id="loadgen-test", cache_size=0),
        workers=2,
        max_batch_size=8,
        max_queue=256,
        overload="block",
    )


class TestServingIntegration:
    def test_open_loop_against_inference_server(self):
        texts = CorpusFactory().texts(900, 256)
        server = _make_server()
        with server:
            result = run_open_loop(
                poisson_schedule(150.0, duration_s=1.0, seed=2),
                lambda text, at: server.submit(text).result(timeout=30),
                texts,
                max_in_flight=32,
            )
        assert result.completed == result.scheduled
        assert result.failed == 0 and result.dropped == 0
        assert result.p99_ms < 1000.0

    def test_open_loop_through_http_gateway(self):
        texts = CorpusFactory().texts(901, 64)
        server = _make_server()
        with ServingGateway(server) as gateway:
            client = ServingClient(gateway.url, deadline_s=10.0)
            client.wait_ready(deadline_s=10.0)
            result = run_open_loop(
                poisson_schedule(40.0, duration_s=1.0, seed=3),
                lambda text, at: client.predict(text, intended_at=at),
                texts,
                max_in_flight=16,
            )
        assert result.completed == result.scheduled
        assert result.failed == 0 and result.dropped == 0

    def test_client_deadline_anchors_at_intended_time(self):
        # An intended_at far enough in the past exhausts the budget
        # before the first attempt: the client must fail fast (no
        # network touched — the port below is not listening).
        client = ServingClient("http://127.0.0.1:9", deadline_s=5.0)
        started = time.monotonic()
        with pytest.raises(GatewayOverloaded, match="deadline_exceeded"):
            client.predict("text", intended_at=time.monotonic() - 60.0)
        assert time.monotonic() - started < 1.0

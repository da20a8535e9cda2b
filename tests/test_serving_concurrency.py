"""Concurrency tests for the replicated InferenceServer.

Every test here runs against deterministic stub backends (a pure
function of the text, optionally slowed down) so the serving-layer
behaviour under contention — multi-worker correctness vs a serial
oracle, shed-mode overload, drain-on-stop races, restart accounting,
shared deadlines, and stats snapshot consistency — is exercised in
milliseconds without training a model.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.core.labels import DIMENSIONS
from repro.engine.engine import PredictionEngine
from repro.engine.server import (
    InferenceServer,
    ServerClosed,
    ServerOverloaded,
    ServerStats,
)


class DeterministicBackend:
    """Probabilities as a pure function of the text — the serial oracle."""

    n_classes = 6

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        rows = np.empty((len(texts), 6), dtype=np.float64)
        for i, text in enumerate(texts):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            vals = np.frombuffer(digest[:6], dtype=np.uint8).astype(np.float64) + 1.0
            rows[i] = vals / vals.sum()
        return rows


class SlowBackend(DeterministicBackend):
    """Deterministic backend with a fixed per-batch service time."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        time.sleep(self.delay_s)
        return super().proba_batch(texts)


def make_engine(backend=None, **kwargs) -> PredictionEngine:
    return PredictionEngine(
        backend or DeterministicBackend(), model_id="stub", **kwargs
    )


class TestMultiWorkerCorrectness:
    def test_matches_serial_oracle_under_concurrent_clients(self):
        texts = [f"post number {i} about wellbeing" for i in range(150)]
        oracle = make_engine().predict_proba(texts)
        server = InferenceServer(
            make_engine(SlowBackend(0.005)),
            workers=4,
            max_batch_size=8,
        )
        results: dict[str, tuple] = {}
        lock = threading.Lock()
        with server:
            def client(chunk):
                futures = [(t, server.submit(t)) for t in chunk]
                for t, f in futures:
                    r = f.result(timeout=30)
                    with lock:
                        results[t] = r.probabilities
            threads = [
                threading.Thread(target=client, args=(texts[i::6],))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == len(texts)
        for i, text in enumerate(texts):
            np.testing.assert_allclose(results[text], oracle[i], rtol=1e-12)
        snap = server.stats.snapshot()
        assert snap.requests == len(texts)
        assert sum(snap.per_worker_requests) == len(texts)
        assert len(snap.per_worker_requests) == 4
        # With 4 workers draining a backlog of slow batches, the load
        # cannot all land on a single worker.
        assert np.count_nonzero(snap.per_worker_requests) >= 2

    def test_workers_serve_through_private_replicas(self):
        engine = make_engine()
        server = InferenceServer(engine, workers=3, max_batch_size=4)
        assert len(server.engines) == 3
        backends = {id(e.backend) for e in server.engines}
        assert backends == {id(engine.backend)}  # shared fitted state
        assert len({id(e) for e in server.engines}) == 3  # private replicas
        texts = [f"text {i}" for i in range(40)]
        with server:
            server.predict(texts)
        # Work went through the replicas, not the template engine.
        assert engine.stats.requests == 0
        assert server.engine_stats().requests == len(texts)

    def test_duplicate_traffic_hits_replica_caches(self):
        server = InferenceServer(make_engine(), workers=2, max_batch_size=16)
        with server:
            for _ in range(5):
                server.predict(["hot text"] * 4)
        stats = server.engine_stats()
        assert stats.requests == 20
        assert stats.cache_hits >= 1


class TestBackpressure:
    def test_shed_mode_raises_typed_overload(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.05)),
            workers=1,
            max_batch_size=1,
            max_queue=4,
            overload="shed",
        )
        admitted: list[Future] = []
        sheds = 0
        with server:
            for i in range(30):
                try:
                    admitted.append(server.submit(f"burst {i}"))
                except ServerOverloaded:
                    sheds += 1
            # Admitted requests still drain and resolve on stop.
        assert sheds > 0
        assert server.stats.shed == sheds
        snap = server.stats.snapshot()
        assert snap.shed_rate == pytest.approx(sheds / (sheds + snap.requests))
        for f in admitted:
            assert f.result(timeout=5).label in DIMENSIONS

    def test_block_mode_applies_backpressure_and_loses_nothing(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.02)),
            workers=1,
            max_batch_size=1,
            max_queue=2,
            overload="block",
        )
        with server:
            started = time.perf_counter()
            futures = [server.submit(f"steady {i}") for i in range(10)]
            submit_elapsed = time.perf_counter() - started
            results = [f.result(timeout=10) for f in futures]
        # 10 serial 20 ms batches behind a 2-deep queue: the submit loop
        # itself must have blocked waiting for space.
        assert submit_elapsed > 0.05
        assert server.stats.shed == 0
        assert [r.text for r in results] == [f"steady {i}" for i in range(10)]

    def test_stop_unblocks_waiting_submitter_with_server_closed(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.1)),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="block",
        )
        server.start()
        server.submit("in flight")
        server.submit("queued")
        outcome: list = []

        def blocked_submit():
            try:
                outcome.append(server.submit("blocked"))
            except ServerClosed as error:
                outcome.append(error)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.03)  # let it reach the not_full wait
        server.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(outcome) == 1
        # Either it squeezed in before stop (and was drained) or it
        # failed fast; it must never hang.
        if isinstance(outcome[0], Future):
            assert outcome[0].result(timeout=5)
        else:
            assert isinstance(outcome[0], ServerClosed)

    def test_invalid_configuration_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            InferenceServer(engine, workers=0)
        with pytest.raises(ValueError):
            InferenceServer(engine, max_queue=0)
        with pytest.raises(ValueError):
            InferenceServer(engine, overload="drop")

    def test_typed_errors_remain_runtime_errors(self):
        assert issubclass(ServerClosed, RuntimeError)
        assert issubclass(ServerOverloaded, RuntimeError)


class TestDrainAndStopRaces:
    def test_every_admitted_future_resolves_across_racing_stop(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.002)),
            workers=2,
            max_batch_size=4,
        )
        server.start()
        admitted: list[Future] = []
        lock = threading.Lock()
        closed = threading.Event()

        def producer(i):
            n = 0
            while not closed.is_set():
                try:
                    f = server.submit(f"producer {i} req {n}")
                except ServerClosed:
                    closed.set()
                    return
                with lock:
                    admitted.append(f)
                n += 1

        threads = [threading.Thread(target=producer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        server.stop()  # races the producers
        closed.set()
        for t in threads:
            t.join(timeout=5)
        assert admitted
        for f in admitted:
            assert f.result(timeout=5).label in DIMENSIONS
        assert server.stats.requests == len(admitted)
        with pytest.raises(ServerClosed):
            server.submit("too late")

    def test_cancelled_futures_are_skipped_not_crashed(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.05)),
            workers=1,
            max_batch_size=1,
        )
        with server:
            futures = [server.submit(f"text {i}") for i in range(5)]
            cancelled = futures[3].cancel()
        if cancelled:
            assert futures[3].cancelled()
            live = futures[:3] + futures[4:]
        else:  # the worker won the race; it was served normally
            live = futures
        for f in live:
            assert f.result(timeout=5).label in DIMENSIONS

    def test_restart_resets_stats_epoch(self):
        """Regression: start() after stop() used to keep old counters and
        stopped_at, so throughput() mixed downtime into the denominator."""
        server = InferenceServer(make_engine(), max_batch_size=4)
        with server:
            server.predict([f"a {i}" for i in range(10)])
        first = server.stats.snapshot()
        assert first.epoch == 1
        assert first.requests == 10
        assert first.stopped_at is not None

        server.start()
        try:
            fresh = server.stats.snapshot()
            assert fresh.epoch == 2
            assert fresh.requests == 0  # pre-fix: still 10
            assert fresh.batches == 0
            assert fresh.stopped_at is None  # pre-fix: stale stop stamp
            assert fresh.started_at is not None
            assert fresh.started_at > first.started_at
            server.predict([f"b {i}" for i in range(5)])
        finally:
            server.stop()
        second = server.stats.snapshot()
        assert second.requests == 5
        # Throughput is computed over this epoch's uptime only.
        uptime = second.stopped_at - second.started_at
        assert second.throughput() == pytest.approx(5 / uptime)


class TestSharedDeadline:
    def test_predict_timeout_is_one_deadline_not_per_future(self):
        """Regression: the old per-future timeout let predict() take up to
        n × timeout; five 150 ms serial batches all fit their individual
        0.3 s windows but must blow a single shared 0.3 s deadline."""
        server = InferenceServer(
            make_engine(SlowBackend(0.15)),
            workers=1,
            max_batch_size=1,
        )
        with server:
            started = time.perf_counter()
            with pytest.raises(FutureTimeoutError):
                server.predict([f"slow {i}" for i in range(5)], timeout=0.3)
            elapsed = time.perf_counter() - started
        assert elapsed < 1.0  # nowhere near 5 × 0.3

    def test_timed_out_predict_cancels_unserved_texts(self):
        """Regression: predict() raised at the deadline but left the rest
        of its futures queued, so workers served texts nobody read."""
        server = InferenceServer(
            make_engine(SlowBackend(0.05)), workers=1, max_batch_size=1
        )
        with server:
            with pytest.raises(FutureTimeoutError):
                server.predict([f"late {i}" for i in range(10)], timeout=0.06)
            time.sleep(1.0)  # all ten would have been served by now
            # The first text was served and the second was already
            # running at the deadline; the other eight were skipped.
            assert server.stats.requests <= 2

    def test_predict_none_timeout_waits_for_everything(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.01)), workers=2, max_batch_size=2
        )
        with server:
            results = server.predict(
                [f"t {i}" for i in range(8)], timeout=None
            )
        assert len(results) == 8


class GatedBackend(DeterministicBackend):
    """Blocks its first batch until released; records every batch size."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batch_sizes: list[int] = []

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        self.batch_sizes.append(len(texts))
        self.entered.set()
        self.release.wait(timeout=10)
        return super().proba_batch(texts)


class TestBatchingPolicy:
    """Work-conserving dispatch: a free worker runs what is queued now."""

    def test_lone_submitter_is_not_held(self):
        server = InferenceServer(make_engine(), workers=2)
        with server:
            latencies = [
                server.submit(f"alone {i}").result(timeout=10).latency_ms
                for i in range(50)
            ]
        assert np.median(latencies) < 1.0, latencies

    def test_work_queued_behind_a_busy_worker_coalesces(self):
        backend = GatedBackend()
        server = InferenceServer(make_engine(backend), workers=1)
        with server:
            first = server.submit("first")
            assert backend.entered.wait(timeout=10)
            queued = [server.submit(f"queued {i}") for i in range(10)]
            backend.release.set()
            for future in [first, *queued]:
                future.result(timeout=10)
        assert backend.batch_sizes == [1, 10]


class TestStatsSnapshot:
    def test_snapshot_is_consistent_and_immutable(self):
        stats = ServerStats(n_workers=2)
        stats.mark_started()
        stats.record_batch([1.0, 2.0, 3.0], worker=0)
        stats.record_batch([4.0], worker=1)
        snap = stats.snapshot()
        assert snap.requests == 4
        assert snap.batches == 2
        assert snap.largest_batch == 3
        assert snap.per_worker_requests == (3, 1)
        assert snap.latencies_ms == (1.0, 2.0, 3.0, 4.0)
        assert snap.mean_latency_ms == pytest.approx(2.5)
        assert snap.latency_percentile(0) == 1.0
        assert snap.latency_percentile(100) == 4.0
        with pytest.raises(AttributeError):
            snap.requests = 99  # frozen
        # The legacy attribute API delegates to a snapshot.
        assert stats.requests == 4
        assert stats.mean_batch_size == pytest.approx(2.0)
        assert stats.latency_percentile(100) == 4.0

    def test_percentile_reads_race_concurrent_writers(self):
        """Regression: latency_percentile used to sort the live deque the
        worker was appending to — sorted() over a mutating deque raises
        RuntimeError.  Hammer reads against a writer thread."""
        stats = ServerStats(window=4096)
        stats.mark_started()
        done = threading.Event()

        def writer():
            while not done.is_set():
                stats.record_batch([1.0, 2.0, 3.0, 4.0] * 8)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.perf_counter() + 0.4
            while time.perf_counter() < deadline:
                p95 = stats.latency_percentile(95)
                assert 0.0 <= p95 <= 4.0
                assert stats.mean_latency_ms >= 0.0
                stats.snapshot()
        finally:
            done.set()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_window_bounds_percentile_memory(self):
        stats = ServerStats(window=8)
        stats.mark_started()
        stats.record_batch([float(i) for i in range(32)])
        assert len(stats.snapshot().latencies_ms) == 8
        assert stats.latency_percentile(0) == 24.0  # oldest retained


class TestServerLifecycle:
    def test_double_start_rejected(self):
        server = InferenceServer(make_engine())
        with server, pytest.raises(RuntimeError, match="already running"):
            server.start()

    def test_stop_idempotent_and_reentrant(self):
        server = InferenceServer(make_engine())
        server.stop()  # never started: no-op
        server.start()
        server.stop()
        server.stop()  # second stop: no-op
        assert not server.running

    def test_submit_before_start_fails_fast(self):
        with pytest.raises(ServerClosed):
            InferenceServer(make_engine()).submit("hello")

    def test_concurrent_stops_leave_no_sentinel_debris(self):
        # Two racing stop() calls must plant sentinels exactly once;
        # leftovers would make the restarted workers exit immediately.
        server = InferenceServer(
            make_engine(SlowBackend(0.01)), workers=2, max_batch_size=2
        )
        server.start()
        for i in range(6):
            server.submit(f"w {i}")
        stoppers = [threading.Thread(target=server.stop) for _ in range(3)]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=10)
        assert not server.running
        server.start()
        try:
            results = server.predict([f"again {i}" for i in range(8)], timeout=10)
            assert len(results) == 8
            assert server.running  # workers did not eat stale sentinels
        finally:
            server.stop()


class TestGracefulDrain:
    """The SIGTERM hook: drain() closes admission but keeps serving."""

    def test_drain_closes_admission_but_serves_admitted(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.02)), workers=2, max_batch_size=2
        )
        with server:
            assert server.accepting
            admitted = [server.submit(f"admitted {i}") for i in range(8)]
            server.drain()
            assert not server.accepting
            assert server.running  # workers stay up to drain the backlog
            with pytest.raises(ServerClosed):
                server.submit("late")
            # Every admitted future still resolves with a real result.
            oracle = make_engine().predict_proba(
                [f"admitted {i}" for i in range(8)]
            )
            for future, expected in zip(admitted, oracle):
                result = future.result(timeout=10)
                assert result.probabilities == tuple(expected)
        assert not server.running

    def test_drain_wakes_blocked_submitters(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.2)),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="block",
        )
        errors: list[Exception] = []
        with server:
            server.submit("occupy")
            time.sleep(0.05)
            server.submit("fill queue")

            def blocked_submit() -> None:
                try:
                    server.submit("blocked on a full queue")
                except ServerClosed as error:
                    errors.append(error)

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            time.sleep(0.05)  # the submitter is waiting on _not_full
            server.drain()
            thread.join(timeout=5)
            assert len(errors) == 1  # failed fast, did not hang

    def test_drain_is_idempotent_and_safe_before_start(self):
        server = InferenceServer(make_engine())
        server.drain()  # never started: no-op
        with pytest.raises(ServerClosed):
            server.submit("still closed")
        server.start()
        server.drain()
        server.drain()
        server.stop()
        assert not server.running


class CrashOnceBackend(DeterministicBackend):
    """Raises on the first batch containing a trigger text, then heals."""

    def __init__(self) -> None:
        self.tripped = False

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        if not self.tripped and any("CRASH" in t for t in texts):
            self.tripped = True
            raise SystemError("backend blew past the per-batch handler")
        return super().proba_batch(texts)


class TestWorkerThreadReplacement:
    """A serving thread dying on an unexpected exception is replaced.

    ``_serve_batch`` already fans exceptions out to the batch's futures,
    so the only way a serving thread dies is a bug *outside* that guard
    (batch collection, stats, chaos seam).  When it happens the thread
    must be logged, counted, and replaced — not silently strip the
    server of capacity.
    """

    def _server_with_collect_bomb(self, workers: int = 1) -> InferenceServer:
        server = InferenceServer(
            make_engine(), workers=workers, max_batch_size=4
        )
        original = server._serve_batch
        state = {"armed": True}

        def bomb(batch, worker):
            if state["armed"] and any("CRASH" in t for t, _, _ in batch):
                state["armed"] = False
                raise SystemError("simulated serving-loop bug")
            return original(batch, worker)

        server._serve_batch = bomb
        return server

    def test_dead_thread_is_counted_and_replaced(self):
        server = self._server_with_collect_bomb(workers=1)
        with server:
            crashed = server.submit("CRASH this thread")
            # The killing batch's futures die with the thread...
            with pytest.raises(SystemError):
                crashed.result(timeout=30)
            # ...but the replacement thread keeps the (sole) slot alive.
            result = server.submit("served by the replacement").result(timeout=30)
            assert len(result.probabilities) == 6
            snapshot = server.stats.snapshot()
            assert snapshot.worker_thread_deaths == 1

    def test_replacement_survives_repeated_deaths(self):
        server = InferenceServer(
            make_engine(), workers=2, max_batch_size=1
        )
        original = server._serve_batch
        counter = {"left": 3}

        def bomb(batch, worker):
            if counter["left"] > 0 and any("CRASH" in t for t, _, _ in batch):
                counter["left"] -= 1
                raise SystemError("repeated serving-loop bug")
            return original(batch, worker)

        server._serve_batch = bomb
        with server:
            for i in range(3):
                with pytest.raises(SystemError):
                    server.submit(f"CRASH {i}").result(timeout=30)
            for i in range(8):
                result = server.submit(f"healthy {i}").result(timeout=30)
                assert len(result.probabilities) == 6
            assert server.stats.snapshot().worker_thread_deaths == 3

    def test_clean_stop_after_replacement(self):
        server = self._server_with_collect_bomb(workers=2)
        server.start()
        with pytest.raises(SystemError):
            server.submit("CRASH now").result(timeout=30)
        futures = [server.submit(f"drain {i}") for i in range(6)]
        server.stop()  # must join the replacement thread, not the corpse
        for f in futures:
            assert len(f.result(timeout=30).probabilities) == 6
        assert not server.running

    def test_backend_exception_does_not_kill_thread(self):
        # Control case: an exception *inside* the batch handler goes to
        # the futures and the thread survives — no death counted.
        server = InferenceServer(make_engine(CrashOnceBackend()), workers=1)
        with server:
            with pytest.raises(SystemError):
                server.submit("CRASH in backend").result(timeout=30)
            result = server.submit("fine afterwards").result(timeout=30)
            assert len(result.probabilities) == 6
            assert server.stats.snapshot().worker_thread_deaths == 0

"""Tests for the multi-process serving backend.

The tentpole claims of :class:`ProcessInferenceServer`, each pinned
here:

* **Byte-identical predictions.**  Probabilities served through
  worker processes + shared-memory weights equal the threaded server's
  and the bare engine's *exactly* — under pinned batch composition
  (``max_batch_size=1``): LR probabilities differ at ~1e-15 between
  batch splits (BLAS GEMM accumulation is shape-dependent), so only
  singleton batches make "byte-identical" a well-defined claim.  This
  isolates what we actually assert: shared memory + pipe transport add
  zero numerical drift.
* **Shared-memory hygiene.**  The segment exists while serving, is
  unlinked on clean ``stop()`` and on SIGTERM (subprocess test), and a
  worker process dying mid-service leaks nothing.
* **Worker supervision.**  Dead workers respawn (lazily on dispatch,
  eagerly via ``ensure_workers``), restarts are counted, remote errors
  surface as :class:`RemoteWorkerError` without killing the slot.
* **The shared admission core.**  Shed/block overload and drain
  semantics are inherited from ``BatchingServerBase`` unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import subprocess
import sys
import textwrap
import time
from concurrent.futures import wait
from pathlib import Path

import numpy as np
import pytest

from benchmarks.faults import kill_worker, stall_worker
from repro.core.pipeline import WellnessClassifier
from repro.engine.engine import PredictionEngine
from repro.engine.procserver import (
    ProcessInferenceServer,
    RemoteWorkerError,
)
from repro.engine.registry import build_engine
from repro.engine.server import InferenceServer, ServerOverloaded
from repro.nn.serialization import SharedCheckpoint, load_checkpoint
from repro.serving.gateway import ServingGateway


# ----------------------------------------------------------------------
# Module-level engine factories (picklable across fork AND spawn)
# ----------------------------------------------------------------------
class _HashBackend:
    """Deterministic pure function of the text — the cross-process oracle."""

    n_classes = 6

    def proba_batch(self, texts):
        import hashlib

        rows = np.empty((len(texts), 6), dtype=np.float64)
        for i, text in enumerate(texts):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            vals = np.frombuffer(digest[:6], dtype=np.uint8).astype(np.float64)
            rows[i] = (vals + 1.0) / (vals + 1.0).sum()
        return rows


class _BoomBackend(_HashBackend):
    """Raises on texts containing ``BOOM`` — the remote-error path."""

    def proba_batch(self, texts):
        if any("BOOM" in t for t in texts):
            raise ValueError("boom requested")
        return super().proba_batch(texts)


class _SlowBackend(_HashBackend):
    def proba_batch(self, texts):
        time.sleep(0.05)
        return super().proba_batch(texts)


SLEEPY_SERVICE_S = 0.25


class _SleepyBackend(_HashBackend):
    """Sleeps through each batch, releasing the GIL as native kernels do."""

    def proba_batch(self, texts):
        time.sleep(SLEEPY_SERVICE_S)
        return super().proba_batch(texts)


def make_hash_engine():
    return PredictionEngine(_HashBackend(), model_id="hash", cache_size=0)


def make_boom_engine():
    return PredictionEngine(_BoomBackend(), model_id="boom", cache_size=0)


def make_slow_engine():
    return PredictionEngine(_SlowBackend(), model_id="slow", cache_size=0)


def make_sleepy_engine():
    return PredictionEngine(_SleepyBackend(), model_id="sleepy", cache_size=0)


def make_broken_engine():
    raise RuntimeError("this factory always fails")


def make_slow_starting_engine():
    time.sleep(1.0)
    return make_hash_engine()


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lr_checkpoint(tmp_path_factory, small_dataset) -> Path:
    """A real fitted LR checkpoint directory, built once per module."""
    classifier = WellnessClassifier("LR").fit(small_dataset.instances)
    path = tmp_path_factory.mktemp("ckpt") / "lr"
    classifier.save(path)
    return path


def segment_gone(name: str) -> bool:
    """True when the named shm segment no longer exists."""
    from repro.nn.serialization import SharedManifest

    probe = SharedManifest(shm_name=name, total_bytes=0, specs=())
    try:
        SharedCheckpoint.attach(probe).close()
    except FileNotFoundError:
        return True
    return False


# ----------------------------------------------------------------------
# Byte-identical predictions
# ----------------------------------------------------------------------
class TestByteIdenticalOracle:
    def test_checkpoint_served_probs_equal_threaded_and_inprocess(
        self, lr_checkpoint, small_dataset
    ):
        texts = small_dataset.texts[:20]
        arrays, config = load_checkpoint(lr_checkpoint)

        classifier = WellnessClassifier.load(lr_checkpoint)
        engine = build_engine(
            classifier.baseline,
            model=classifier.model,
            vectorizer=classifier.vectorizer,
            model_id="oracle",
            cache_size=0,
        )
        # Singleton batches everywhere: probabilities are only
        # bit-reproducible under identical batch composition.
        oracle = np.stack([engine.predict_proba([t])[0] for t in texts])

        threaded = InferenceServer(engine, workers=1, max_batch_size=1)
        with threaded:
            thread_probs = np.stack(
                [threaded.submit(t).result(timeout=30).probabilities for t in texts]
            )

        mp_server = ProcessInferenceServer(
            arrays=arrays,
            config=config,
            workers=2,
            max_batch_size=1,
            cache_size=0,
        )
        with mp_server:
            mp_server.wait_ready(timeout=120)
            mp_probs = np.stack(
                [
                    mp_server.submit(t).result(timeout=30).probabilities
                    for t in texts
                ]
            )

        np.testing.assert_array_equal(thread_probs, oracle)
        np.testing.assert_array_equal(mp_probs, oracle)

    def test_factory_workers_match_local_engine(self):
        texts = [f"text number {i}" for i in range(30)]
        oracle = make_hash_engine().predict_proba(texts)
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=2, max_batch_size=1
        )
        with server:
            server.wait_ready(timeout=120)
            probs = np.stack(
                [server.submit(t).result(timeout=30).probabilities for t in texts]
            )
        np.testing.assert_array_equal(probs, oracle)


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
class TestSharedMemoryLifecycle:
    def test_segment_exists_while_running_and_unlinked_on_stop(
        self, lr_checkpoint
    ):
        server = ProcessInferenceServer.from_checkpoint(
            lr_checkpoint, workers=1, max_batch_size=4
        )
        assert server.shared_segment_name is None
        with server:
            server.wait_ready(timeout=120)
            name = server.shared_segment_name
            assert name is not None and not segment_gone(name)
            server.submit("a post about sleep").result(timeout=30)
        assert server.shared_segment_name is None
        assert segment_gone(name)

    def test_segment_unlinked_when_worker_died_mid_service(self, lr_checkpoint):
        server = ProcessInferenceServer.from_checkpoint(
            lr_checkpoint, workers=1, max_batch_size=4
        )
        with server:
            server.wait_ready(timeout=120)
            name = server.shared_segment_name
            pid = server.worker_processes()[0]["pid"]
            os.kill(pid, signal.SIGKILL)
            # The respawned worker serves through the same segment.
            result = server.submit("an anxious evening").result(timeout=60)
            assert len(result.probabilities) == 6
        assert segment_gone(name)

    def test_sigterm_unlinks_segment_and_exits_zero(
        self, lr_checkpoint, tmp_path
    ):
        """A SIGTERM'd serving process must drain and clean its segment."""
        script = tmp_path / "serve_until_sigterm.py"
        script.write_text(
            textwrap.dedent(
                """
                import signal, sys, threading
                from repro.engine.procserver import ProcessInferenceServer

                stop = threading.Event()
                signal.signal(signal.SIGTERM, lambda *a: stop.set())
                server = ProcessInferenceServer.from_checkpoint(
                    sys.argv[1], workers=1, max_batch_size=4
                )
                server.start()
                server.wait_ready(timeout=120)
                server.submit("warm request").result(timeout=30)
                print(server.shared_segment_name, flush=True)
                stop.wait()
                server.stop()
                """
            ),
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        ) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(lr_checkpoint)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            name = proc.stdout.readline().strip()
            assert name.startswith("hx_")
            assert not segment_gone(name)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        assert segment_gone(name)


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_wait_ready_across_start_methods(self):
        for method in ("fork", "spawn"):
            if method not in multiprocessing.get_all_start_methods():
                continue
            server = ProcessInferenceServer.from_factory(
                make_hash_engine,
                workers=2,
                max_batch_size=2,
                start_method=method,
            )
            with server:
                server.wait_ready(timeout=120)
                report = server.worker_processes()
                assert [p["alive"] for p in report] == [True, True]
                assert all(isinstance(p["pid"], int) for p in report)
                result = server.submit(f"via {method}").result(timeout=30)
                assert len(result.probabilities) == 6

    def test_starting_worker_is_not_reported_alive(self):
        # Until its ready handshake delivers the pid, a slot serves
        # nothing; reporting it alive would hand callers a None pid.
        server = ProcessInferenceServer.from_factory(
            make_slow_starting_engine, workers=1, max_batch_size=2
        )
        with server:
            starting = server.worker_processes()[0]
            assert starting["pid"] is not None or not starting["alive"]
            server.wait_ready(timeout=120)
            ready = server.worker_processes()[0]
            assert ready["alive"] and isinstance(ready["pid"], int)

    def test_dead_worker_respawns_on_dispatch_and_counts_restart(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=1, max_batch_size=2
        )
        with server:
            server.wait_ready(timeout=120)
            first_pid = server.worker_processes()[0]["pid"]
            os.kill(first_pid, signal.SIGKILL)
            oracle = make_hash_engine().predict_proba(["after the crash"])[0]
            result = server.submit("after the crash").result(timeout=60)
            np.testing.assert_array_equal(result.probabilities, oracle)
            report = server.worker_processes()[0]
            assert report["restarts"] >= 1
            assert report["alive"] and report["pid"] != first_pid

    def test_ensure_workers_revives_idle_dead_worker(self):
        # A long supervisor interval keeps the background respawn out of
        # the race: the slot must be revived by ensure_workers itself.
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=2, max_batch_size=2, supervisor_interval_s=600.0
        )
        with server:
            server.wait_ready(timeout=120)
            victim = server.worker_processes()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not server.worker_processes()[0]["alive"]:
                    break
                time.sleep(0.02)
            assert server.ensure_workers() == 1
            assert all(p["alive"] for p in server.worker_processes())
            assert server.ensure_workers() == 0  # nothing left to revive

    def test_remote_inference_error_surfaces_without_killing_worker(self):
        server = ProcessInferenceServer.from_factory(
            make_boom_engine, workers=1, max_batch_size=1
        )
        with server:
            server.wait_ready(timeout=120)
            with pytest.raises(RemoteWorkerError, match="boom requested"):
                server.submit("BOOM please").result(timeout=30)
            # The worker survived the exception and keeps serving.
            result = server.submit("a calm follow-up").result(timeout=30)
            assert len(result.probabilities) == 6
            assert server.worker_processes()[0]["restarts"] == 0

    def test_factory_failure_reported_by_wait_ready(self):
        server = ProcessInferenceServer.from_factory(
            make_broken_engine, workers=1, spawn_timeout_s=30
        )
        with server, pytest.raises(
            RemoteWorkerError, match="this factory always fails"
        ):
            server.wait_ready(timeout=120)


# ----------------------------------------------------------------------
# Worker overlap
# ----------------------------------------------------------------------
class TestWorkerOverlap:
    @pytest.mark.parametrize("processes", [False, True], ids=["threads", "processes"])
    def test_workers_serve_concurrently(self, processes):
        # Four workers answer four concurrent requests in about one
        # service time; workers that serialised would take four.
        workers = 4
        kwargs = dict(workers=workers, max_batch_size=1)
        if processes:
            server = ProcessInferenceServer.from_factory(make_sleepy_engine, **kwargs)
        else:
            server = InferenceServer(make_sleepy_engine(), **kwargs)

        def round_trip(tag: str) -> None:
            futures = [server.submit(f"{tag} {i}") for i in range(workers)]
            for future in futures:
                future.result(timeout=30)

        with server:
            if processes:
                server.wait_ready(timeout=120)
            round_trip("warm-up")
            started = time.perf_counter()
            round_trip("measured")
            elapsed = time.perf_counter() - started
        assert elapsed < 2 * SLEEPY_SERVICE_S, (
            f"{workers} requests took {elapsed:.2f}s over {workers} workers "
            f"with a {SLEEPY_SERVICE_S}s service time"
        )


# ----------------------------------------------------------------------
# Inherited admission semantics
# ----------------------------------------------------------------------
class TestAdmissionSemantics:
    def test_shed_mode_raises_when_queue_full(self):
        server = ProcessInferenceServer.from_factory(
            make_slow_engine,
            workers=1,
            max_batch_size=1,
            max_queue=2,
            overload="shed",
        )
        with server:
            server.wait_ready(timeout=120)
            futures = []
            with pytest.raises(ServerOverloaded):
                for i in range(200):
                    futures.append(server.submit(f"burst {i}"))
            for f in futures:
                f.result(timeout=60)
            assert server.stats.snapshot().shed >= 1

    def test_drain_resolves_every_admitted_future(self):
        server = ProcessInferenceServer.from_factory(
            make_slow_engine, workers=2, max_batch_size=4, max_queue=64
        )
        server.start()
        server.wait_ready(timeout=120)
        futures = [server.submit(f"draining {i}") for i in range(24)]
        server.stop()
        for f in futures:
            assert len(f.result(timeout=60).probabilities) == 6


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------
class TestHotReload:
    def test_reload_weights_changes_predictions_and_bumps_version(
        self, lr_checkpoint
    ):
        arrays, config = load_checkpoint(lr_checkpoint)
        server = ProcessInferenceServer(
            arrays=arrays,
            config=config,
            workers=1,
            max_batch_size=1,
            cache_size=64,
        )
        text = "a long walk cleared my head"
        with server:
            server.wait_ready(timeout=120)
            assert server.weights_version == 1
            before = server.submit(text).result(timeout=30).probabilities

            reloaded = {
                k: (np.zeros_like(v) if k == "model.coef_" else v)
                for k, v in arrays.items()
            }
            assert server.reload_weights(reloaded) == 2
            assert server.weights_version == 2
            after = server.submit(text).result(timeout=30).probabilities
            # Zeroed coefficients collapse the logits to the intercepts:
            # the worker provably rebuilt (and un-cached) its engine.
            assert not np.array_equal(before, after)

    def test_reload_rejected_in_factory_mode(self):
        server = ProcessInferenceServer.from_factory(make_hash_engine, workers=1)
        with server:
            server.wait_ready(timeout=120)
            with pytest.raises(RuntimeError, match="factory mode"):
                server.reload_weights({"coef_": np.zeros(3)})


# ----------------------------------------------------------------------
# Gateway integration
# ----------------------------------------------------------------------
class TestGatewayProcessAwareness:
    def test_healthz_reports_processes_and_metrics_grow_families(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=2, max_batch_size=2
        )
        with ServingGateway(server) as gateway:
            server.wait_ready(timeout=120)
            from repro.serving.client import ServingClient

            client = ServingClient(gateway.url, deadline_s=30)
            health = client.healthz()
            assert health["status"] == "ok"
            assert [p["worker"] for p in health["processes"]] == [0, 1]
            assert all(p["alive"] for p in health["processes"])

            client.predict("one request through http")
            text = client.metrics_text()
            assert "holistix_worker_process_alive" in text
            assert "holistix_worker_process_restarts_total" in text
            parsed = client.metrics()
            alive = [
                value
                for (name, labels), value in parsed.items()
                if name == "holistix_worker_process_alive"
            ]
            assert alive == [1.0, 1.0]

    def test_healthz_revives_dead_worker(self):
        # A long supervisor interval keeps the background respawn out of
        # the race: the slot must be revived by the probe itself.
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=2, max_batch_size=2, supervisor_interval_s=600.0
        )
        with ServingGateway(server) as gateway:
            server.wait_ready(timeout=120)
            from repro.serving.client import ServingClient

            client = ServingClient(gateway.url, deadline_s=30)
            victim = server.worker_processes()[1]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not server.worker_processes()[1]["alive"]:
                    break
                time.sleep(0.02)
            health = client.healthz()  # the probe itself heals the slot
            assert health["status"] == "ok"
            assert all(p["alive"] for p in health["processes"])
            assert health["processes"][1]["restarts"] >= 1

    def test_threaded_server_healthz_has_no_processes_key(self):
        engine = make_hash_engine()
        with ServingGateway(InferenceServer(engine, workers=1)) as gateway:
            from repro.serving.client import ServingClient

            health = ServingClient(gateway.url, deadline_s=30).healthz()
            assert "processes" not in health


class TestFaultInjectionUnderLoad:
    """SIGKILL a worker process mid-run under open-loop load.

    The supervision claims, now exercised while the server is actually
    loaded: only batches in flight on the killed worker may fail (typed
    as :class:`RemoteWorkerError` — the dispatch path retries once after
    respawn, so even those usually succeed), the slot respawns and is
    counted, the open-loop accounting never loses a request, and tail
    latency returns to its pre-fault neighbourhood once the worker is
    back.
    """

    def test_sigkill_mid_load_recovers_and_tail_returns_to_baseline(self):
        from repro.loadgen import fixed_rate_schedule, run_open_loop

        server = ProcessInferenceServer.from_factory(
            make_hash_engine,
            workers=2,
            max_batch_size=4,
            max_queue=256,
            overload="block",
        )
        texts = [f"fault doc {i}" for i in range(64)]

        def send(text: str, intended_at: float) -> None:
            server.submit(text).result(timeout=60)

        def run_leg(seed: int, duration_s: float = 1.0):
            return run_open_loop(
                fixed_rate_schedule(120.0, duration_s=duration_s, seed=seed),
                send,
                texts,
                max_in_flight=64,
                deadline_s=30.0,
            )

        with server:
            server.wait_ready(timeout=120)
            baseline = run_leg(1)
            assert baseline.failed == 0 and baseline.dropped == 0

            victim = server.worker_processes()[0]["pid"]
            killer = threading.Timer(0.4, os.kill, (victim, signal.SIGKILL))
            killer.start()
            try:
                faulted = run_leg(2, duration_s=1.5)
            finally:
                killer.cancel()

            # Accounting never loses a request, even across the crash.
            assert faulted.dropped == 0
            assert faulted.completed + faulted.failed == faulted.scheduled
            # Failures, if any, are exactly the typed remote-death error.
            assert set(faulted.error_types) <= {"RemoteWorkerError"}

            report = server.worker_processes()
            assert sum(p["restarts"] for p in report) >= 1
            assert all(p["alive"] for p in report)

            recovered = run_leg(3)
            assert recovered.failed == 0 and recovered.dropped == 0
            # Post-recovery tail is back near baseline (generous bound:
            # shared-runner scheduling noise, not respawn debt).
            assert recovered.p99_ms <= max(10 * baseline.p99_ms, 250.0)


# ----------------------------------------------------------------------
# Background supervisor + crash-loop breaker
# ----------------------------------------------------------------------
class TestBackgroundSupervisor:
    """Dead workers come back without anyone probing or sending traffic.

    The background supervisor thread is what makes recovery *bounded in
    time* rather than "whenever the next request or health probe
    arrives" — so these tests only ever read the ``worker_processes()``
    report while waiting.
    """

    def test_dead_worker_respawns_with_zero_probes_and_zero_traffic(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine,
            workers=1,
            max_batch_size=2,
            supervisor_interval_s=0.05,
            respawn_backoff_base_s=0.01,
        )
        with server:
            server.wait_ready(timeout=120)
            victim = server.worker_processes()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            report = server.worker_processes()[0]
            while time.monotonic() < deadline:
                report = server.worker_processes()[0]
                if report["alive"] and report["pid"] != victim:
                    break
                time.sleep(0.02)
            assert report["alive"] and report["pid"] != victim
            assert report["restarts"] >= 1
            assert not report["crash_looping"]
            result = server.submit("served by the respawn").result(timeout=60)
            assert len(result.probabilities) == 6

    def test_crash_loop_retires_slot_and_degrades_healthz(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine,
            workers=2,
            max_batch_size=2,
            supervisor_interval_s=0.05,
            respawn_backoff_base_s=0.01,
            crash_loop_threshold=2,
            crash_loop_window_s=60.0,
        )
        with ServingGateway(server) as gateway:
            server.wait_ready(timeout=120)
            # Kill slot 0 every time it comes back until the breaker
            # trips (threshold=2 deaths inside the window).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                report = server.worker_processes()[0]
                if report["crash_looping"]:
                    break
                if report["alive"]:
                    os.kill(report["pid"], signal.SIGKILL)
                time.sleep(0.02)
            report = server.worker_processes()[0]
            assert report["crash_looping"] and not report["alive"]

            # The retired slot stays retired: neither the supervisor,
            # ensure_workers, nor a healthz probe revives it.
            assert server.ensure_workers() == 0
            from repro.serving.client import ServingClient

            client = ServingClient(gateway.url, deadline_s=30)
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["processes"][0]["crash_looping"] is True
            assert health["processes"][1]["alive"] is True

            # The surviving worker still serves traffic.
            result = server.submit("one worker is enough").result(timeout=60)
            assert len(result.probabilities) == 6

    def test_respawn_backoff_spaces_out_attempts(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine,
            workers=1,
            max_batch_size=2,
            supervisor_interval_s=0.02,
            respawn_backoff_base_s=0.4,
            respawn_backoff_max_s=0.4,
            crash_loop_threshold=10,
        )
        with server:
            server.wait_ready(timeout=120)
            os.kill(server.worker_processes()[0]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                report = server.worker_processes()[0]
                if (
                    report["restarts"] >= 1
                    and report["alive"]
                    and report["pid"] is not None
                ):
                    break
                time.sleep(0.01)
            assert report["alive"] and report["pid"] is not None
            # Immediately kill the replacement: the next respawn must
            # wait out the per-slot backoff, not happen on the very next
            # supervisor sweep.
            os.kill(report["pid"], signal.SIGKILL)
            killed_at = time.monotonic()
            while time.monotonic() < killed_at + 30:
                report = server.worker_processes()[0]
                if report["restarts"] >= 2:
                    break
                time.sleep(0.01)
            assert report["restarts"] >= 2
            assert time.monotonic() - killed_at >= 0.3


# ----------------------------------------------------------------------
# Faults applied from outside the process
# ----------------------------------------------------------------------
class TestOutsideInFaults:
    """Signals at the pids ``/healthz`` reports, and injected latency.

    Nothing in the server is armed: a SIGKILL, a SIGSTOP or a slow
    backend is applied the way the kernel or a slow model would.
    """

    def test_sigkilled_healthz_pid_is_respawned_and_serves(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine,
            workers=1,
            max_batch_size=2,
            supervisor_interval_s=0.05,
            respawn_backoff_base_s=0.01,
        )
        with ServingGateway(server) as gateway:
            server.wait_ready(timeout=120)
            from repro.serving.client import ServingClient

            client = ServingClient(gateway.url, deadline_s=30)
            victim = client.healthz()["processes"][0]["pid"]
            assert kill_worker(victim)
            # Read-only wait: the supervisor alone must revive the slot,
            # with no probe and no traffic to do it instead.
            deadline = time.monotonic() + 60
            report = server.worker_processes()[0]
            while time.monotonic() < deadline:
                report = server.worker_processes()[0]
                if report["restarts"] >= 1 and report["alive"]:
                    break
                time.sleep(0.02)
            assert report["restarts"] >= 1
            assert report["alive"] and report["pid"] != victim
            assert client.predict("recovered from the crash").label

    def test_stopped_worker_holds_only_its_own_slot(self):
        server = ProcessInferenceServer.from_factory(
            make_hash_engine, workers=2, max_batch_size=1
        )
        with server:
            server.wait_ready(timeout=120)
            victim = server.worker_processes()[1]["pid"]
            observed: list[tuple[bool, bool]] = []
            stall = threading.Thread(
                target=lambda: observed.append(stall_worker(victim, 2.0)),
                daemon=False,
            )
            stall.start()
            try:
                time.sleep(0.3)
                futures = [server.submit(f"stalled {i}") for i in range(16)]
                # Slot 1 holds the one batch it sent into the stopped
                # process; slot 0 serves every other request meanwhile.
                _, pending = wait(futures, timeout=1.2)
                assert len(pending) == 1
            finally:
                stall.join(timeout=30)
            assert not stall.is_alive()
            assert observed == [(True, True)]
            for future in futures:
                assert len(future.result(timeout=30).probabilities) == 6
            report = server.worker_processes()[1]
            # A stopped process is alive: the supervisor left it alone.
            assert report["pid"] == victim and report["restarts"] == 0

    def test_injected_latency_is_rebuilt_inside_workers(self, lr_checkpoint):
        text = "a slow batch about sleep"
        server = ProcessInferenceServer.from_checkpoint(
            lr_checkpoint, workers=1, cache_size=0, inject_latency_ms=150.0
        )
        with server:
            server.wait_ready(timeout=120)
            started = time.monotonic()
            (result,) = server.predict([text], timeout=60)
            assert time.monotonic() - started >= 0.15
        expected = WellnessClassifier.load(lr_checkpoint).predict_proba([text])
        np.testing.assert_array_equal(result.probabilities, expected[0])


# ----------------------------------------------------------------------
# Admin reload endpoint (gateway + procserver end to end)
# ----------------------------------------------------------------------
class TestAdminReload:
    def _boot(self, lr_checkpoint, **gateway_kwargs):
        arrays, config = load_checkpoint(lr_checkpoint)
        server = ProcessInferenceServer(
            arrays=arrays,
            config=config,
            workers=1,
            max_batch_size=1,
            cache_size=64,
        )
        return server, ServingGateway(server, admin_token="hunter2", **gateway_kwargs)

    @staticmethod
    def _admin_post(url, path, body, token):
        import json as _json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            url + path,
            data=_json.dumps(body).encode(),
            headers={"Content-Type": "application/json", "X-Admin-Token": token},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, _json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, _json.loads(error.read())

    def test_reload_over_http_bumps_version_and_serves(self, lr_checkpoint):
        server, gateway = self._boot(lr_checkpoint)
        with gateway:
            server.wait_ready(timeout=120)
            status, payload = self._admin_post(
                gateway.url,
                "/v1/admin/reload",
                {"checkpoint": str(lr_checkpoint)},
                "hunter2",
            )
            assert status == 200, payload
            assert payload["status"] == "ok"
            assert payload["weights_version"] == 2
            result = server.submit("still serving after reload").result(timeout=60)
            assert len(result.probabilities) == 6

    def test_poisoned_weights_roll_back(self, lr_checkpoint, tmp_path):
        from repro.nn.serialization import save_checkpoint

        arrays, config = load_checkpoint(lr_checkpoint)
        # NaN the *intercepts*: a NaN coefficient row can be skipped
        # entirely by the sparse matmul when the probe text is
        # out-of-vocabulary, but the intercept lands in every logit.
        poisoned = {
            k: (np.full_like(v, np.nan) if k == "model.intercept_" else v)
            for k, v in arrays.items()
        }
        bad_path = save_checkpoint(
            tmp_path / "poisoned", arrays=poisoned, config=config
        )
        server, gateway = self._boot(lr_checkpoint)
        text = "a long walk cleared my head"
        with gateway:
            server.wait_ready(timeout=120)
            before = server.submit(text).result(timeout=60).probabilities
            status, payload = self._admin_post(
                gateway.url,
                "/v1/admin/reload",
                {"checkpoint": str(bad_path)},
                "hunter2",
            )
            # NaN intercepts fail the self-check prediction: the old
            # weights must already be back when the response lands.
            assert status == 500, payload
            assert payload["error"]["code"] == "self_check_failed"
            assert payload["rolled_back"] is True
            after = server.submit(text).result(timeout=60).probabilities
            np.testing.assert_array_equal(before, after)

    def test_missing_checkpoint_is_400(self, lr_checkpoint):
        server, gateway = self._boot(lr_checkpoint)
        with gateway:
            server.wait_ready(timeout=120)
            status, payload = self._admin_post(
                gateway.url,
                "/v1/admin/reload",
                {"checkpoint": "/nonexistent/nowhere"},
                "hunter2",
            )
            assert status == 400
            assert payload["error"]["code"] == "bad_request"

"""End-to-end loopback tests for the HTTP serving gateway.

Every test boots a real ``ServingGateway`` (stdlib ThreadingHTTPServer)
on an ephemeral loopback port and drives it over actual sockets with
``ServingClient`` — covering byte-identical parity with the in-process
engine, request validation, 429 shed / 503 drain error mapping, client
retry + deadline semantics, Prometheus metrics consistency, and graceful
shutdown.  Stub backends keep the model cost at microseconds; one test
serves a real fitted LR baseline for whole-stack parity.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine.engine import PredictionEngine
from repro.engine.server import InferenceServer
from repro.serving.client import (
    GatewayOverloaded,
    GatewayUnavailable,
    ServingClient,
    ServingError,
)
from repro.serving.gateway import ServingGateway
from repro.serving.metrics import parse_metrics
from repro.serving.protocol import MAX_BATCH_TEXTS


class DeterministicBackend:
    """Probabilities as a pure function of the text — the parity oracle."""

    n_classes = 6

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        rows = np.empty((len(texts), 6), dtype=np.float64)
        for i, text in enumerate(texts):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            vals = np.frombuffer(digest[:6], dtype=np.uint8).astype(np.float64) + 1.0
            rows[i] = vals / vals.sum()
        return rows


class SlowBackend(DeterministicBackend):
    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        time.sleep(self.delay_s)
        return super().proba_batch(texts)


def make_engine(backend=None, **kwargs) -> PredictionEngine:
    return PredictionEngine(
        backend or DeterministicBackend(), model_id="stub", **kwargs
    )


@contextmanager
def gateway_over(
    backend=None,
    *,
    request_timeout_s: float = 30.0,
    admin_token: str | None = None,
    **server_kwargs,
):
    server = InferenceServer(make_engine(backend), **server_kwargs)
    gateway = ServingGateway(
        server, request_timeout_s=request_timeout_s, admin_token=admin_token
    )
    with gateway:
        yield gateway, server


class TestPredictParity:
    def test_predict_matches_in_process_engine_exactly(self):
        texts = [f"post {i} about wellbeing and work" for i in range(12)]
        oracle = make_engine().predict_proba(texts)
        with gateway_over() as (gateway, _):
            client = ServingClient(gateway.url, deadline_s=10)
            for text, expected in zip(texts, oracle):
                response = client.predict(text)
                assert response.model_id == "stub"
                assert response.served_by is not None
                assert response.served_by.model == "default"
                got = list(response.probabilities.values())
                # Byte-level parity: JSON round-trips repr(float), which
                # is exact, and the gateway replica runs the same code.
                assert got == [float(p) for p in expected]
                assert list(response.probabilities) == [
                    "IA", "VA", "SpiA", "PA", "SA", "EA",
                ]
                assert response.label == [
                    "IA", "VA", "SpiA", "PA", "SA", "EA",
                ][int(np.argmax(expected))]

    def test_predict_batch_matches_and_preserves_order(self):
        texts = [f"batch item {i}" for i in range(40)]
        oracle = make_engine().predict_proba(texts)
        with gateway_over() as (gateway, _):
            client = ServingClient(gateway.url, deadline_s=10)
            response = client.predict_batch(texts)
            assert len(response.predictions) == len(texts)
            for row, expected in zip(response.predictions, oracle):
                assert list(row.probabilities.values()) == [
                    float(p) for p in expected
                ]

    def test_top_k_is_ranked_and_truncated(self):
        with gateway_over() as (gateway, _):
            client = ServingClient(gateway.url, deadline_s=10)
            response = client.predict("rank these dimensions", top_k=3)
            assert response.probabilities is None
            ranked = response.top_k
            assert len(ranked) == 3
            probs = [entry["probability"] for entry in ranked]
            assert probs == sorted(probs, reverse=True)
            assert ranked[0]["label"] == response.label

    def test_real_lr_baseline_served_end_to_end(self, small_dataset):
        from repro.core.pipeline import WellnessClassifier

        instances = list(small_dataset)
        classifier = WellnessClassifier("LR").fit(instances[:100])
        texts = [inst.text for inst in instances[100:108]]
        expected = classifier.predict_proba(texts)
        server = InferenceServer(classifier.engine, workers=2)
        with ServingGateway(server, baseline="LR") as gateway:
            client = ServingClient(gateway.url, deadline_s=30)
            response = client.predict_batch(texts)
            for row, probs in zip(response.predictions, expected):
                assert list(row.probabilities.values()) == [
                    float(p) for p in probs
                ]
            models = client.models()
            loaded = [m["name"] for m in models["registry"] if m["loaded"]]
            assert loaded == ["LR"]
            assert len(models["registry"]) == 9
            assert models["default_model"] == "default"
            (entry,) = models["models"]
            assert entry["baseline"] == "LR"
            assert entry["state"] == "serving"
            assert entry["traffic_share"] == 1.0


class TestValidation:
    @pytest.fixture()
    def client(self):
        with gateway_over() as (gateway, _):
            yield ServingClient(gateway.url, deadline_s=5)

    def _status_and_code(self, excinfo) -> tuple[int, str]:
        return excinfo.value.status, excinfo.value.code

    def test_invalid_json_is_400(self, client):
        request = urllib.request.Request(
            client.base_url + "/v1/predict",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "bad_json"

    def test_missing_and_empty_text(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.predict("")
        assert self._status_and_code(excinfo) == (400, "bad_request")
        request = urllib.request.Request(
            client.base_url + "/v1/predict",
            data=json.dumps({"post": "x"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_top_k_bounds(self, client):
        for bad in (0, 7, -1):
            with pytest.raises(ServingError) as excinfo:
                client.predict("hello", top_k=bad)
            assert self._status_and_code(excinfo) == (400, "bad_request")

    def test_batch_must_be_nonempty_list_of_strings(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.predict_batch([])
        assert self._status_and_code(excinfo) == (400, "bad_request")
        with pytest.raises(ServingError) as excinfo:
            client.predict_batch(["ok", 5])  # type: ignore[list-item]
        assert self._status_and_code(excinfo) == (400, "bad_request")

    def test_oversized_batch_is_413(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.predict_batch(["x"] * (MAX_BATCH_TEXTS + 1))
        assert self._status_and_code(excinfo) == (413, "payload_too_large")

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._call("GET", "/v1/nope", None, 5)
        assert self._status_and_code(excinfo) == (404, "not_found")

    def test_missing_content_length_is_411(self, client):
        host, port = client.base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.putrequest("POST", "/v1/predict", skip_accept_encoding=True)
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 411
            assert json.loads(response.read())["error"]["code"] == "length_required"
        finally:
            conn.close()


class TestBackpressureAndErrors:
    def test_shed_maps_to_429_with_retry_after(self):
        with gateway_over(
            SlowBackend(0.05),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="shed",
        ) as (gateway, _):
            url = gateway.url + "/v1/predict"
            statuses: list[int] = []
            retry_after: list[str | None] = []

            def hammer(i: int) -> None:
                request = urllib.request.Request(
                    url,
                    data=json.dumps({"text": f"req {i}"}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        statuses.append(resp.status)
                except urllib.error.HTTPError as error:
                    statuses.append(error.code)
                    retry_after.append(error.headers.get("Retry-After"))
                    error.read()

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert 429 in statuses, statuses
            assert 200 in statuses, statuses
            assert all(value == "1" for value in retry_after)
            snapshot = gateway.server.stats.snapshot()
            assert snapshot.shed == statuses.count(429)

    def test_client_retries_429_until_capacity(self):
        with gateway_over(
            SlowBackend(0.02),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="shed",
        ) as (gateway, _):
            client = ServingClient(
                gateway.url, deadline_s=30, retry_base_s=0.01, retry_max_s=0.05
            )
            results = []
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(client.predict(f"r {i}"))
                )
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Every client eventually got served despite shed rejections.
            assert len(results) == 12
            assert all(r.label for r in results)

    def test_client_deadline_raises_overloaded(self):
        with gateway_over(
            SlowBackend(0.5),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="shed",
        ) as (gateway, server):
            # Occupy the only worker for 0.5 s and fill the queue via
            # the in-process API, so every HTTP attempt inside the
            # client's 0.3 s deadline deterministically sheds.
            first = server.submit("occupy the worker")
            time.sleep(0.05)  # worker picks the first request up
            second = server.submit("fill the queue")
            client = ServingClient(
                gateway.url, deadline_s=0.3, retry_base_s=0.02, retry_max_s=0.05
            )
            started = time.monotonic()
            with pytest.raises(GatewayOverloaded):
                client.predict("impatient")
            assert time.monotonic() - started < 2.0
            assert first.result(timeout=10).label
            assert second.result(timeout=10).label

    def test_engine_timeout_maps_to_504(self):
        with gateway_over(
            SlowBackend(0.5), request_timeout_s=0.05, workers=1
        ) as (gateway, _):
            client = ServingClient(gateway.url, deadline_s=10)
            with pytest.raises(ServingError) as excinfo:
                client.predict("too slow")
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"


class TestRetryJitter:
    """Backoff jitter: desynchronise a shed herd without losing retries."""

    def test_jitter_zero_reproduces_deterministic_schedule(self):
        client = ServingClient(
            "http://127.0.0.1:1",
            retry_base_s=0.05,
            retry_max_s=2.0,
            retry_jitter=0.0,
        )
        for attempt in range(8):
            expected = min(2.0, 0.05 * 2**attempt)
            assert client._backoff_s(attempt, None) == expected
        # The server's Retry-After hint is honoured exactly too.
        assert client._backoff_s(0, "1.5") == 1.5
        assert client._backoff_s(0, "10") == 2.0  # capped

    def test_jitter_bounded_and_seed_reproducible(self):
        def draws(seed: int) -> list[float]:
            client = ServingClient(
                "http://127.0.0.1:1",
                retry_base_s=0.05,
                retry_max_s=2.0,
                retry_jitter=0.5,
                retry_seed=seed,
            )
            return [client._backoff_s(a % 6, None) for a in range(50)]

        first = draws(42)
        for a, value in enumerate(first):
            full = min(2.0, 0.05 * 2 ** (a % 6))
            assert 0.5 * full <= value <= full
        assert first == draws(42)  # seeded: reproducible
        assert first != draws(43)  # distinct clients decorrelate

    def test_unseeded_clients_do_not_retry_in_lockstep(self):
        # The herd case: every client gets the same Retry-After hint,
        # but their jittered sleeps must differ.
        a = ServingClient("http://127.0.0.1:1", retry_jitter=0.5)
        b = ServingClient("http://127.0.0.1:1", retry_jitter=0.5)
        assert [a._backoff_s(0, "1") for _ in range(20)] != [
            b._backoff_s(0, "1") for _ in range(20)
        ]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            ServingClient("http://127.0.0.1:1", retry_jitter=1.5)

    def test_many_jittered_clients_all_survive_a_shedding_server(self):
        """The regression this feature exists for: a herd of clients
        against an undersized shed-mode server must all eventually get
        served — sheds happen, retries (jittered, per-client RNG) drain
        the herd within every client's deadline.
        """
        with gateway_over(
            SlowBackend(0.02),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="shed",
        ) as (gateway, _):
            results: list[dict] = []
            errors: list[Exception] = []
            lock = threading.Lock()

            def one_client(i: int) -> None:
                client = ServingClient(
                    gateway.url,
                    deadline_s=30,
                    retry_base_s=0.01,
                    retry_max_s=0.05,
                    retry_jitter=0.5,
                    retry_seed=i,
                )
                try:
                    response = client.predict(f"herd member {i}")
                    with lock:
                        results.append(response)
                except Exception as error:  # noqa: BLE001 - asserted below
                    with lock:
                        errors.append(error)

            threads = [
                threading.Thread(target=one_client, args=(i,)) for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert len(results) == 16
            assert all(r.label for r in results)
            # The server really shed under this herd — the retries were
            # load-bearing, not decorative.
            assert gateway.server.stats.snapshot().shed > 0


class TestLifecycle:
    def test_healthz_flips_to_503_after_drain(self):
        with gateway_over() as (gateway, server):
            client = ServingClient(gateway.url, deadline_s=5)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["workers"] == server.workers
            server.drain()
            with pytest.raises(GatewayUnavailable):
                client.healthz()
            with pytest.raises(GatewayUnavailable) as excinfo:
                client.predict("after drain")
            assert excinfo.value.code == "unavailable"

    def test_predict_after_server_stop_is_503(self):
        with gateway_over() as (gateway, server):
            client = ServingClient(gateway.url, deadline_s=5)
            assert client.predict("warm").label
            server.stop()
            with pytest.raises(GatewayUnavailable) as excinfo:
                client.predict("cold")
            assert excinfo.value.status == 503

    def test_stop_finishes_in_flight_requests(self):
        server = InferenceServer(
            make_engine(SlowBackend(0.1)), workers=1, max_batch_size=1
        )
        gateway = ServingGateway(server).start()
        client = ServingClient(gateway.url, deadline_s=30)
        results: list[dict] = []
        thread = threading.Thread(
            target=lambda: results.append(client.predict("in flight"))
        )
        thread.start()
        time.sleep(0.03)  # request is admitted and being served
        gateway.stop()
        thread.join(timeout=10)
        assert results and results[0].label
        assert not server.running

    def test_stop_is_idempotent_and_port_closes(self):
        gateway_port: int
        with gateway_over() as (gateway, _):
            gateway_port = gateway.port
            client = ServingClient(gateway.url, deadline_s=5)
            client.predict("ping")
        gateway.stop()  # second stop: no-op
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(
                f"http://127.0.0.1:{gateway_port}/healthz", timeout=2
            )

    def test_stop_leaves_caller_managed_server_untouched(self):
        # A server the caller started is not the gateway's to drain:
        # after gateway.stop() it must still accept and serve, and a
        # fresh gateway over it must become ready again.
        server = InferenceServer(make_engine(), workers=1).start()
        try:
            with ServingGateway(server) as gateway:
                ServingClient(gateway.url, deadline_s=5).predict("via http")
            assert server.running and server.accepting
            assert server.submit("still in-process").result(timeout=10).label
            with ServingGateway(server) as gateway:
                health = ServingClient(gateway.url, deadline_s=5).healthz()
                assert health["status"] == "ok"
        finally:
            server.stop()

    def test_ephemeral_ports_do_not_collide(self):
        with gateway_over() as (first, _), gateway_over() as (second, _):
            assert first.port != second.port
            assert ServingClient(first.url).healthz()["status"] == "ok"
            assert ServingClient(second.url).healthz()["status"] == "ok"


class TestMetrics:
    def test_metrics_parse_and_match_request_counts(self):
        with gateway_over(workers=2) as (gateway, server):
            client = ServingClient(gateway.url, deadline_s=10)
            n_single, batch_sizes = 7, [3, 5]
            for i in range(n_single):
                client.predict(f"single {i}")
            for size in batch_sizes:
                client.predict_batch([f"batch {size} item {j}" for j in range(size)])
            text = client.metrics_text()
            samples = parse_metrics(text)  # raises on malformed lines

            def value(name: str, **labels: str) -> float:
                return samples[(name, frozenset(labels.items()))]

            total_texts = n_single + sum(batch_sizes)
            assert value(
                "holistix_http_requests_total",
                endpoint="/v1/predict",
                status="200",
            ) == n_single
            assert value(
                "holistix_http_requests_total",
                endpoint="/v1/predict_batch",
                status="200",
            ) == len(batch_sizes)
            assert value("holistix_server_requests_total") == total_texts
            assert value("holistix_server_latency_ms_count") == total_texts
            per_worker = [
                value("holistix_worker_requests_total", worker=str(i))
                for i in range(server.workers)
            ]
            assert sum(per_worker) == total_texts
            assert value("holistix_ready", model_id="stub") == 1
            for q in ("0.5", "0.95", "0.99"):
                assert value("holistix_server_latency_ms", quantile=q) >= 0.0
            # All unique texts -> all cache misses so far.  Repeats of
            # one text may land on either replica; after 4 repeats at
            # most 2 are first-touch misses, so hits must appear.
            assert value("holistix_engine_cache_hit_rate") == 0.0
            for _ in range(4):
                client.predict("single 0")
            hits = ServingClient(gateway.url).metrics()[
                ("holistix_engine_cache_hits_total", frozenset())
            ]
            assert hits >= 2

    def test_label_values_with_commas_and_quotes_round_trip(self):
        from repro.engine.engine import EngineStats
        from repro.serving.metrics import render_metrics

        tricky = 'LR@my,check"point\\v1'
        server = InferenceServer(make_engine())
        with server:
            text = render_metrics(
                server.stats.snapshot(),
                EngineStats(),
                {},
                ready=True,
                model_id=tricky,
            )
        samples = parse_metrics(text)
        assert samples[("holistix_ready", frozenset({("model_id", tricky)}))] == 1

    def test_shed_counter_and_ready_gauge(self):
        with gateway_over(
            SlowBackend(0.1),
            workers=1,
            max_batch_size=1,
            max_queue=1,
            overload="shed",
        ) as (gateway, server):
            client = ServingClient(gateway.url, deadline_s=10)
            statuses = []

            def fire(i: int) -> None:
                # No retries: each HTTP 429 is exactly one shed on the
                # server side, so the counters can be compared.
                try:
                    client.predict(f"s {i}", retry_on_overload=False)
                    statuses.append(200)
                except GatewayOverloaded:
                    statuses.append(429)

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            shed = statuses.count(429)
            samples = client.metrics()
            assert samples[("holistix_server_shed_total", frozenset())] == shed
            expected_rate = shed / len(statuses) if statuses else 0.0
            assert samples[("holistix_server_shed_rate", frozenset())] == (
                pytest.approx(expected_rate)
            )
            server.drain()
            samples = client.metrics()
            assert samples[("holistix_ready", frozenset({("model_id", "stub")}))] == 0


class TestServeCli:
    """``holistix-serve`` reports a bad setting as a usage error, not a traceback."""

    @pytest.fixture(scope="class")
    def checkpoint(self, small_dataset, tmp_path_factory):
        from repro.core.pipeline import WellnessClassifier

        path = tmp_path_factory.mktemp("serve-cli") / "lr"
        return WellnessClassifier("LR").fit(small_dataset.instances).save(path)

    @pytest.mark.parametrize("flag", ["--workers", "--max-queue", "--max-batch-size"])
    def test_bad_pool_setting_is_a_usage_error(self, checkpoint, flag, capsys):
        from repro.serving.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--checkpoint", str(checkpoint), "--port", "0", flag, "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err
        assert "Traceback" not in err

    def test_missing_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        from repro.serving.cli import main

        missing = tmp_path / "no-such-checkpoint"
        with pytest.raises(SystemExit) as excinfo:
            main(["--checkpoint", str(missing), "--port", "0"])
        assert excinfo.value.code == 2
        assert str(missing) in capsys.readouterr().err

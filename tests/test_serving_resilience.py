"""Resilience-primitive tests: client breaker/budget, deadline
propagation, HTTP response faults, and the admin surface.

Client-side mechanics (circuit breaker, retry budget, Retry-After
hardening, transport retries) are tested against a scripted transport;
deadline shedding and the admin endpoints run over a real loopback
gateway, and response faults through a fault proxy in front of one.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from benchmarks.faults import FaultProxy
from repro.serving.client import (
    CircuitOpen,
    GatewayUnavailable,
    ServingClient,
    ServingError,
)
from tests.test_serving_http import SlowBackend, gateway_over


def make_client(**kwargs) -> ServingClient:
    defaults = dict(
        deadline_s=5.0,
        retry_base_s=0.001,
        retry_max_s=0.01,
        retry_jitter=0.0,
        retry_seed=0,
    )
    defaults.update(kwargs)
    return ServingClient("http://127.0.0.1:1", **defaults)


class ScriptedTransport:
    """Replaces ``ServingClient._request_full`` with a canned sequence.

    Each step is either an exception instance (raised) or a
    ``(status, body_bytes, headers)`` tuple.  The last step repeats
    forever; every call's ``extra_headers`` is recorded.
    """

    def __init__(self, steps) -> None:
        self.steps = list(steps)
        self.calls = 0
        self.seen_headers: list[dict | None] = []

    def __call__(self, method, path, body, timeout_s, *, extra_headers=None):
        self.seen_headers.append(extra_headers)
        step = self.steps[min(self.calls, len(self.steps) - 1)]
        self.calls += 1
        if isinstance(step, Exception):
            raise step
        return step


def ok_response(payload=None):
    body = json.dumps(payload or {"label": "IA", "latency_ms": 1.0}).encode()
    return (200, body, {})


def error_response(status, code, retry_after=None):
    body = json.dumps({"error": {"code": code, "message": code}}).encode()
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    return (status, body, headers)


class _LowercaseRetryAfterHandler(BaseHTTPRequestHandler):
    """Answers the first POST 429 with ``retry-after: 0``, then 200s.

    HTTP/2-terminating proxies forward header names in lowercase.
    """

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.answered += 1
        if self.server.answered == 1:
            status, payload = 429, {"error": {"code": "overloaded", "message": "x"}}
        else:
            status, payload = 200, {"label": "IA", "latency_ms": 1.0}
        body = json.dumps(payload).encode()
        self.send_response(status)
        if status == 429:
            self.send_header("retry-after", "0")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


class _FlakyHealthzHandler(BaseHTTPRequestHandler):
    """Truncates the first ``/healthz`` body, then answers ready."""

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:
        self.server.polls += 1
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        if self.server.polls == 1:
            body = body[: len(body) // 2]
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, format, *args) -> None:
        pass


class TestWaitReady:
    def test_a_truncated_healthz_body_is_polled_again(self):
        stub = HTTPServer(("127.0.0.1", 0), _FlakyHealthzHandler)
        stub.polls = 0
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServingClient(f"http://127.0.0.1:{stub.server_port}")
            assert client.wait_ready(deadline_s=10.0) == {"status": "ok"}
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5)
        assert stub.polls == 2


class TestRetryAfterHardening:
    @pytest.mark.parametrize(
        "hint",
        ["nan", "inf", "-inf", "abc", "", " ", "1e400", "-5", "1e308", "9" * 40],
    )
    def test_garbage_hints_clamp_to_cap_and_never_raise(self, hint):
        client = make_client(retry_max_s=0.25)
        backoff = client._backoff_s(0, hint)
        assert 0.0 <= backoff <= 0.25

    def test_valid_hint_honoured_but_capped(self):
        client = make_client(retry_max_s=0.25)
        assert client._backoff_s(0, "0.1") == pytest.approx(0.1)
        assert client._backoff_s(0, "100") == pytest.approx(0.25)
        assert client._backoff_s(0, "-1") == 0.0

    def test_garbage_hint_over_the_wire_does_not_stall_the_call(self):
        # A 429 carrying Retry-After: nan must back off by the capped
        # schedule, not sleep NaN (which would raise) or forever.
        transport = ScriptedTransport(
            [error_response(429, "overloaded", retry_after="nan"), ok_response()]
        )
        client = make_client()
        client._request_full = transport
        start = time.monotonic()
        assert client.predict("hello").label == "IA"
        assert time.monotonic() - start < 1.0
        assert transport.calls == 2

    def test_lowercase_retry_after_is_honoured(self):
        # The client's own backoff (5 s) cannot fit the 1 s deadline, so
        # the call succeeds only if the server's hint of 0 s is read.
        stub = HTTPServer(("127.0.0.1", 0), _LowercaseRetryAfterHandler)
        stub.answered = 0
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServingClient(
                f"http://127.0.0.1:{stub.server_port}",
                deadline_s=1.0,
                retry_base_s=5.0,
                retry_max_s=5.0,
                retry_jitter=0.0,
            )
            assert client.predict("hello").label == "IA"
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5)
        assert stub.answered == 2


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        transport = ScriptedTransport([OSError("connection refused")])
        client = make_client(
            breaker_threshold=3, breaker_cooldown_s=60.0, retry_budget=0.0
        )
        client._request_full = transport
        for _ in range(3):
            with pytest.raises(OSError):
                client.predict("x")
        # Circuit now open: the next call never touches the transport.
        with pytest.raises(CircuitOpen) as excinfo:
            client.predict("x")
        assert excinfo.value.status == 503
        assert transport.calls == 3
        stats = client.stats()
        assert stats["breaker_state"] == "open"
        assert stats["breaker_opens"] == 1
        assert stats["breaker_rejections"] == 1

    def test_half_open_probe_closes_on_success(self):
        transport = ScriptedTransport([OSError("boom")])
        client = make_client(
            breaker_threshold=2, breaker_cooldown_s=0.05, retry_budget=0.0
        )
        client._request_full = transport
        for _ in range(2):
            with pytest.raises(OSError):
                client.predict("x")
        assert client.stats()["breaker_state"] == "open"
        time.sleep(0.06)
        transport.steps = [ok_response()]
        assert client.predict("x").label == "IA"
        assert client.stats()["breaker_state"] == "closed"

    def test_half_open_probe_failure_reopens(self):
        transport = ScriptedTransport([OSError("boom")])
        client = make_client(
            breaker_threshold=2, breaker_cooldown_s=0.05, retry_budget=0.0
        )
        client._request_full = transport
        for _ in range(2):
            with pytest.raises(OSError):
                client.predict("x")
        time.sleep(0.06)
        with pytest.raises(OSError):
            client.predict("x")  # the probe itself fails
        stats = client.stats()
        assert stats["breaker_state"] == "open"
        assert stats["breaker_opens"] == 2
        # And the fresh open enforces its own cooldown again.
        with pytest.raises(CircuitOpen):
            client.predict("x")

    def test_any_http_response_counts_as_transport_success(self):
        # A 4xx proves the transport path works; it must reset the
        # consecutive-failure streak even though the call raises.
        client = make_client(breaker_threshold=2, retry_budget=0.0)
        client._request_full = ScriptedTransport(
            [
                OSError("flake"),
                error_response(400, "bad_request"),
                OSError("flake"),
                error_response(400, "bad_request"),
            ]
        )
        for _ in range(2):
            with pytest.raises(OSError):
                client.predict("x")
            with pytest.raises(ServingError):
                client.predict("x")
        assert client.stats()["breaker_state"] == "closed"

    def test_breaker_does_not_gate_non_resilient_paths(self):
        client = make_client(retry_budget=0.0)
        client._request_full = ScriptedTransport([OSError("refused")])
        with pytest.raises(OSError):
            client.models()
        stats = client.stats()
        assert stats["transport_failures"] == 0
        assert stats["breaker_state"] == "closed"


class TestRetryBudget:
    def test_transport_retries_until_budget_exhausted(self):
        transport = ScriptedTransport([ConnectionResetError("reset")])
        client = make_client(retry_budget=3.0, breaker_threshold=100)
        client._request_full = transport
        with pytest.raises(ConnectionResetError):
            client.predict("x")
        # 1 initial attempt + 3 budgeted retries.
        assert transport.calls == 4
        stats = client.stats()
        assert stats["retries"] == 3
        assert stats["retry_budget_remaining"] == 0.0
        assert stats["retry_budget_exhausted"] == 1

    def test_successes_refund_credit_up_to_cap(self):
        transport = ScriptedTransport([ok_response()])
        client = make_client(retry_budget=2.0, retry_credit=0.5)
        client._request_full = transport
        client._tokens = 0.0
        for _ in range(10):
            client.predict("x")
        # Refunds cap at the configured budget, never above.
        assert client.stats()["retry_budget_remaining"] == 2.0

    def test_transient_flake_recovers_and_spends_one_token(self):
        transport = ScriptedTransport([OSError("flake"), ok_response()])
        client = make_client(retry_budget=4.0, breaker_threshold=100)
        client._request_full = transport
        assert client.predict("x").label == "IA"
        stats = client.stats()
        assert stats["retries"] == 1
        # One token spent, half a credit refunded by the success.
        assert stats["retry_budget_remaining"] == pytest.approx(3.5)

    def test_malformed_2xx_body_is_retried(self):
        transport = ScriptedTransport(
            [(200, b"{this is not json", {}), ok_response()]
        )
        client = make_client(breaker_threshold=100)
        client._request_full = transport
        assert client.predict("x").label == "IA"
        assert transport.calls == 2


class TestBackendFailureRetry:
    def test_backend_failure_503_is_retried(self):
        transport = ScriptedTransport(
            [
                error_response(503, "backend_failure"),
                error_response(503, "backend_failure"),
                ok_response(),
            ]
        )
        client = make_client()
        client._request_full = transport
        assert client.predict("x").label == "IA"
        assert transport.calls == 3
        assert client.stats()["retries"] == 2

    def test_draining_503_stays_terminal(self):
        transport = ScriptedTransport([error_response(503, "unavailable")])
        client = make_client()
        client._request_full = transport
        with pytest.raises(GatewayUnavailable):
            client.predict("x")
        assert transport.calls == 1

    def test_deadline_header_sent_and_shrinks_across_retries(self):
        transport = ScriptedTransport(
            [error_response(503, "backend_failure"), ok_response()]
        )
        client = make_client(deadline_s=5.0, retry_base_s=0.02)
        client._request_full = transport
        client.predict("x")
        headers = transport.seen_headers
        assert len(headers) == 2
        first = int(headers[0]["X-Deadline-Ms"])
        second = int(headers[1]["X-Deadline-Ms"])
        assert 0 < first <= 5000
        assert second < first  # backoff time came out of the budget

    def test_non_resilient_paths_send_no_deadline_header(self):
        transport = ScriptedTransport([ok_response({"models": []})])
        client = make_client()
        client._request_full = transport
        client.models()
        assert transport.seen_headers == [None]


def _post(url, path, body, headers=None, timeout=10.0):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode() if isinstance(body, dict) else body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestDeadlineShedding:
    def test_starved_budget_is_shed_with_504_and_counted(self):
        backend = SlowBackend(0.05)
        with gateway_over(backend, workers=1) as (gateway, server):
            # Prime the p50 estimate past the minimum-sample threshold.
            texts = [f"warm {i}" for i in range(60)]
            status, _ = _post(gateway.url, "/v1/predict_batch", {"texts": texts})
            assert status == 200
            assert gateway.observed_p50_ms() > 0.0
            # 1ms of budget cannot cover a ~50ms p50: shed up front.
            status, payload = _post(
                gateway.url,
                "/v1/predict",
                {"text": "too late"},
                headers={"X-Deadline-Ms": "1"},
            )
            assert status == 504
            assert payload["error"]["code"] == "deadline_shed"
            snapshot = server.stats.snapshot()
            assert snapshot.deadline_shed == 1
            assert snapshot.shed == 0  # counted apart from overload sheds

    def test_timed_out_request_is_not_served(self):
        """Regression: a single-text request answered 504 stayed queued,
        and the worker later served a text nobody would read."""

        class Gated(SlowBackend):
            def __init__(self) -> None:
                super().__init__(0.2)
                self.entered = threading.Event()

            def proba_batch(self, texts):
                self.entered.set()
                return super().proba_batch(texts)

        backend = Gated()
        with gateway_over(backend, workers=1) as (gateway, server):
            first: list = []
            occupy = threading.Thread(
                target=lambda: first.append(
                    _post(gateway.url, "/v1/predict", {"text": "occupy"})
                )
            )
            occupy.start()
            assert backend.entered.wait(timeout=10)  # the only worker is busy
            status, payload = _post(
                gateway.url,
                "/v1/predict",
                {"text": "too slow"},
                headers={"X-Deadline-Ms": "50"},
            )
            occupy.join(timeout=10)
            time.sleep(0.4)  # both would have been served by now
            assert status == 504
            assert payload["error"]["code"] == "deadline_exceeded"
            assert first and first[0][0] == 200
            assert server.stats.snapshot().requests == 1

    def test_generous_budget_is_served(self):
        backend = SlowBackend(0.01)
        with gateway_over(backend, workers=1) as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/predict",
                {"text": "plenty of time"},
                headers={"X-Deadline-Ms": "30000"},
            )
            assert status == 200 and "label" in payload

    def test_malformed_deadline_header_is_ignored(self):
        with gateway_over() as (gateway, _server):
            for value in ("nan", "inf", "-3", "abc", ""):
                status, payload = _post(
                    gateway.url,
                    "/v1/predict",
                    {"text": "fine"},
                    headers={"X-Deadline-Ms": value},
                )
                assert status == 200, (value, payload)

    def test_no_shedding_before_minimum_samples(self):
        # With a cold p50 estimate the gateway must not guess: even a
        # tiny budget is *admitted* until enough requests were observed.
        # (It may still time out inside the engine — deadline_exceeded —
        # but it must never be pre-emptively deadline_shed.)
        with gateway_over() as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/predict",
                {"text": "cold start"},
                headers={"X-Deadline-Ms": "1"},
            )
            if status != 200:
                assert payload["error"]["code"] == "deadline_exceeded"
            assert _server.stats.snapshot().deadline_shed == 0


class TestAdminSurface:
    def test_admin_disabled_is_404(self):
        with gateway_over() as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/admin/reload",
                {"checkpoint": "/nope"},
                headers={"X-Admin-Token": "anything"},
            )
            assert status == 404
            assert payload["error"]["code"] == "not_found"

    def test_wrong_token_is_403(self):
        with gateway_over(admin_token="s3cret") as (gateway, _server):
            for headers in ({}, {"X-Admin-Token": "wrong"}):
                status, payload = _post(
                    gateway.url, "/v1/admin/reload", {"checkpoint": "/x"}, headers
                )
                assert status == 403
                assert payload["error"]["code"] == "forbidden"

    def test_reload_on_threaded_server_is_409(self):
        with gateway_over(admin_token="s3cret") as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/admin/reload",
                {"checkpoint": "/tmp/whatever"},
                headers={"X-Admin-Token": "s3cret"},
            )
            assert status == 409
            assert payload["error"]["code"] == "reload_unsupported"

    def test_reload_requires_checkpoint_field(self):
        with gateway_over(admin_token="s3cret") as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/admin/reload",
                {},
                headers={"X-Admin-Token": "s3cret"},
            )
            assert status == 400

    def test_chaos_route_is_gone_even_with_a_valid_token(self):
        plan = {"plan_version": 1, "seed": 0, "events": []}
        with gateway_over(admin_token="s3cret") as (gateway, _server):
            status, payload = _post(
                gateway.url,
                "/v1/admin/chaos",
                {"plan": plan},
                headers={"X-Admin-Token": "s3cret"},
            )
            assert status == 404
            assert payload["error"]["code"] == "not_found"
            text = ServingClient(gateway.url).metrics_text()
            assert "holistix_chaos" not in text


class TestChaosHttpFaults:
    """Response faults applied by a proxy between the client and the gateway."""

    @contextmanager
    def proxied(self, kind, count, **client_kwargs):
        with gateway_over() as (gateway, _server), FaultProxy(gateway.port) as proxy:
            proxy.fault_next(kind, count)
            client = ServingClient(
                proxy.url,
                deadline_s=10.0,
                retry_base_s=0.01,
                retry_jitter=0.0,
                **client_kwargs,
            )
            yield client, proxy

    def test_socket_reset_fault_then_clean_recovery(self):
        with self.proxied("reset", 1) as (client, proxy):
            # The single reset is absorbed by a transport retry.
            assert client.predict("ride out the reset").label
            assert client.stats()["transport_failures"] == 1
            assert [kind for _, kind in proxy.faulted()] == ["reset"]

    def test_truncated_response_fault_is_retried(self):
        with self.proxied("truncate", 1) as (client, _proxy):
            assert client.predict("survive truncation").label
            assert client.stats()["transport_failures"] == 1

    def test_malformed_response_fault_is_retried(self):
        with self.proxied("garble", 2) as (client, _proxy):
            assert client.predict("survive garbage json").label
            assert client.stats()["transport_failures"] == 2

    def test_fault_count_is_exact_under_concurrent_connections(self):
        # A breaker that cannot open: the five faults may land back to back.
        with self.proxied("garble", 5, breaker_threshold=100) as (client, proxy):
            labels: list[str] = []

            def race(i: int) -> None:
                labels.append(client.predict(f"racer {i}").label)

            threads = [
                threading.Thread(target=race, args=(i,), daemon=False)
                for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(labels) == 16
            assert len(proxy.faulted()) == 5
            assert client.stats()["transport_failures"] == 5

    def test_cleared_faults_are_never_applied(self):
        with self.proxied("reset", 3) as (client, proxy):
            assert proxy.clear() == 3
            assert client.predict("nothing left to fault").label
            assert proxy.faulted() == []
            assert client.stats()["transport_failures"] == 0

"""Threaded HTTP gateway over a fleet of replicated inference servers.

``ServingGateway`` binds a stdlib :class:`http.server.ThreadingHTTPServer`
(no third-party dependencies) in front of a
:class:`~repro.serving.fleet.ModelFleet` — N named
:class:`~repro.engine.server.BatchingServerBase`-backed worker pools —
and speaks the JSON wire protocol defined in
:mod:`repro.serving.protocol`:

* ``POST /v1/predict`` — one text in, label + probabilities out, with a
  ``served_by`` envelope naming the fleet entry (and weights version)
  that answered.  An optional ``model`` field routes explicitly; an
  optional ``request_id`` pins the A/B split assignment.
* ``POST /v1/predict_batch`` — up to ``MAX_BATCH_TEXTS`` texts at once,
  all routed to the same entry.
* ``GET /healthz`` — readiness (workers started, model loaded, not
  draining); load balancers should route on this.
* ``GET /metrics`` — Prometheus text format: per-model counters and
  latency quantiles from each entry's ``ServerStats.snapshot()`` plus
  the aggregate families fed by the default entry.
* ``GET /v1/models`` — the fleet status document: per-model state,
  pool size, traffic share, weights version, shed/latency counters,
  plus the baseline registry listing.

A bare :class:`BatchingServerBase` is still accepted and wrapped as a
one-entry fleet (:meth:`ModelFleet.single`) — the compatibility mapping
for every pre-fleet caller.

Engine-level backpressure maps onto HTTP retry semantics: a shed-mode
admission rejection (:class:`ServerOverloaded`) answers ``429`` with a
``Retry-After`` hint, and a stopped or draining server answers ``503``.
Shutdown is graceful: :meth:`ServingGateway.stop` flips readiness,
closes engine admission via :meth:`InferenceServer.drain` (the SIGTERM
hook), finishes in-flight HTTP responses, then drains the admitted
backlog with :meth:`InferenceServer.stop`.
"""

from __future__ import annotations

import io
import json
import logging
import math
import socket
import struct
import threading
import time
import uuid
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.lockcheck import create_lock
from repro.engine.registry import registry_listing
from repro.engine.server import (
    BatchingServerBase,
    RemoteWorkerError,
    ServerClosed,
    ServerOverloaded,
)
from repro.serving.fleet import ModelEntry, ModelFleet, UnknownModelError
from repro.serving.metrics import HttpCounters, render_metrics
from repro.serving.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    _parse_json_object,
    error_body,
    format_prediction,
    parse_predict_batch_request,
    parse_predict_request,
    served_by,
)

__all__ = ["ServingGateway"]

log = logging.getLogger("repro.serving")

# Advisory backoff (seconds) sent with every 429; clients that honour
# Retry-After spread their retries instead of hammering a full queue.
RETRY_AFTER_S = 1

# Deadline-aware admission needs a latency signal before it sheds: below
# this many served requests the observed p50 is noise, so nothing sheds.
MIN_REQUESTS_FOR_DEADLINE_SHED = 50

# How long an observed-p50 reading stays cached; computing a percentile
# walks the whole stats window, which must not happen per request.
P50_CACHE_TTL_S = 0.5


class _GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that joins handler threads on close.

    ``daemon_threads = False`` + ``block_on_close = True`` means
    ``server_close()`` waits for in-flight responses — the HTTP half of
    graceful drain.  Idle keep-alive connections cannot block shutdown
    because the handler carries a socket timeout.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address, handler, gateway: "ServingGateway") -> None:
        self.gateway = gateway
        super().__init__(address, handler)


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    # HTTP/1.1 keep-alive: closed-loop clients reuse one connection per
    # request stream instead of paying a TCP handshake per predict.
    protocol_version = "HTTP/1.1"
    # Socket timeout: an idle or stalled connection drops out of the
    # keep-alive loop so server_close() can finish the drain.
    timeout = 10

    server: _GatewayHTTPServer

    @property
    def gateway(self) -> "ServingGateway":
        return self.server.gateway

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = self.path.split("?", 1)[0]
        if route == "/healthz":
            self._handle_healthz()
        elif route == "/metrics":
            self._handle_metrics()
        elif route == "/v1/models":
            self._handle_models()
        else:
            self._send_error(404, "not_found", f"unknown path {route!r}", route="*")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route = self.path.split("?", 1)[0]
        if route == "/v1/predict":
            self._handle_predict(batch=False)
        elif route == "/v1/predict_batch":
            self._handle_predict(batch=True)
        elif route == "/v1/admin/reload":
            self._handle_admin(self._admin_reload, route)
        elif route == "/v1/admin/chaos":
            self._handle_admin(self._admin_chaos, route)
        else:
            self._send_error(404, "not_found", f"unknown path {route!r}", route="*")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        gateway = self.gateway
        if gateway.ready:
            body = {
                "status": "ok",
                "model_id": gateway.model_id,
                "workers": gateway.server.workers,
                "models": [
                    {"name": e.name, "state": e.status(), "shadow": e.shadow}
                    for e in gateway.fleet.entries
                ],
            }
            degraded = False
            for entry in gateway.fleet.entries:
                processes = gateway.worker_processes(revive=True, entry=entry)
                if processes is None:
                    continue
                # Multi-process backend: report per-worker-process
                # liveness (dead workers were just respawned above; a
                # worker that STAYS dead keeps alive=false so load
                # balancers and operators can see it).
                if entry is gateway.fleet.default_entry:
                    body["processes"] = processes
                if not all(proc["alive"] for proc in processes):
                    degraded = True
            if degraded:
                body["status"] = "degraded"
            self._send_json(200, body, route="/healthz")
        else:
            status = "draining" if gateway.draining else "starting"
            self._send_json(503, {"status": status}, route="/healthz")

    def _handle_metrics(self) -> None:
        gateway = self.gateway
        fleet = gateway.fleet
        body = render_metrics(
            gateway.server.stats.snapshot(),
            gateway.server.engine_stats(),
            gateway.http_counters.snapshot(),
            ready=gateway.ready,
            model_id=gateway.model_id,
            processes=gateway.worker_processes(),
            chaos=gateway.chaos_summary(),
            models=[
                {
                    "name": entry.name,
                    "snapshot": entry.server.stats.snapshot(),
                    "traffic_share": fleet.traffic_share(entry),
                    "weights_version": entry.weights_version,
                    "shadow": entry.shadow,
                }
                for entry in fleet.entries
            ],
            shadow=fleet.shadow_counts(),
        ).encode("utf-8")
        self._send_bytes(
            200,
            body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            route="/metrics",
        )

    def _handle_models(self) -> None:
        gateway = self.gateway
        fleet = gateway.fleet
        models = []
        for entry in fleet.entries:
            snapshot = entry.server.stats.snapshot()
            processes = gateway.worker_processes(entry=entry)
            models.append(
                {
                    "name": entry.name,
                    "model_id": entry.model_id,
                    "baseline": entry.baseline,
                    "state": entry.status(),
                    "shadow": entry.shadow,
                    "weight": entry.weight,
                    "traffic_share": fleet.traffic_share(entry),
                    "weights_version": entry.weights_version,
                    "pool": {
                        "kind": "threads" if processes is None else "processes",
                        "workers": entry.server.workers,
                    },
                    "requests": snapshot.requests,
                    "shed": snapshot.shed,
                    "deadline_shed": snapshot.deadline_shed,
                    "shed_rate": snapshot.shed_rate,
                    "latency_ms": {
                        "p50": snapshot.latency_percentile(50),
                        "p95": snapshot.latency_percentile(95),
                        "p99": snapshot.latency_percentile(99),
                    },
                }
            )
        self._send_json(
            200,
            {
                "default_model": fleet.default,
                "model_id": gateway.model_id,
                "baseline": gateway.baseline,
                "models": models,
                "shadow_traffic": fleet.shadow_counts(),
                "registry": registry_listing(
                    loaded=[e.baseline for e in fleet.entries if e.baseline]
                ),
            },
            route="/v1/models",
        )

    def _handle_predict(self, *, batch: bool) -> None:
        route = "/v1/predict_batch" if batch else "/v1/predict"
        gateway = self.gateway
        fault = gateway.chaos_http_fault()
        if fault is not None and self._apply_chaos_fault(fault, route):
            return
        try:
            raw = self._read_body()
            request = (
                parse_predict_batch_request(raw)
                if batch
                else parse_predict_request(raw)
            )
        except ProtocolError as error:
            self._send_error(
                error.status, error.code, error.message, route=route,
                model=error.model,
            )
            return
        # Routing: explicit model > seeded A/B split on the request id >
        # default entry.  Without a client-supplied request id the split
        # is sampled fresh per request (uuid), which converges on the
        # configured traffic shares.
        request_id = request.request_id or uuid.uuid4().hex
        try:
            entry = gateway.fleet.route(request.model, request_id)
        except UnknownModelError as error:
            self._send_error(
                404, "model_not_found", str(error), route=route,
                model=request.model,
            )
            return
        texts = request.texts if batch else [request.text]
        # Deadline propagation: the client's remaining budget caps the
        # engine-side timeout, and a request whose budget cannot cover
        # the routed entry's observed p50 service time is shed up front —
        # serving it would burn a worker slot on an answer nobody is
        # waiting for.
        timeout_s = gateway.request_timeout_s
        deadline_ms = self._parse_deadline_ms()
        if deadline_ms is not None:
            p50_ms = gateway.observed_p50_ms(entry)
            if p50_ms > 0.0 and deadline_ms < p50_ms:
                entry.server.stats.record_deadline_shed(len(texts))
                self._send_error(
                    504,
                    "deadline_shed",
                    f"remaining budget {deadline_ms:.0f}ms is below the "
                    f"observed p50 service time {p50_ms:.0f}ms",
                    route=route,
                    model=entry.name,
                )
                return
            timeout_s = min(timeout_s, deadline_ms / 1000.0)
        envelope = served_by(entry.name, entry.weights_version)
        try:
            if batch:
                results = entry.server.predict(texts, timeout=timeout_s)
                body = {
                    "model_id": entry.model_id,
                    "served_by": envelope,
                    "predictions": [
                        format_prediction(r, top_k=request.top_k) for r in results
                    ],
                }
            else:
                future = entry.server.submit(texts[0])
                try:
                    result = future.result(timeout=timeout_s)
                except FutureTimeoutError:
                    future.cancel()  # answered 504: no worker should serve it
                    raise
                body = {
                    "model_id": entry.model_id,
                    "served_by": envelope,
                    **format_prediction(result, top_k=request.top_k),
                }
        except ServerOverloaded:
            self._send_error(
                429,
                "overloaded",
                "admission queue full; retry after backoff",
                route=route,
                model=entry.name,
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
            return
        except ServerClosed:
            self._send_error(
                503,
                "unavailable",
                "server is draining or stopped",
                route=route,
                model=entry.name,
            )
            return
        except FutureTimeoutError:
            self._send_error(
                504,
                "deadline_exceeded",
                f"request did not complete within {timeout_s}s",
                route=route,
                model=entry.name,
            )
            return
        except RemoteWorkerError:
            # A worker process died mid-batch (and its in-place retry
            # also failed).  The supervisor respawns the slot, so this
            # is retriable — the client's resilient path keys on the
            # "backend_failure" code to distinguish it from a draining
            # 503, which is terminal.
            log.warning("worker failure serving %s", route, exc_info=True)
            self._send_error(
                503,
                "backend_failure",
                "a worker process failed serving this request; retry",
                route=route,
                model=entry.name,
            )
            return
        except Exception:
            log.exception("unhandled error serving %s", route)
            self._send_error(
                500, "internal", "internal server error", route=route,
                model=entry.name,
            )
            return
        self._send_json(200, body, route=route)
        # Shadow mirroring happens after the answer is on the wire: the
        # mirrored submissions are fire-and-forget and must never add a
        # microsecond to the primary path.
        if not entry.shadow:
            gateway.fleet.shadow_submit(texts)

    def _parse_deadline_ms(self) -> float | None:
        """The ``X-Deadline-Ms`` header as a positive float, else None.

        Malformed or absurd values (non-numeric, nan, inf, <= 0) are
        ignored rather than rejected — deadline propagation is advisory
        and a bad proxy header must not break an otherwise fine request.
        """
        header = self.headers.get("X-Deadline-Ms")
        if header is None:
            return None
        try:
            value = float(header)
        except (TypeError, ValueError):
            return None
        if not math.isfinite(value) or value <= 0:
            return None
        return value

    # ------------------------------------------------------------------
    # Chaos faults (armed via /v1/admin/chaos or ServingGateway.arm_chaos)
    # ------------------------------------------------------------------
    def _apply_chaos_fault(self, fault: str, route: str) -> bool:
        """Corrupt this response per the armed fault plan. True = handled."""
        if fault == "socket_reset":
            self._abort_connection()
            return True
        if fault == "truncate_response":
            payload = json.dumps(
                {"model_id": self.gateway.model_id, "label": "truncated"}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.send_header("Connection", "close")
            self.end_headers()
            # Half the promised bytes, then a hard close: the client
            # sees IncompleteRead, not a clean EOF.
            self.wfile.write(payload[: len(payload) // 2])
            try:
                self.wfile.flush()
            except OSError:
                pass
            self._abort_connection()
            return True
        if fault == "malformed_response":
            self._send_bytes(
                200,
                b"{this is not json",
                content_type="application/json",
                route=route,
            )
            self.close_connection = True
            return True
        log.warning("unknown chaos http fault %r ignored", fault)
        return False

    def _abort_connection(self) -> None:
        """RST the client connection (SO_LINGER 0) without raising."""
        self.close_connection = True
        try:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass
        # The framework flushes wfile and may read rfile after the
        # handler returns; dead buffers keep that from raising on the
        # closed socket.
        self.wfile = io.BytesIO()
        self.rfile = io.BytesIO()

    # ------------------------------------------------------------------
    # Admin endpoints (shared-secret gated)
    # ------------------------------------------------------------------
    def _handle_admin(self, handler, route: str) -> None:
        gateway = self.gateway
        if gateway.admin_token is None:
            # Admin surface disabled: indistinguishable from no route.
            self._send_error(404, "not_found", f"unknown path {route!r}", route="*")
            return
        token = self.headers.get("X-Admin-Token")
        if token != gateway.admin_token:
            self._send_error(
                403, "forbidden", "missing or invalid admin token", route=route
            )
            return
        try:
            payload = _parse_json_object(self._read_body())
        except ProtocolError as error:
            self._send_error(error.status, error.code, error.message, route=route)
            return
        try:
            handler(payload, route)
        except ProtocolError as error:
            self._send_error(
                error.status, error.code, error.message, route=route,
                model=error.model,
            )
        except Exception:
            log.exception("admin handler failed for %s", route)
            self._send_error(500, "internal", "internal server error", route=route)

    def _admin_entry(self, payload: dict, *, verb: str) -> ModelEntry:
        """Resolve the ``model`` selector an admin request targets.

        A one-entry fleet may leave it out (the single-model form);
        with several entries the selector is mandatory — an ambiguous
        reload must never guess which weights to swap.
        """
        gateway = self.gateway
        model = payload.get("model")
        if model is None:
            entries = gateway.fleet.entries
            if len(entries) > 1:
                raise ProtocolError(
                    400,
                    "bad_request",
                    f'fleet serves {len(entries)} models; field "model" '
                    f"is required to {verb}",
                )
            return gateway.fleet.default_entry
        if not isinstance(model, str) or not model:
            raise ProtocolError(400, "bad_request", "model must be a non-empty string")
        try:
            return gateway.fleet.entry(model)
        except UnknownModelError as error:
            raise ProtocolError(
                404, "model_not_found", str(error), model=model
            ) from None

    def _admin_reload(self, payload: dict, route: str) -> None:
        """Hot-swap one entry's weights from a checkpoint, with rollback."""
        entry = self._admin_entry(payload, verb="reload")
        checkpoint = payload.get("checkpoint")
        if not isinstance(checkpoint, str) or not checkpoint:
            raise ProtocolError(
                400, "bad_request", 'missing required field "checkpoint"',
                model=entry.name,
            )
        server = entry.server
        if not entry.reloadable:
            raise ProtocolError(
                409,
                "reload_unsupported",
                "this server has no hot-reloadable shared weights",
                model=entry.name,
            )
        from repro.nn.serialization import load_checkpoint

        try:
            arrays, _config = load_checkpoint(checkpoint)
        except FileNotFoundError as error:
            raise ProtocolError(
                400, "bad_request", f"no checkpoint at {checkpoint!r}",
                model=entry.name,
            ) from error
        except Exception as error:
            raise ProtocolError(
                400, "bad_checkpoint", f"could not load checkpoint: {error}",
                model=entry.name,
            ) from error
        old_arrays = server.current_weights()
        try:
            version = server.reload_weights(arrays)
        except (ValueError, KeyError) as error:
            raise ProtocolError(
                400,
                "bad_checkpoint",
                f"weights do not match published layout: {error}",
                model=entry.name,
            ) from error
        except RuntimeError as error:
            raise ProtocolError(
                409, "reload_unsupported", str(error), model=entry.name
            ) from error
        if self._reload_self_check(server):
            self._send_json(
                200,
                {
                    "status": "ok",
                    "model": entry.name,
                    "weights_version": version,
                    "model_id": entry.model_id,
                },
                route=route,
            )
            return
        # The new weights serve garbage: put the old ones back before
        # anyone else is routed a poisoned prediction.
        log.error(
            "reload self-check failed for %s; rolling back weights", entry.name
        )
        rollback_version = server.reload_weights(old_arrays)
        self._send_json(
            500,
            {
                **error_body(
                    "self_check_failed",
                    "new weights failed the self-check prediction; "
                    "previous weights restored",
                    model=entry.name,
                ),
                "rolled_back": True,
                "model": entry.name,
                "weights_version": rollback_version,
            },
            route=route,
        )

    @staticmethod
    def _reload_self_check(server) -> bool:
        """One probe prediction through the freshly reloaded weights."""
        try:
            results = server.predict(
                ["reload self-check probe text"], timeout=15.0
            )
            probs = results[0].probabilities
        except Exception:
            log.warning("reload self-check prediction raised", exc_info=True)
            return False
        return bool(probs) and all(math.isfinite(p) for p in probs)

    def _admin_chaos(self, payload: dict, route: str) -> None:
        """Arm a fault plan on one entry's server.

        The body is ``{"model": ..., "plan": {...}}`` where ``plan`` is a
        :meth:`FaultPlan.to_dict`; ``model`` may be left out on a
        one-entry fleet.
        """
        from repro.chaos import FaultInjector, FaultPlan

        plan_dict = payload.get("plan")
        if not isinstance(plan_dict, dict):
            raise ProtocolError(400, "bad_plan", 'field "plan" must be a JSON object')
        entry = self._admin_entry(payload, verb="arm chaos on")
        try:
            plan = FaultPlan.from_dict(plan_dict)
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                400, "bad_plan", f"invalid fault plan: {error}", model=entry.name
            ) from error
        self.gateway.arm_chaos(FaultInjector(plan), entry=entry)
        self._send_json(
            200,
            {
                "status": "armed",
                "model": entry.name,
                "events": len(plan),
                "kinds": list(plan.kinds()),
                "duration_s": plan.duration_s,
            },
            route=route,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ProtocolError(411, "length_required", "Content-Length required")
        try:
            length = int(length_header)
        except ValueError as error:
            raise ProtocolError(
                400, "bad_request", "malformed Content-Length"
            ) from error
        if length < 0:
            raise ProtocolError(400, "bad_request", "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                413,
                "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        return self.rfile.read(length)

    def _send_json(
        self,
        status: int,
        body: dict,
        *,
        route: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        self._send_bytes(
            status,
            payload,
            content_type="application/json",
            route=route,
            headers=headers,
        )

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        *,
        route: str,
        model: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_json(
            status, error_body(code, message, model=model), route=route,
            headers=headers,
        )

    def _send_bytes(
        self,
        status: int,
        payload: bytes,
        *,
        content_type: str,
        route: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.gateway.http_counters.record(route, status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.gateway.draining:
            # Ask keep-alive clients to reconnect elsewhere so the
            # handler thread can exit and server_close() can join it.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        log.debug("%s %s", self.address_string(), format % args)


class ServingGateway:
    """HTTP front door for a model fleet (or one bare inference server).

    Parameters
    ----------
    server:
        A :class:`ModelFleet`, or a bare inference server that is
        wrapped as a one-entry fleet.  Entries that are not running when
        :meth:`start` is called are started by the gateway, which then
        owns their lifecycle (drains + stops them on :meth:`stop`);
        already-running entries are caller-managed and left untouched.
    model_id:
        Identifier reported for the default entry; defaults to the
        server's own ``model_id`` (one-entry form only).
    baseline:
        Registry name of the served model, used by ``/v1/models`` to
        mark the loaded entry (one-entry form only; fleet entries carry
        their own).
    host / port:
        Bind address.  ``port=0`` binds an ephemeral free port; read
        :attr:`port` after :meth:`start` for the real one.
    request_timeout_s:
        Shared deadline for each predict request's engine futures (a
        client-propagated ``X-Deadline-Ms`` can only shorten it).
    admin_token:
        Shared secret enabling the ``/v1/admin/*`` endpoints (weight
        reload, chaos arming).  ``None`` (default) disables the admin
        surface entirely — the routes 404.
    """

    def __init__(
        self,
        server: BatchingServerBase | ModelFleet,
        *,
        model_id: str | None = None,
        baseline: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
        admin_token: str | None = None,
    ) -> None:
        if isinstance(server, ModelFleet):
            self.fleet = server
        else:
            self.fleet = ModelFleet.single(
                server, baseline=baseline, model_id=model_id
            )
        self.host = host
        self.requested_port = port
        self.request_timeout_s = request_timeout_s
        self.admin_token = admin_token
        self.http_counters = HttpCounters()
        self.chaos = None
        self._chaos_server: BatchingServerBase | None = None
        self._httpd: _GatewayHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._draining = False
        self._owned_entries: tuple[ModelEntry, ...] = ()
        self._lock = create_lock("gateway.lifecycle")
        self._p50_lock = create_lock("gateway.p50")
        self._p50_ms: dict[str, float] = {}
        self._p50_read_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Default-entry views (the pre-fleet surface, still load-bearing)
    # ------------------------------------------------------------------
    @property
    def server(self) -> BatchingServerBase:
        """The default entry's server (the whole fleet, pre-fleet API)."""
        return self.fleet.default_entry.server

    @property
    def model_id(self) -> str:
        return self.fleet.default_entry.model_id

    @property
    def baseline(self) -> str | None:
        return self.fleet.default_entry.baseline

    # ------------------------------------------------------------------
    # Chaos + deadline admission
    # ------------------------------------------------------------------
    def arm_chaos(self, injector, *, entry: ModelEntry | None = None) -> None:
        """Arm a fault injector on this gateway (and one entry's server).

        The server side registers real fault handlers (SIGKILL for
        ``worker_crash`` on the process backend) and sees the stall /
        slow-batch seams; the gateway side serves the socket-level
        response faults for every route.  Re-arming replaces (and
        disarms) any previously armed injector, wherever it was armed.
        """
        target = (entry or self.fleet.default_entry).server
        previous = self.chaos
        if previous is not None:
            self.disarm_chaos()
        arm = getattr(target, "arm_chaos", None)
        if callable(arm):
            arm(injector)
        else:
            target.chaos = injector
            injector.arm()
        self.chaos = injector
        self._chaos_server = target

    def disarm_chaos(self) -> None:
        injector = self.chaos
        if injector is not None:
            injector.disarm()
            self.chaos = None
            if self._chaos_server is not None:
                self._chaos_server.chaos = None
                self._chaos_server = None

    def chaos_http_fault(self) -> str | None:
        """The fault kind to apply to the current response, if armed."""
        injector = self.chaos
        return None if injector is None else injector.http_response_fault()

    def chaos_summary(self) -> dict | None:
        """``/metrics`` view of the armed injector (None when unarmed)."""
        injector = self.chaos
        if injector is None:
            return None
        return {"armed": injector.armed, "injected": injector.applied_counts()}

    def observed_p50_ms(self, entry: ModelEntry | None = None) -> float:
        """Cached p50 service latency for deadline-aware admission.

        Per fleet entry (each pool has its own latency profile): 0.0
        until :data:`MIN_REQUESTS_FOR_DEADLINE_SHED` requests have been
        served this epoch (no shedding on noise), refreshed at most
        every :data:`P50_CACHE_TTL_S` (a percentile walks the whole
        stats window — too expensive per request).  Defaults to the
        default entry.
        """
        if entry is None:
            entry = self.fleet.default_entry
        now = time.monotonic()
        with self._p50_lock:
            read_at = self._p50_read_at.get(entry.name, -math.inf)
            if now - read_at >= P50_CACHE_TTL_S:
                snapshot = entry.server.stats.snapshot()
                if snapshot.requests >= MIN_REQUESTS_FOR_DEADLINE_SHED:
                    self._p50_ms[entry.name] = snapshot.latency_percentile(50)
                else:
                    self._p50_ms[entry.name] = 0.0
                self._p50_read_at[entry.name] = now
            return self._p50_ms[entry.name]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Readiness: HTTP bound, every primary pool started + admitting."""
        return (
            self._httpd is not None
            and not self._draining
            and self.fleet.running
            and self.fleet.accepting
        )

    def worker_processes(
        self, *, revive: bool = False, entry: ModelEntry | None = None
    ) -> list[dict] | None:
        """Per-worker-process liveness, or ``None`` for threaded pools.

        With ``revive=True`` (the ``/healthz`` path) dead worker
        processes are respawned first, so a transient worker crash heals
        on the next health probe instead of waiting for traffic.
        Defaults to the default entry's pool.
        """
        server = (entry or self.fleet.default_entry).server
        report = getattr(server, "worker_processes", None)
        if not callable(report):
            return None
        if revive:
            ensure = getattr(server, "ensure_workers", None)
            if callable(ensure):
                revived = ensure()
                if revived:
                    log.warning("healthz respawned %d dead worker(s)", revived)
        return report()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("gateway is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingGateway":
        with self._lock:
            if self._httpd is not None:
                raise RuntimeError("gateway is already running")
            self._owned_entries = self.fleet.start_stopped()
            self._draining = False
            self._httpd = _GatewayHTTPServer(
                (self.host, self.requested_port), _GatewayRequestHandler, self
            )
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="serving-gateway",
                daemon=True,
            )
            self._thread.start()
        log.info(
            "serving fleet %s on %s (default %s)",
            list(self.fleet.names),
            self.url,
            self.fleet.default,
        )
        return self

    def stop(self) -> None:
        """Graceful drain: finish in-flight work, refuse new work.

        Order matters: readiness flips first (load balancers stop
        routing here), then engine admission closes
        (:meth:`InferenceServer.drain` — requests that already submitted
        still resolve; new ones get a typed 503), then the HTTP listener
        shuts down and waits for in-flight handler threads, and finally
        the inference servers' admitted backlogs drain to completion.

        Draining and stopping only apply to entries this gateway
        started.  Caller-managed servers (already running when
        :meth:`start` was called) are left untouched and fully usable —
        the gateway detaches; in-flight HTTP requests still finish
        because the listener close joins the handler threads.
        """
        self.disarm_chaos()
        with self._lock:
            httpd, thread = self._httpd, self._thread
            if httpd is None:
                return
            self._draining = True
            self._httpd = None
            self._thread = None
            owned = self._owned_entries
        if owned:
            self.fleet.drain(owned)
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join()
        if owned:
            self.fleet.stop(owned)
            # _owned_entries is lifecycle state shared with start();
            # clear it under the same lock it is set under.
            with self._lock:
                self._owned_entries = ()

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Stdlib HTTP client for the serving gateway.

``ServingClient`` wraps :mod:`urllib.request` (no third-party
dependencies) around the wire protocol in :mod:`repro.serving.protocol`
with production retry semantics:

* **Retry on 429** — a shed-mode admission rejection is transient by
  contract, so the client backs off (honouring the server's
  ``Retry-After`` hint, capped exponential otherwise) and retries until
  the deadline runs out.
* **Deadline, not attempts** — every call takes an overall ``deadline_s``
  budget covering connection time, all retries, and backoff sleeps; the
  per-request socket timeout is always clipped to what remains.
* **Jittered backoff** — each sleep is scaled by a random factor in
  ``[1 - retry_jitter, 1.0]`` so a herd of clients shed at the same
  instant desynchronises instead of retrying in lockstep and shedding
  again together.
* **Transport retries, budgeted** — connection resets, truncated or
  malformed responses, and worker-death 503s (code ``backend_failure``)
  are retried on the predict paths, but every retry of any kind spends
  from a token-bucket *retry budget* refilled by successful calls, so a
  dying server sees bounded amplification instead of a retry storm.
* **Circuit breaker** — ``breaker_threshold`` consecutive transport
  failures open the circuit: calls fail fast with :class:`CircuitOpen`
  (no network traffic) until ``breaker_cooldown_s`` passes, then one
  half-open probe decides between closing the circuit and re-opening.
* **Deadline propagation** — predict requests carry ``X-Deadline-Ms``
  (the remaining budget at send time) so the gateway can stop working
  on requests the client has already abandoned.

Predict calls return a typed :class:`PredictResult` (label, probs,
``served_by`` fleet envelope) instead of a raw dict.  Typed failures:
:class:`GatewayOverloaded` (deadline exhausted while the server kept
shedding), :class:`GatewayUnavailable` (503 — draining or stopped),
:class:`CircuitOpen` (failed fast client-side), and
:class:`ServingError` (any other non-2xx) — all carrying the structured
error body (``code``, ``message``, ``retriable``, optional ``model``).
"""

from __future__ import annotations

import http.client
import json
import math
import random
import time
import urllib.error
import urllib.request
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.lockcheck import create_lock
from repro.serving.metrics import parse_metrics
from repro.serving.protocol import RETRIABLE_CODES, error_body

__all__ = [
    "CircuitOpen",
    "GatewayOverloaded",
    "GatewayUnavailable",
    "PredictBatchResult",
    "PredictResult",
    "ServedBy",
    "ServingClient",
    "ServingError",
]


class ServingError(RuntimeError):
    """A non-2xx gateway response, carrying the structured error body.

    ``retriable`` mirrors the wire payload's field (defaulting from
    :data:`~repro.serving.protocol.RETRIABLE_CODES` when the response
    predates it), ``model`` names the fleet entry the error concerns
    when the gateway resolved one, and :attr:`body` is the canonical
    ``{"error": {...}}`` payload shape.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        model: str | None = None,
        retriable: bool | None = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.model = model
        self.retriable = (code in RETRIABLE_CODES) if retriable is None else retriable

    @property
    def body(self) -> dict:
        """The structured error payload this exception carries."""
        return error_body(
            self.code, self.message, model=self.model, retriable=self.retriable
        )


class GatewayOverloaded(ServingError):
    """Every attempt within the deadline was answered 429."""


class GatewayUnavailable(ServingError):
    """The gateway answered 503: draining, stopped, or not ready."""


class CircuitOpen(ServingError):
    """The client-side circuit breaker is open: failed fast, no request
    was sent.  Clears after the cooldown via a half-open probe."""

    def __init__(self, message: str) -> None:
        super().__init__(503, "circuit_open", message, retriable=True)


def _error_from_response(status: int, body: bytes) -> ServingError:
    code, message = "unknown", body.decode("utf-8", "replace")[:200]
    model: str | None = None
    retriable: bool | None = None
    try:
        payload = json.loads(body.decode("utf-8"))
        error = payload["error"]
        code = error["code"]
        message = error["message"]
        maybe_model = error.get("model")
        if isinstance(maybe_model, str):
            model = maybe_model
        maybe_retriable = error.get("retriable")
        if isinstance(maybe_retriable, bool):
            retriable = maybe_retriable
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        pass
    if status == 429:
        return GatewayOverloaded(status, code, message, model=model, retriable=retriable)
    if status == 503:
        return GatewayUnavailable(
            status, code, message, model=model, retriable=retriable
        )
    return ServingError(status, code, message, model=model, retriable=retriable)


@dataclass(frozen=True)
class ServedBy:
    """The response envelope naming which fleet entry answered."""

    model: str
    weights_version: int

    @classmethod
    def from_raw(cls, raw: object) -> "ServedBy | None":
        if not isinstance(raw, dict):
            return None
        model = raw.get("model")
        if not isinstance(model, str):
            return None
        try:
            version = int(raw.get("weights_version", 0))
        except (TypeError, ValueError):
            version = 0
        return cls(model=model, weights_version=version)


class PredictResult:
    """One typed prediction from ``POST /v1/predict``.

    Attributes mirror the wire response: ``label`` (the predicted
    dimension code), ``probabilities`` (full ``{label: p}`` map, or
    ``None`` when ``top_k`` was requested), ``top_k`` (ranked
    ``{"label", "probability"}`` list, or ``None``), ``latency_ms``,
    ``model_id``, and ``served_by`` (the fleet envelope, ``None`` from
    pre-fleet gateways).  ``raw`` keeps the decoded JSON object.
    """

    __slots__ = (
        "label",
        "probabilities",
        "top_k",
        "latency_ms",
        "model_id",
        "served_by",
        "raw",
    )

    def __init__(
        self,
        *,
        label: str | None,
        probabilities: dict[str, float] | None,
        top_k: list[dict] | None,
        latency_ms: float | None,
        model_id: str | None,
        served_by: ServedBy | None,
        raw: dict,
    ) -> None:
        self.label = label
        self.probabilities = probabilities
        self.top_k = top_k
        self.latency_ms = latency_ms
        self.model_id = model_id
        self.served_by = served_by
        self.raw = raw

    @classmethod
    def from_raw(cls, raw: dict) -> "PredictResult":
        """Build from a decoded response object, tolerating old shapes."""
        latency = raw.get("latency_ms")
        return cls(
            label=raw.get("label"),
            probabilities=raw.get("probabilities"),
            top_k=raw.get("top_k"),
            latency_ms=float(latency) if latency is not None else None,
            model_id=raw.get("model_id"),
            served_by=ServedBy.from_raw(raw.get("served_by")),
            raw=raw,
        )

    def __repr__(self) -> str:
        return (
            f"PredictResult(label={self.label!r}, "
            f"served_by={self.served_by!r}, model_id={self.model_id!r})"
        )


class PredictBatchResult:
    """Typed response from ``POST /v1/predict_batch``.

    ``predictions`` is one :class:`PredictResult` per input text, each
    sharing the batch's ``model_id``/``served_by``.
    """

    __slots__ = ("predictions", "model_id", "served_by", "raw")

    def __init__(
        self,
        *,
        predictions: list[PredictResult],
        model_id: str | None,
        served_by: ServedBy | None,
        raw: dict,
    ) -> None:
        self.predictions = predictions
        self.model_id = model_id
        self.served_by = served_by
        self.raw = raw

    @classmethod
    def from_raw(cls, raw: dict) -> "PredictBatchResult":
        model_id = raw.get("model_id")
        served = ServedBy.from_raw(raw.get("served_by"))
        predictions = []
        for item in raw.get("predictions", []):
            if isinstance(item, dict):
                result = PredictResult.from_raw(item)
                result.model_id = model_id
                result.served_by = served
                predictions.append(result)
        return cls(
            predictions=predictions, model_id=model_id, served_by=served, raw=raw
        )

    def __len__(self) -> int:
        return len(self.predictions)

    def __repr__(self) -> str:
        return (
            f"PredictBatchResult(n={len(self.predictions)}, "
            f"served_by={self.served_by!r})"
        )


class ServingClient:
    """Client for one gateway base URL.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8420"`` (no trailing slash needed).
    deadline_s:
        Default overall budget per call: connection + retries + backoff.
    retry_base_s / retry_max_s:
        Capped exponential backoff schedule used when a 429 carries no
        usable ``Retry-After`` hint.
    retry_jitter:
        Fraction of each backoff randomly shaved off (multiplier drawn
        uniformly from ``[1 - retry_jitter, 1.0]``).  ``0.0`` reproduces
        the deterministic schedule exactly.
    retry_seed:
        Seeds the per-client jitter RNG for reproducible tests.  Each
        client gets its own :class:`random.Random` either way, so
        concurrent clients never contend on (or correlate through) the
        global RNG.
    breaker_threshold:
        Consecutive transport failures that open the circuit breaker.
    breaker_cooldown_s:
        How long the breaker stays open before allowing one half-open
        probe request through.
    retry_budget / retry_credit:
        Token bucket bounding total retries: the bucket starts full at
        ``retry_budget`` tokens, every retry (429 backoff, transport
        error, backend-failure 503) spends one, and every successful
        call refunds ``retry_credit`` (capped at the budget).  An empty
        bucket surfaces the underlying error instead of retrying.
    """

    def __init__(
        self,
        base_url: str,
        *,
        deadline_s: float = 30.0,
        retry_base_s: float = 0.05,
        retry_max_s: float = 2.0,
        retry_jitter: float = 0.5,
        retry_seed: int | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
        retry_budget: float = 64.0,
        retry_credit: float = 0.5,
    ) -> None:
        if not 0.0 <= retry_jitter <= 1.0:
            raise ValueError(f"retry_jitter must be in [0, 1], got {retry_jitter}")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.deadline_s = deadline_s
        self.retry_base_s = retry_base_s
        self.retry_max_s = retry_max_s
        self.retry_jitter = retry_jitter
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.retry_budget = retry_budget
        self.retry_credit = retry_credit
        self._rng = random.Random(retry_seed)
        # Breaker + budget state; one lock since both are touched per call.
        self._lock = create_lock("client.breaker")
        self._breaker_state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._tokens = retry_budget
        self._stat_requests = 0
        self._stat_retries = 0
        self._stat_transport_failures = 0
        self._stat_breaker_opens = 0
        self._stat_breaker_rejections = 0
        self._stat_budget_exhausted = 0

    # ------------------------------------------------------------------
    # Circuit breaker + retry budget
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot of resilience counters (breaker state, retry budget)."""
        with self._lock:
            return {
                "requests": self._stat_requests,
                "retries": self._stat_retries,
                "transport_failures": self._stat_transport_failures,
                "breaker_state": self._breaker_state,
                "breaker_opens": self._stat_breaker_opens,
                "breaker_rejections": self._stat_breaker_rejections,
                "retry_budget_remaining": self._tokens,
                "retry_budget_exhausted": self._stat_budget_exhausted,
            }

    def _breaker_admit(self) -> None:
        """Fail fast with :class:`CircuitOpen` unless a request may go out."""
        with self._lock:
            self._stat_requests += 1
            if self._breaker_state == "closed":
                return
            if self._breaker_state == "open":
                if time.monotonic() - self._opened_at < self.breaker_cooldown_s:
                    self._stat_breaker_rejections += 1
                    raise CircuitOpen(
                        f"circuit open after {self._consecutive_failures} "
                        "consecutive transport failures"
                    )
                self._breaker_state = "half_open"
                self._probe_in_flight = True
                return
            # half_open: exactly one probe at a time decides the outcome.
            if self._probe_in_flight:
                self._stat_breaker_rejections += 1
                raise CircuitOpen("circuit half-open; probe in flight")
            self._probe_in_flight = True

    def _breaker_success(self) -> None:
        """Any HTTP response closes the breaker — transport is healthy."""
        with self._lock:
            self._breaker_state = "closed"
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def _credit_success(self) -> None:
        """A 2xx refunds retry budget (only real successes earn credit)."""
        with self._lock:
            self._tokens = min(self.retry_budget, self._tokens + self.retry_credit)

    def _breaker_failure(self) -> None:
        with self._lock:
            self._stat_transport_failures += 1
            self._consecutive_failures += 1
            self._probe_in_flight = False
            opened = self._breaker_state == "half_open" or (
                self._breaker_state == "closed"
                and self._consecutive_failures >= self.breaker_threshold
            )
            if opened:
                if self._breaker_state != "open":
                    self._stat_breaker_opens += 1
                self._breaker_state = "open"
                self._opened_at = time.monotonic()

    def _spend_retry_token(self) -> bool:
        """Take one token from the retry budget; False when exhausted."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self._stat_retries += 1
                return True
            self._stat_budget_exhausted += 1
            return False

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def predict(
        self,
        text: str,
        *,
        model: str | None = None,
        top_k: int | None = None,
        request_id: str | None = None,
        deadline_s: float | None = None,
        retry_on_overload: bool = True,
        intended_at: float | None = None,
    ) -> PredictResult:
        """``POST /v1/predict`` -> typed :class:`PredictResult`.

        ``model`` routes to a named fleet entry explicitly (404
        ``model_not_found`` if the fleet does not serve it); without it
        the gateway's A/B split decides.  ``request_id`` pins the split
        assignment — the same id always routes to the same entry.

        ``retry_on_overload=False`` surfaces the first 429 as
        :class:`GatewayOverloaded` immediately — for callers that
        implement their own backoff (or count sheds, like the e2e smoke
        driver).

        ``intended_at`` (a ``time.monotonic`` timestamp) anchors the
        deadline budget at the request's *intended* send time instead of
        now.  Open-loop load generators pass the scheduled arrival time
        so a request that left the pacer late does not get extra retry
        budget — time already lost in the client queue counts against
        the deadline, exactly as the latency histogram counts it.
        """
        body: dict = {"text": text}
        if top_k is not None:
            body["top_k"] = top_k
        if model is not None:
            body["model"] = model
        if request_id is not None:
            body["request_id"] = request_id
        return PredictResult.from_raw(
            self._call(
                "POST",
                "/v1/predict",
                body,
                deadline_s,
                retry_429=retry_on_overload,
                resilient=True,
                intended_at=intended_at,
            )
        )

    def predict_batch(
        self,
        texts: Sequence[str],
        *,
        model: str | None = None,
        top_k: int | None = None,
        request_id: str | None = None,
        deadline_s: float | None = None,
        retry_on_overload: bool = True,
        intended_at: float | None = None,
    ) -> PredictBatchResult:
        """``POST /v1/predict_batch`` -> typed :class:`PredictBatchResult`."""
        body: dict = {"texts": list(texts)}
        if top_k is not None:
            body["top_k"] = top_k
        if model is not None:
            body["model"] = model
        if request_id is not None:
            body["request_id"] = request_id
        return PredictBatchResult.from_raw(
            self._call(
                "POST",
                "/v1/predict_batch",
                body,
                deadline_s,
                retry_429=retry_on_overload,
                resilient=True,
                intended_at=intended_at,
            )
        )

    def healthz(self, *, deadline_s: float | None = None) -> dict:
        """``GET /healthz`` (raises :class:`GatewayUnavailable` on 503)."""
        return self._call("GET", "/healthz", None, deadline_s, retry_429=False)

    def models(self, *, deadline_s: float | None = None) -> dict:
        """``GET /v1/models`` -> the fleet status document."""
        return self._call("GET", "/v1/models", None, deadline_s)

    def metrics_text(self, *, deadline_s: float | None = None) -> str:
        """``GET /metrics`` -> raw Prometheus exposition text."""
        return self._request_once(
            "GET", "/metrics", None, self._resolve(deadline_s)
        )[1].decode("utf-8")

    def metrics(self, *, deadline_s: float | None = None) -> dict:
        """``GET /metrics`` parsed to ``{(name, labelset): value}``."""
        return parse_metrics(self.metrics_text(deadline_s=deadline_s))

    def wait_ready(self, *, deadline_s: float | None = None) -> dict:
        """Poll ``/healthz`` until ready or the deadline expires.

        A refused connection, a 503, a truncated or unparseable body:
        every failed poll is retried until the deadline.
        """
        deadline = time.monotonic() + self._resolve(deadline_s)
        while True:
            try:
                return self.healthz(deadline_s=1.0)
            except (
                ServingError, OSError, http.client.HTTPException, ValueError
            ) as error:
                if time.monotonic() >= deadline:
                    raise GatewayUnavailable(
                        503, "not_ready", f"gateway not ready in time: {error}"
                    ) from error
            time.sleep(0.05)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _resolve(self, deadline_s: float | None) -> float:
        return self.deadline_s if deadline_s is None else deadline_s

    def _call(
        self,
        method: str,
        path: str,
        body: dict | None,
        deadline_s: float | None,
        *,
        retry_429: bool = True,
        resilient: bool = False,
        intended_at: float | None = None,
    ) -> dict:
        budget = self._resolve(deadline_s)
        anchor = time.monotonic() if intended_at is None else intended_at
        deadline = anchor + budget
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise GatewayOverloaded(
                    429, "deadline_exceeded", f"no capacity within {budget}s"
                )
            extra = None
            if resilient:
                self._breaker_admit()
                extra = {"X-Deadline-Ms": str(max(1, int(remaining * 1000.0)))}
            try:
                status, raw, headers = self._request_full(
                    method, path, body, remaining, extra_headers=extra
                )
                payload = (
                    json.loads(raw.decode("utf-8")) if 200 <= status < 300 else None
                )
            except (OSError, http.client.HTTPException, ValueError) as error:
                # Connection reset, truncated read, or an unparseable
                # 2xx body: the response cannot be trusted.  Inference
                # is side-effect-free, so retry — budget permitting.
                if not resilient:
                    raise
                self._breaker_failure()
                if not self._spend_retry_token():
                    raise
                backoff = self._backoff_s(attempt, None)
                attempt += 1
                if deadline - time.monotonic() <= backoff:
                    raise
                time.sleep(backoff)
                continue
            if resilient:
                self._breaker_success()
            if 200 <= status < 300:
                if resilient:
                    self._credit_success()
                return payload
            error = _error_from_response(status, raw)
            retriable = (status == 429 and retry_429) or (
                # A worker died mid-batch; the supervisor respawns it,
                # so a retried request has a real chance.  A draining
                # 503 ("unavailable") stays terminal.
                resilient
                and status == 503
                and error.code == "backend_failure"
            )
            if not retriable:
                raise error
            if resilient and not self._spend_retry_token():
                raise error
            backoff = self._backoff_s(attempt, headers.get("Retry-After"))
            attempt += 1
            if deadline - time.monotonic() <= backoff:
                raise error
            time.sleep(backoff)

    def _backoff_s(self, attempt: int, retry_after: str | None) -> float:
        backoff = min(self.retry_max_s, self.retry_base_s * (2**attempt))
        if retry_after is not None:
            # Honour the server's hint, but never beyond our cap — the
            # deadline budget, not the server, bounds waiting.  A proxy
            # can send anything here: non-numeric, negative, "nan",
            # "inf", or absurdly large values must clamp into
            # [0, retry_max_s], never raise and never sleep unbounded.
            try:
                hinted = float(retry_after)
            except (TypeError, ValueError):
                hinted = None
            if hinted is not None and math.isfinite(hinted):
                backoff = min(max(0.0, hinted), self.retry_max_s)
        if self.retry_jitter > 0.0:
            # Jitter applies to the Retry-After path too: the hint is
            # the same constant for every shed client, which is exactly
            # the synchronised-herd case jitter exists to break.
            backoff *= self._rng.uniform(1.0 - self.retry_jitter, 1.0)
        return backoff

    def _request_once(
        self, method: str, path: str, body: dict | None, timeout_s: float
    ) -> tuple[int, bytes]:
        status, raw, _ = self._request_full(method, path, body, timeout_s)
        if not 200 <= status < 300:
            raise _error_from_response(status, raw)
        return status, raw

    def _request_full(
        self,
        method: str,
        path: str,
        body: dict | None,
        timeout_s: float,
        *,
        extra_headers: dict | None = None,
    ) -> tuple[int, bytes, http.client.HTTPMessage]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=max(0.001, timeout_s)
            ) as response:
                return response.status, response.read(), response.headers
        except urllib.error.HTTPError as error:
            with error:
                return error.code, error.read(), error.headers

"""Prometheus text-format metrics for the serving gateway.

:data:`FAMILIES` declares every metric family the gateway exports, in
exposition order: its name, type, help text, label names, and how its
samples are read from one scrape's inputs.  :func:`render_metrics`
renders that table for one consistent
:class:`~repro.engine.server.StatsSnapshot`, the aggregated
:class:`~repro.engine.engine.EngineStats`, and the gateway's HTTP
counters as Prometheus exposition text (version 0.0.4 — the format
every Prometheus scraper and ``promtool`` accepts).  :func:`parse_metrics`
is the inverse used by the tests, the e2e smoke job, and the benchmark
harness to read counters back without a Prometheus dependency.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.analysis.lockcheck import create_lock
from repro.engine.engine import EngineStats
from repro.engine.server import StatsSnapshot

__all__ = ["FAMILIES", "Family", "HttpCounters", "parse_metrics", "render_metrics"]


class HttpCounters:
    """Thread-safe per-endpoint/status HTTP request counters."""

    def __init__(self) -> None:
        self._lock = create_lock("gateway.http_counters")
        self._counts: dict[tuple[str, int], int] = {}

    def record(self, endpoint: str, status: int) -> None:
        with self._lock:
            key = (endpoint, status)
            self._counts[key] = self._counts.get(key, 0) + 1

    def snapshot(self) -> dict[tuple[str, int], int]:
        with self._lock:
            return dict(self._counts)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, value: float | str, labels: dict[str, str]) -> str:
    if labels:
        rendered = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


#: The latency quantiles every summary family reports, as percentiles.
_QUANTILES = (50, 95, 99)
# The exposition format spells not-a-number ``NaN``; ``str(math.nan)``
# is ``nan``.
_NAN = "NaN"
_KINDS = ("counter", "gauge", "summary")
# Prometheus's naming rules (https://prometheus.io/docs/practices/naming/),
# narrowed to this exporter's ``holistix_`` namespace.
_NAME_RE = re.compile(r"holistix_[a-z][a-z0-9_]*[a-z0-9]")
_LABEL_RE = re.compile(r"[a-z_][a-z0-9_]*")


class _Scrape(NamedTuple):
    """One scrape's inputs, exactly as :func:`render_metrics` got them."""

    snapshot: StatsSnapshot
    engine: EngineStats
    http_counts: dict[tuple[str, int], int]
    ready: bool
    model_id: str
    processes: list[dict] | None
    models: list[dict] | None
    shadow: dict | None


#: Reads one scrape's samples of a family: ``(label values, value)`` pairs,
#: the values in the order of the family's ``labels``.
_Samples = Callable[[_Scrape], Iterable[tuple[tuple[str, ...], Any]]]


@dataclass(frozen=True)
class Family:
    """One metric family: its exposition metadata and where its samples come from.

    A counter or gauge sample's value is a number; a summary sample's
    value is the :class:`StatsSnapshot` whose latency window it reports
    as ``_QUANTILES`` (labelled ``quantile``), ``_sum`` and ``_count``.
    ``requires`` names the optional :func:`render_metrics` input without
    which the family is left out.  The naming rules are checked here, so
    a misnamed family fails when this module is imported.
    """

    name: str
    kind: str
    help: str
    labels: tuple[str, ...]
    samples: _Samples
    requires: str | None = None

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(
                f"metric family {self.name!r} must be holistix_-prefixed "
                "snake_case ([a-z0-9_])"
            )
        if self.kind not in _KINDS:
            raise ValueError(
                f"metric family {self.name!r} has kind {self.kind!r}; "
                f"expected one of {', '.join(_KINDS)}"
            )
        if (self.kind == "counter") != self.name.endswith("_total"):
            raise ValueError(
                f"{self.kind} family {self.name!r}: a name ends '_total' "
                "exactly when its family is a counter"
            )
        for label in self.labels:
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(
                    f"label {label!r} of {self.name!r} must be snake_case "
                    "([a-z_][a-z0-9_]*)"
                )


def _per_model(read: Callable[[dict], Any]) -> _Samples:
    """One sample per fleet entry, labelled by the entry's name."""
    return lambda s: [((m["name"],), read(m)) for m in s.models]


#: Every family the gateway exports, in exposition order.
FAMILIES: tuple[Family, ...] = (
    Family(
        "holistix_ready",
        "gauge",
        "1 when the gateway is accepting traffic, 0 while starting or draining.",
        ("model_id",),
        lambda s: [((s.model_id,), 1 if s.ready else 0)],
    ),
    Family(
        "holistix_http_requests_total",
        "counter",
        "HTTP requests answered, by endpoint and status code.",
        ("endpoint", "status"),
        lambda s: [
            ((endpoint, str(status)), count)
            for (endpoint, status), count in sorted(s.http_counts.items())
        ],
    ),
    # The unlabelled holistix_server_* families are the default entry's
    # view, so single-model dashboards keep working unchanged.
    Family(
        "holistix_server_requests_total",
        "counter",
        "Texts served by the inference server this epoch.",
        (),
        lambda s: [((), s.snapshot.requests)],
    ),
    Family(
        "holistix_server_batches_total",
        "counter",
        "Coalesced inference batches executed this epoch.",
        (),
        lambda s: [((), s.snapshot.batches)],
    ),
    Family(
        "holistix_server_shed_total",
        "counter",
        "Requests rejected by shed-mode admission this epoch.",
        (),
        lambda s: [((), s.snapshot.shed)],
    ),
    Family(
        "holistix_server_shed_rate",
        "gauge",
        "Fraction of offered requests shed this epoch.",
        (),
        lambda s: [((), s.snapshot.shed_rate)],
    ),
    Family(
        "holistix_server_deadline_shed_total",
        "counter",
        "Requests shed because their propagated deadline budget could "
        "not cover the observed p50 service time (distinct from "
        "overload sheds).",
        (),
        lambda s: [((), s.snapshot.deadline_shed)],
    ),
    Family(
        "holistix_worker_thread_deaths_total",
        "counter",
        "Serving threads that died on an unexpected exception and were "
        "replaced this epoch.",
        (),
        lambda s: [((), s.snapshot.worker_thread_deaths)],
    ),
    Family(
        "holistix_server_latency_ms",
        "summary",
        "Queue-to-response latency quantiles over the recent-request window.",
        (),
        lambda s: [((), s.snapshot)],
    ),
    Family(
        "holistix_worker_requests_total",
        "counter",
        "Texts served per worker replica this epoch.",
        ("worker",),
        lambda s: [
            ((str(i),), count) for i, count in enumerate(s.snapshot.per_worker_requests)
        ],
    ),
    Family(
        "holistix_engine_cache_hits_total",
        "counter",
        "Prediction-cache hits across worker engine replicas.",
        (),
        lambda s: [((), s.engine.cache_hits)],
    ),
    Family(
        "holistix_engine_cache_misses_total",
        "counter",
        "Prediction-cache misses across worker engine replicas.",
        (),
        lambda s: [((), s.engine.cache_misses)],
    ),
    Family(
        "holistix_engine_cache_hit_rate",
        "gauge",
        "Prediction-cache hit rate across worker engine replicas.",
        (),
        lambda s: [((), s.engine.hit_rate)],
    ),
    Family(
        "holistix_worker_process_alive",
        "gauge",
        "1 while the worker's serving process is alive, by worker and pid.",
        ("worker", "pid"),
        lambda s: [
            (
                (
                    str(proc["worker"]),
                    str(proc["pid"] if proc["pid"] is not None else ""),
                ),
                1 if proc["alive"] else 0,
            )
            for proc in s.processes
        ],
        requires="processes",
    ),
    Family(
        "holistix_worker_process_restarts_total",
        "counter",
        "Times each worker slot's process was respawned after dying.",
        ("worker",),
        lambda s: [((str(proc["worker"]),), proc["restarts"]) for proc in s.processes],
        requires="processes",
    ),
    Family(
        "holistix_requests_total",
        "counter",
        "Texts served per fleet entry this epoch (the A/B split audit).",
        ("model",),
        _per_model(lambda m: m["snapshot"].requests),
        requires="models",
    ),
    Family(
        "holistix_model_shed_total",
        "counter",
        "Requests rejected by shed-mode admission, per fleet entry.",
        ("model",),
        _per_model(lambda m: m["snapshot"].shed),
        requires="models",
    ),
    Family(
        "holistix_model_deadline_shed_total",
        "counter",
        "Requests shed for an uncoverable deadline, per fleet entry.",
        ("model",),
        _per_model(lambda m: m["snapshot"].deadline_shed),
        requires="models",
    ),
    Family(
        "holistix_model_shed_rate",
        "gauge",
        "Fraction of offered requests shed this epoch, per fleet entry.",
        ("model",),
        _per_model(lambda m: m["snapshot"].shed_rate),
        requires="models",
    ),
    Family(
        "holistix_model_latency_ms",
        "summary",
        "Queue-to-response latency quantiles per fleet entry.",
        ("model",),
        _per_model(lambda m: m["snapshot"]),
        requires="models",
    ),
    Family(
        "holistix_model_traffic_share",
        "gauge",
        "Configured fraction of A/B-split traffic, per fleet entry.",
        ("model",),
        _per_model(lambda m: m["traffic_share"]),
        requires="models",
    ),
    Family(
        "holistix_model_weights_version",
        "gauge",
        "Version token of the entry's served weights (0 = never reloaded).",
        ("model",),
        _per_model(lambda m: m["weights_version"]),
        requires="models",
    ),
    Family(
        "holistix_model_shadow",
        "gauge",
        "1 for shadow entries (mirrored traffic, never answering).",
        ("model",),
        _per_model(lambda m: 1 if m["shadow"] else 0),
        requires="models",
    ),
    Family(
        "holistix_shadow_submitted_total",
        "counter",
        "Texts mirrored to shadow entries (fire-and-forget).",
        (),
        lambda s: [((), s.shadow["submitted"])],
        requires="shadow",
    ),
    Family(
        "holistix_shadow_failed_total",
        "counter",
        "Shadow mirror submissions that shed, errored, or were refused.",
        (),
        lambda s: [((), s.shadow["failed"])],
        requires="shadow",
    ),
)


def render_metrics(
    snapshot: StatsSnapshot,
    engine_stats: EngineStats,
    http_counts: dict[tuple[str, int], int],
    *,
    ready: bool,
    model_id: str,
    processes: list[dict] | None = None,
    models: list[dict] | None = None,
    shadow: dict | None = None,
) -> str:
    """Prometheus exposition text for one scrape: :data:`FAMILIES`, rendered.

    All inputs are immutable copies taken before rendering, so every
    sample in one scrape belongs to the same instant.  ``snapshot`` is
    the default fleet entry's, the same one its ``models`` entry
    carries; the unlabelled ``holistix_server_*`` families read it.
    ``processes`` is the multi-process
    server's :meth:`~repro.engine.procserver.ProcessInferenceServer.
    worker_processes` report (``None`` for the threaded server) — it
    adds per-worker-process liveness and restart families, so recovery
    can be watched on ``/metrics`` without probing ``/healthz`` (which
    would itself revive workers).

    ``models`` adds the per-fleet-entry families: one dict per entry
    with ``name``, its own ``snapshot`` (:class:`StatsSnapshot`),
    ``traffic_share``, ``weights_version``, and ``shadow``.  The A/B
    split is audited from ``holistix_requests_total{model=...}``;
    ``shadow`` (``{"submitted": n, "failed": n}``) counts mirrored
    shadow traffic fleet-wide.
    """
    scrape = _Scrape(
        snapshot,
        engine_stats,
        http_counts,
        ready,
        model_id,
        processes,
        models,
        shadow,
    )
    lines: list[str] = []
    for family in FAMILIES:
        if family.requires is not None and getattr(scrape, family.requires) is None:
            continue
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, value in family.samples(scrape):
            labels = dict(zip(family.labels, values))
            if family.kind != "summary":
                lines.append(_sample(family.name, value, labels))
                continue
            for q in _QUANTILES:
                quantile = {**labels, "quantile": str(q / 100.0)}
                # An empty window has no quantiles: NaN, Prometheus's
                # "no data", not a latency of 0 ms.
                observed = (
                    value.latency_percentile(q) if value.latencies_ms else _NAN
                )
                lines.append(_sample(family.name, observed, quantile))
            lines.append(_sample(f"{family.name}_sum", value.total_latency_ms, labels))
            lines.append(_sample(f"{family.name}_count", value.requests, labels))
    return "\n".join(lines) + "\n"


def _parse_label_block(block: str) -> frozenset[tuple[str, str]]:
    """Parse ``key="value",...`` honouring the exposition-format escapes.

    Values may contain commas, escaped quotes (``\\"``), escaped
    backslashes, and ``\\n`` — everything :func:`_escape_label_value`
    can emit — so a naive comma split would corrupt them.
    """
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(block)
    while i < n:
        eq = block.find("=", i)
        if eq == -1:
            raise ValueError(f"malformed label block: {block!r}")
        key = block[i:eq]
        if not key.replace("_", "").isalnum():
            raise ValueError(f"malformed label name: {key!r}")
        i = eq + 1
        if i >= n or block[i] != '"':
            raise ValueError(f"label {key!r} value is not quoted")
        i += 1
        value_chars: list[str] = []
        while i < n and block[i] != '"':
            ch = block[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError(f"dangling escape in label {key!r}")
                nxt = block[i + 1]
                unescaped = {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                value_chars.append(unescaped)
                i += 2
            else:
                value_chars.append(ch)
                i += 1
        if i >= n:
            raise ValueError(f"unterminated value for label {key!r}")
        i += 1  # closing quote
        pairs.append((key, "".join(value_chars)))
        if i < n:
            if block[i] != ",":
                raise ValueError(f"malformed label separator at {block[i:]!r}")
            i += 1
    return frozenset(pairs)


def parse_metrics(text: str) -> dict[tuple[str, frozenset[tuple[str, str]]], float]:
    """Parse exposition text -> ``{(name, labelset): value}``.

    A deliberately small parser for the subset :func:`render_metrics`
    emits (and that any conformant exporter produces for simple
    counters/gauges): one sample per line, with full support for the
    label-value escapes the renderer can produce.  Raises
    ``ValueError`` on lines that fit neither a comment, a blank, nor a
    sample — which is what makes it usable as a format check in the
    tests.
    """
    samples: dict[tuple[str, frozenset[tuple[str, str]]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        value = float(value_part)  # raises ValueError on malformed values
        labels: frozenset[tuple[str, str]] = frozenset()
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"malformed label block: {line!r}")
            name, _, label_block = name_part.partition("{")
            if label_block[:-1]:
                labels = _parse_label_block(label_block[:-1])
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"malformed metric name: {name!r}")
        samples[(name, labels)] = value
    return samples

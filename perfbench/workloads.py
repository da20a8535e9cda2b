"""The workloads: drive the program, check its outputs, measure.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  Untraced runs report the end-to-end metrics.  A traced
run makes two passes of half of ``--seconds`` each, on the same inputs
with the same warm-up: one untraced (the reference for
``trace.overhead_pct``) and one with the span probes, which gives the
per-layer metrics.  The seed's parity picks which pass runs first.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import spans as sp
from build import ROOT, child_env
from openloop import KeepAlivePool, poisson_offsets
from stats import min_samples, percentile

HERE = Path(__file__).resolve().parent

# The online workloads: open loop at RATE req/s over CONNECTIONS
# keep-alive connections, 10 req/s per connection.  A request stalls on the
# delayed ACK when its connection answered another one shortly before;
# at this rate that is about one request in twenty, so p50 lies inside
# the fast mode and p99 inside the stalled one, and a 40 s run gives
# 2400 samples where a p99 needs 1000.  Fewer, busier connections queue
# requests behind stalls; more, idler ones push p99 to the mode edge.
RATE = 60
CONNECTIONS = 6
WARMUP_REQUESTS = 40
# The traced bulk pass: one closed-loop ServingClient caller, BATCH
# texts per predict_batch call.  Batch calls are traced, not timed end
# to end: their p99 sits on the edge of the mode of calls that meet the
# server's garbage collector or a stall of the host, so on a shared host
# it moved by up to 40% from run to run.
BATCH = 64
WARMUP_CALLS = 4
BULK_CALLS = 300
BULK_LAYERS = (
    "gateway.connections_per_request",
    "server.batch_size.mean",
    "engine.padding_saved",
)
# Spawn-to-ready is sampled this many times per serving run, before and
# after the measured pass: the host runs through fast and slow spells
# lasting seconds, and samples taken together all land in one spell.
SETUP_STARTS_BEFORE = 5
SETUP_STARTS_AFTER = 6
# Every online latency runs from the request's due time, so the pacer's
# lateness is part of it.  A pass in which lateness makes up more than
# this share of a reported percentile measured the generator, and is
# refused instead of reported: it is measured again on a fresh server,
# up to MAX_PASSES passes in all, and the run fails when every pass
# lagged.  On a 2-vCPU host the pacer's wake-ups, which meet the server
# on the same cores, make up 1-10% of p50 (about 0.3 ms of ~5 ms) and
# 0-7% of p99; a host stall of half a second in a pass is enough to
# lift p99's share over its limit.  Three passes of 40 s still end well
# within the 180 s a run may take.
MAX_PACER_SHARE = {50: 0.15, 99: 0.10}
MAX_PASSES = 3
# A traced run is flagged when its micro-batches per text differ from
# the untraced pass's by more than this share: the probes would then
# describe another batching regime than the one the end-to-end run saw.
MAX_BATCHING_SHIFT = 0.05
# A traced run makes two passes of this share of --seconds each.
PASS_SHARE = 0.5
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
CV_TIMEOUT_S = 120.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_ms_per_text": "ms",
    "rss_mb": "MB",
}

PER_LAYER = {
    "gateway.parse_us.p50": "us",
    "gateway.write_us.p50": "us",
    "gateway.handler_us.p50": "us",
    "gateway.handler_us.p99": "us",
    "gateway.connections_per_request": "count",
    "gateway.non2xx": "count",
    "gateway.unattributed_pct": "%",
    "transport.gap_ms.p50": "ms",
    "transport.gap_ms.p99": "ms",
    "protocol.decode_us.p50": "us",
    "protocol.encode_us.p50": "us",
    "fleet.route_us.p50": "us",
    "client.decode_us.p50": "us",
    "client.retries": "count",
    "client.transport_failures": "count",
    "server.admit_us.p50": "us",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p99": "ms",
    "server.batch_size.mean": "texts",
    "server.stats_us.p50": "us",
    "server.shed": "count",
    "engine.call_us.p50": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.padding_saved": "ratio",
    "text.transform_us_per_text": "us",
    "text.encode_us_per_text": "us",
    "text.fit_s": "s",
    "ml.predict_us.p50": "us",
    "ml.fit_s.lr": "s",
    "ml.fit_s.svm": "s",
    "ml.fit_s.gnb": "s",
    "models.forward_ms.p50": "ms",
    "models.finetune_s": "s",
    "nn.backward_ms.p50": "ms",
    "nn.optim_step_us.p50": "us",
    "gen.late_p99_ms": "ms",
    "gen.conn_wait_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


class InvalidRun(RuntimeError):
    """The run cannot report: too few samples, or the generator lagged."""


@dataclass
class Context:
    build: Path
    seed: int
    seconds: float
    trace: bool
    log: IO[str]
    scratch: Path


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    digest: str
    notes: list[str] = field(default_factory=list)


def note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def e2e_percentile(values: list[float], p: float, what: str) -> float:
    value = percentile(values, p)
    if value is None:
        raise InvalidRun(f"{what}: {len(values)} samples, p{p:g} needs {min_samples(p)}")
    return value


def layer_percentile(values: list[float], p: float, scale: float = 1.0) -> float:
    """A per-layer percentile; 0.0 when the layer did no such work."""
    value = percentile(values, p)
    if value is None:
        if values:
            note(f"per-layer p{p:g} over {len(values)} samples is not reported")
        return 0.0
    return value * scale


def overhead_pct(traced_p50_ms: float, reference_p50_ms: float) -> float:
    return 100.0 * (traced_p50_ms / reference_p50_ms - 1.0)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def unique_texts(seed: int, n: int) -> list[str]:
    """The seed's first ``n`` distinct texts, so every request misses the cache."""
    from repro.corpus.factory import CorpusFactory

    texts: dict[str, None] = {}
    for doc in CorpusFactory().iter_documents(seed, sys.maxsize):
        texts[doc.text] = None
        if len(texts) == n:
            return list(texts)
    raise RuntimeError(f"the corpus of seed {seed} has fewer than {n} distinct texts")


def texts_digest(texts: list[str]) -> str:
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return f"sha256:{digest} over {len(texts)} texts"


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")


class Server:
    """One ``holistix-serve`` process, started through ``serve.py``.

    ``with Server(...) as server:`` drains it with SIGTERM on exit.
    """

    def __init__(self, ctx: Context, checkpoint: Path, *, trace_out=None, inputs=None):
        command = [sys.executable, str(HERE / "serve.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out), "--inputs", str(inputs)]
        command += ["--", "--checkpoint", str(checkpoint), "--port", "0",
                    "--log-level", "WARNING"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(ctx.build),
            stdout=subprocess.PIPE,
            stderr=ctx.log,
            text=True,
        )
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        match = re.search(r"ready on (http://([\d.]+):(\d+))", line)
        self.url, self.host, self.port = match[1], match[2], int(match[3])

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _ready_line(self) -> str:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while (remaining := deadline - time.perf_counter()) > 0:
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"server exited with {self.proc.wait()}")
                if "ready on" in line:
                    return line
        raise RuntimeError("server was not ready in time")

    def cpu_s(self) -> float:
        """User + system CPU of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def scrape(self) -> list[tuple[str, str, float]]:
        """``/metrics`` as (name, labels, value) samples."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        return [
            (match[1], match[2] or "", float(match[3]))
            for match in map(_SAMPLE.match, text.splitlines())
            if match
        ]

    def stop(self, *, drain: bool = True) -> None:
        """SIGTERM and wait for the graceful drain; SIGKILL without ``drain``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if drain else signal.SIGKILL)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def metric_total(samples, name: str, where=lambda labels: True) -> float:
    return sum(v for n, labels, v in samples if n == name and where(labels))


def counts_agree(samples, served: int) -> bool:
    """The client's count of texts answered 200 equals the server's."""
    counted = metric_total(samples, "holistix_requests_total")
    if counted != served:
        note(f"client counted {served} texts answered 200, server {counted:g}")
    return counted == served


def checked_pass(ctx: Context, checkpoint: Path, drive, **options):
    """``drive(server)`` on a fresh server, measured again while its pacer lagged.

    A second pass on the same server would meet a warm cache, so every
    pass gets a server of its own.  Returns the server's spawn-to-ready
    time and the accepted :class:`OnlinePass`.
    """
    refused = 0
    while True:
        with Server(ctx, checkpoint, **options) as server:
            run = drive(server)
        try:
            run.pacer_note = run.check_pacer()
        except InvalidRun as error:
            refused += 1
            if refused == MAX_PASSES:
                raise
            note(f"{error}; measuring the pass again")
            continue
        if refused:
            run.pacer_note += f" (after {refused} refused pass)"
        return server.setup_s, run


def measured_with_setups(ctx: Context, checkpoint: Path, drive):
    """``checked_pass`` on one of several servers timed spawn-to-ready.

    Returns the spawn-to-ready samples and the accepted pass.
    """
    times = []

    def start_only() -> None:
        server = Server(ctx, checkpoint)
        times.append(server.setup_s)
        server.stop(drain=False)  # it served nothing, so nothing to drain

    for _ in range(SETUP_STARTS_BEFORE - 1):
        start_only()
    setup_s, run = checked_pass(ctx, checkpoint, drive)
    times.append(setup_s)
    for _ in range(SETUP_STARTS_AFTER):
        start_only()
    return times, run


def untraced_and_traced(ctx: Context, checkpoint: Path, texts: list[str], drive):
    """``checked_pass`` on an untraced server and on a traced one.

    ``texts`` are the measured inputs; a text's position among them is
    the request id of the traced spans serving it.  An odd seed runs the
    traced pass first, so neither pass always meets the host first.
    Returns the untraced pass, the traced pass and the traced server's
    span document.
    """
    inputs, spans_out = ctx.scratch / "inputs.json", ctx.scratch / "server-spans.json"
    inputs.write_text(json.dumps(texts))
    passes = {}
    for traced in (True, False) if ctx.seed % 2 else (False, True):
        options = {"trace_out": spans_out, "inputs": inputs} if traced else {}
        _, passes[traced] = checked_pass(ctx, checkpoint, drive, **options)
    return passes[False], passes[True], sp.load(spans_out)


def batches_per_text(samples) -> float:
    return metric_total(samples, "holistix_server_batches_total") / metric_total(
        samples, "holistix_requests_total"
    )


def check_batching(untraced_samples, traced_samples) -> str:
    """Describe, and flag, how the probes changed the way texts were batched."""
    untraced, traced = batches_per_text(untraced_samples), batches_per_text(traced_samples)
    described = f"micro-batches per text {traced:.4f} traced, {untraced:.4f} untraced"
    if abs(traced / untraced - 1.0) > MAX_BATCHING_SHIFT:
        note(f"the probes changed the batching: {described}")
        return f"FLAGGED, the probes changed the batching: {described}"
    return described


def reference_labels(checkpoint: Path, texts: list[str]) -> list[str]:
    """The checkpoint's labels for ``texts``, scored in this process."""
    from repro.core.pipeline import WellnessClassifier

    return [d.code for d in WellnessClassifier.load(checkpoint).predict(texts)]


# ----------------------------------------------------------------------
# Per-layer metrics from a traced server
# ----------------------------------------------------------------------
def serving_layers(
    doc: dict,
    round_trips: dict[int, float],
    samples,
    traced_p50_ms: float,
    reference_p50_ms: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced serving pass.

    ``round_trips`` maps a request id to the client's round trip in
    seconds; ``samples`` is the server's final ``/metrics``; the two p50s
    are the traced pass's and the untraced pass's.
    """
    spans = doc["spans"]
    groups: dict[str, list[list]] = {}
    for span in spans:
        groups.setdefault(span[sp.NAME], []).append(span)

    def group(name):
        return groups.get(name, [])

    def us(name, measured_only=True):
        return [
            sp.duration(s) * 1e6
            for s in group(name)
            if not measured_only or s[sp.RID] is not None
        ]

    handlers = [s for s in group("gateway.handler") if s[sp.RID] is not None]
    handler_ids = {s[sp.SID] for s in handlers}
    children = [s for s in spans if s[sp.PARENT] in handler_ids]
    self_time = sp.self_times(handlers + children)
    handler_us = [sp.duration(s) * 1e6 for s in handlers]
    encode_per_request: dict[int, float] = {}
    for span in group("protocol.encode"):
        if span[sp.RID] is not None:
            encode_per_request[span[sp.RID]] = (
                encode_per_request.get(span[sp.RID], 0.0) + sp.duration(span) * 1e6
            )
    calls = [s for s in group("engine.call") if any(r is not None for r in s[sp.RID])]
    admits = [s for s in group("server.admit") if s[sp.RID] is not None]
    waits = sp.queue_waits(admits, calls)
    gaps = sp.transport_gaps(round_trips, handlers)
    hits = metric_total(samples, "holistix_engine_cache_hits_total")
    misses = metric_total(samples, "holistix_engine_cache_misses_total")
    padded, naive = doc["engine"]["padded_tokens"], doc["engine"]["padded_tokens_naive"]
    return {
        "gateway.parse_us.p50": layer_percentile(
            [sp.duration(s) * 1e6 for s in children if s[sp.NAME] == "gateway.parse"], 50
        ),
        "gateway.write_us.p50": layer_percentile(us("gateway.write"), 50),
        "gateway.handler_us.p50": layer_percentile(handler_us, 50),
        "gateway.handler_us.p99": layer_percentile(handler_us, 99),
        "gateway.connections_per_request": len(group("gateway.connection"))
        / max(1, len(group("gateway.handler"))),
        "gateway.non2xx": metric_total(
            samples,
            "holistix_http_requests_total",
            lambda labels: not re.search(r'status="2\d\d"', labels),
        ),
        # The handler's own time, outside every probed call it makes,
        # as a share of the end-to-end p50.
        "gateway.unattributed_pct": layer_percentile(
            [self_time[s[sp.SID]] for s in handlers], 50, 1e5 / traced_p50_ms
        ),
        "transport.gap_ms.p50": layer_percentile(gaps, 50, 1e3),
        "transport.gap_ms.p99": layer_percentile(gaps, 99, 1e3),
        "protocol.decode_us.p50": layer_percentile(us("protocol.decode"), 50),
        "protocol.encode_us.p50": layer_percentile(list(encode_per_request.values()), 50),
        "fleet.route_us.p50": layer_percentile(us("fleet.route"), 50),
        "server.admit_us.p50": layer_percentile([sp.duration(s) * 1e6 for s in admits], 50),
        "server.queue_wait_ms.p50": layer_percentile(waits, 50, 1e3),
        "server.queue_wait_ms.p99": layer_percentile(waits, 99, 1e3),
        "server.batch_size.mean": statistics.fmean(s[sp.SIZE] for s in calls) if calls else 0.0,
        "server.stats_us.p50": layer_percentile(us("server.stats", measured_only=False), 50),
        "server.shed": metric_total(samples, "holistix_server_shed_total")
        + metric_total(samples, "holistix_server_deadline_shed_total"),
        "engine.call_us.p50": layer_percentile([sp.duration(s) * 1e6 for s in calls], 50),
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.padding_saved": 1.0 - padded / naive if naive else 0.0,
        "text.transform_us_per_text": per_text_us(group("text.transform")),
        "text.encode_us_per_text": per_text_us(group("text.encode")),
        "ml.predict_us.p50": layer_percentile(us("ml.predict", measured_only=False), 50),
        "models.forward_ms.p50": layer_percentile(
            us("models.forward", measured_only=False), 50, 1e-3
        ),
        "trace.overhead_pct": overhead_pct(traced_p50_ms, reference_p50_ms),
    }


def per_text_us(spans: list[list]) -> float:
    texts = sum(span[sp.SIZE] for span in spans)
    return sum(map(sp.duration, spans)) * 1e6 / texts if texts else 0.0


# ----------------------------------------------------------------------
# The online workloads
# ----------------------------------------------------------------------
@dataclass
class OnlinePass:
    exchanges: list
    labels: list[str | None]  # None: the request failed
    cpu_s: float
    rss_mb: float
    samples: list
    counts_agree: bool
    pacer_note: str = ""  # set by checked_pass

    @property
    def latencies_ms(self) -> list[float]:
        # A failed request misses every latency limit.
        return [
            e.latency * 1e3 if label is not None else math.inf
            for e, label in zip(self.exchanges, self.labels)
        ]

    def generator_p99_ms(self) -> tuple[float, float]:
        """p99 of how late the pacer woke, and of its wait for a connection."""
        late = [(e.dispatched - e.due) * 1e3 for e in self.exchanges]
        wait = [(e.connected - e.dispatched) * 1e3 for e in self.exchanges]
        return e2e_percentile(late, 99, "pacer lateness"), e2e_percentile(wait, 99, "connection wait")

    def pacer_share(self, p: float) -> float:
        """The share of the ``p``-th latency percentile that pacer lateness makes up.

        That is the percentile minus the same percentile of the latencies
        with each request's lateness taken out, over the percentile.
        """
        latencies = self.latencies_ms
        on_time = [
            latency - (e.dispatched - e.due) * 1e3
            for latency, e in zip(latencies, self.exchanges)
        ]
        reported = e2e_percentile(latencies, p, "latency")
        return (reported - e2e_percentile(on_time, p, "latency")) / reported

    def check_pacer(self) -> str:
        """Refuse a pass whose pacer lagged; else describe its lateness."""
        shares = {p: self.pacer_share(p) for p in MAX_PACER_SHARE}
        described = ", ".join(f"{share:.1%} of p{p}" for p, share in shares.items())
        if any(shares[p] > limit for p, limit in MAX_PACER_SHARE.items()):
            raise InvalidRun(f"pacer lateness makes up {described}")
        return f"pacer lateness {described}"


def _label(status: int | None, body: bytes) -> str | None:
    if status != 200:
        return None
    try:
        return json.loads(body)["label"]
    except (ValueError, KeyError, TypeError):
        return None


def online_pass(server: Server, warm: list[str], texts: list[str], offsets) -> OnlinePass:
    def bodies(batch):
        return [json.dumps({"text": text}).encode() for text in batch]

    pool = KeepAlivePool(server.host, server.port, CONNECTIONS, "/v1/predict")
    try:
        pool.run(bodies(warm), [i / RATE for i in range(len(warm))])
        cpu_before = server.cpu_s()
        exchanges = pool.run(bodies(texts), offsets)
        cpu_s = server.cpu_s() - cpu_before
    finally:
        pool.close()
    samples = server.scrape()
    labels = [_label(e.status, e.body) for e in exchanges]
    served = len(warm) + sum(label is not None for label in labels)
    return OnlinePass(
        exchanges, labels, cpu_s, server.peak_rss_mb(), samples, counts_agree(samples, served)
    )


def online(ctx: Context, model: str) -> Outcome:
    """The open-loop workload against the ``model`` checkpoint."""
    checkpoint = ctx.build / model
    seconds = ctx.seconds * PASS_SHARE if ctx.trace else ctx.seconds
    n = round(RATE * seconds)
    inputs = unique_texts(ctx.seed, WARMUP_REQUESTS + n)
    warm, texts = inputs[:WARMUP_REQUESTS], inputs[WARMUP_REQUESTS:]
    offsets = poisson_offsets(random.Random(ctx.seed), n, seconds)

    def drive(server):
        return online_pass(server, warm, texts, offsets)

    if not ctx.trace:
        setup, run = measured_with_setups(ctx, checkpoint, drive)
        notes = [run.pacer_note]
        metrics = {
            "setup_s": statistics.median(setup),
            "p50_ms": e2e_percentile(run.latencies_ms, 50, "latency"),
            "p99_ms": e2e_percentile(run.latencies_ms, 99, "latency"),
            "cpu_ms_per_text": run.cpu_s * 1e3 / n,
            "rss_mb": run.rss_mb,
        }
    else:
        untraced, run, doc = untraced_and_traced(ctx, checkpoint, texts, drive)
        notes = [
            f"untraced {untraced.pacer_note}",
            f"traced {run.pacer_note}",
            check_batching(untraced.samples, run.samples),
        ]
        metrics = serving_layers(
            doc,
            {i: e.round_trip for i, e in enumerate(run.exchanges)},
            run.samples,
            e2e_percentile(run.latencies_ms, 50, "traced latency"),
            e2e_percentile(untraced.latencies_ms, 50, "untraced latency"),
        )
        metrics["gen.late_p99_ms"], metrics["gen.conn_wait_p99_ms"] = run.generator_p99_ms()

    expected = reference_labels(checkpoint, texts)
    failed = sum(got != want for got, want in zip(run.labels, expected))
    return Outcome(
        n, failed, failed == 0 and run.counts_agree, metrics, texts_digest(inputs), notes
    )


def online_lr(ctx: Context) -> Outcome:
    outcome = online(ctx, "lr")
    if ctx.trace:
        # The training layers ride on this traced run; see traced_cv.
        cv, training = traced_cv(ctx)
        outcome.metrics.update(training)
        outcome.notes.append(
            "traced cross-validation: "
            + ", ".join(f"{name} {acc:.4f}" for name, acc in cv["accuracy"].items())
            + f" in {cv['wall_s']:.2f} s; inputs sha256:{cv['digest']}"
        )
        outcome.correct = outcome.correct and cv_ok(cv)
    return outcome


def online_distilbert(ctx: Context) -> Outcome:
    outcome = online(ctx, "distilbert")
    if ctx.trace:
        # The layers only batch calls through ServingClient exercise ride
        # on this traced run; see traced_bulk.
        attempted, failed, correct, layers = traced_bulk(ctx)
        outcome.metrics.update(layers)
        outcome.attempted += attempted
        outcome.failed += failed
        outcome.correct = outcome.correct and correct
        outcome.notes.append(f"traced bulk pass: {attempted} texts, {failed} failed")
    return outcome


# ----------------------------------------------------------------------
# The batch-call layers: one traced pass through ServingClient
# ----------------------------------------------------------------------
@dataclass
class BulkPass:
    calls: list  # (index of the call's first text, latency_s, labels or None when it failed)
    samples: list
    counts_agree: bool
    client_stats: dict


def bulk_pass(server: Server, warm: list[str], texts: list[str]) -> BulkPass:
    """One closed-loop caller sends ``texts`` through ``ServingClient``, BATCH per call."""
    from repro.serving.client import ServingClient, ServingError

    client = ServingClient(server.url)
    served = 0
    for start in range(0, len(warm), BATCH):
        served += len(client.predict_batch(warm[start : start + BATCH]).predictions)
    calls = []
    for start in range(0, len(texts), BATCH):
        sent = time.perf_counter()
        try:
            labels = [p.label for p in client.predict_batch(texts[start : start + BATCH]).predictions]
        except (ServingError, OSError, http.client.HTTPException, ValueError):
            labels = None
        latency = time.perf_counter() - sent
        calls.append((start, latency, labels if labels and len(labels) == BATCH else None))
    served += sum(len(labels) for _, _, labels in calls if labels is not None)
    samples = server.scrape()
    return BulkPass(calls, samples, counts_agree(samples, served), client.stats())


def bulk_check(checkpoint: Path, texts: list[str], calls) -> tuple[int, int]:
    """(texts attempted, texts failed): failed calls plus wrong labels."""
    answered = [(start, labels) for start, _, labels in calls if labels is not None]
    expected = reference_labels(
        checkpoint, [t for start, _ in answered for t in texts[start : start + BATCH]]
    )
    got = [label for _, labels in answered for label in labels]
    attempted = len(calls) * BATCH
    failed = attempted - len(got) + sum(a != b for a, b in zip(got, expected))
    return attempted, failed


def traced_bulk(ctx: Context) -> tuple[int, int, bool, dict[str, float]]:
    """Trace BULK_CALLS calls of BATCH texts to a DistilBERT server.

    The online workloads send single texts over keep-alive connections,
    so the shipped client, one connection per call and full micro-batches
    run only here.  Returns the texts attempted and failed, whether the
    output checks passed, and the layers this pass alone exercises.
    """
    from repro.serving.client import PredictBatchResult

    checkpoint = ctx.build / "distilbert"
    inputs = unique_texts(ctx.seed, (WARMUP_CALLS + BULK_CALLS) * BATCH)
    warm, texts = inputs[: WARMUP_CALLS * BATCH], inputs[WARMUP_CALLS * BATCH :]
    index, spans_out = ctx.scratch / "bulk-inputs.json", ctx.scratch / "bulk-spans.json"
    index.write_text(json.dumps(texts))
    client_spans = sp.Recorder()
    client_spans.wrap(PredictBatchResult, "from_raw", "client.decode")
    with Server(ctx, checkpoint, trace_out=spans_out, inputs=index) as server:
        run = bulk_pass(server, warm, texts)
    p50_ms = e2e_percentile([latency * 1e3 for _, latency, _ in run.calls], 50, "bulk call latency")
    layers = serving_layers(sp.load(spans_out), {}, run.samples, p50_ms, p50_ms)
    attempted, failed = bulk_check(checkpoint, texts, run.calls)
    return attempted, failed, failed == 0 and run.counts_agree, {
        **{name: layers[name] for name in BULK_LAYERS},
        "client.decode_us.p50": layer_percentile(
            [sp.duration(s) * 1e6 for s in client_spans.spans], 50
        ),
        "client.retries": run.client_stats["retries"],
        "client.transport_failures": run.client_stats["transport_failures"],
    }


# ----------------------------------------------------------------------
# The training layers: one traced Table IV cross-validation
# ----------------------------------------------------------------------
def traced_cv(ctx: Context) -> tuple[dict, dict[str, float]]:
    """Run ``cv.py`` (its own process); its report and the training layers."""
    trace_out = ctx.scratch / "cv-spans.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "cv.py"), "--seed", str(ctx.seed),
         "--trace-out", str(trace_out)],
        cwd=ROOT,
        env=child_env(ctx.build),
        stdout=subprocess.PIPE,
        stderr=ctx.log,
        text=True,
        check=True,
        timeout=CV_TIMEOUT_S,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    groups: dict[str, list[list]] = {}
    for span in sp.load(trace_out)["spans"]:
        groups.setdefault(span[sp.NAME], []).append(span)

    def total_s(name):
        return sum(map(sp.duration, groups.get(name, [])))

    def ms(name):
        return [sp.duration(s) * 1e3 for s in groups.get(name, [])]

    return report, {
        "text.fit_s": total_s("text.fit"),
        "ml.fit_s.lr": total_s("ml.fit.lr"),
        "ml.fit_s.svm": total_s("ml.fit.svm"),
        "ml.fit_s.gnb": total_s("ml.fit.gnb"),
        "models.finetune_s": total_s("models.finetune"),
        "nn.backward_ms.p50": layer_percentile(ms("nn.backward"), 50),
        "nn.optim_step_us.p50": layer_percentile(ms("nn.optim_step"), 50, 1e3),
    }


def cv_ok(report: dict) -> bool:
    """Every fold finite, and DistilBERT > LR > Gaussian NB."""
    folds = [a for accs in report["fold_accuracies"].values() for a in accs]
    acc = report["accuracy"]
    return all(map(math.isfinite, folds)) and (
        acc["DistilBERT"] > acc["LR"] > acc["Gaussian NB"]
    )


WORKLOADS = {
    "online_lr": online_lr,
    "online_distilbert": online_distilbert,
}

"""Persistent offline benchmark harness.

Runs named perf scenarios and writes one ``BENCH_<scenario>.json``
record per scenario (timestamp, git SHA, CPU count, timings, docs/sec),
comparing each fresh run against the previous record so regressions are
visible — in CI (the benchmark-harness-smoke job runs ``--quick`` and
uploads the records as artifacts) and locally::

    PYTHONPATH=src python -m benchmarks.harness            # all scenarios
    PYTHONPATH=src python -m benchmarks.harness engine     # one scenario
    PYTHONPATH=src python -m benchmarks.harness --quick    # CI sizing
    PYTHONPATH=src python -m benchmarks.harness --check    # exit 1 on regression

Serving latency, CPU and memory on the real LR and DistilBERT
checkpoints are measured by the repository benchmark,
``perfbench/run.py``, not here.

Scenarios
---------
``traditional``
    Train + predict each traditional Table IV baseline on dense vs
    sparse features; asserts predictions are identical.
``engine``
    Batched inference docs/sec through ``WellnessClassifier.predict``
    (the ``PredictionEngine`` path).
``table4``
    The ``holistix-experiments`` CLI over the experiment suite, serial
    vs ``--jobs 4``, each in a fresh subprocess sharing one scratch
    pretraining disk cache.  Speedup scales with available cores
    (recorded as ``cpu_count``); on a single-core runner expect ~1.0x.
``transformer``
    The neural substrate: pretraining and fine-tuning steps/sec with
    the fused autograd kernels vs the composed-op fallback
    (``use_fused_ops(False)``), plus p50 single-text inference latency
    and padding saved by length-bucketed training batches.
``serving_chaos``
    Applies the fixed fault schedule ``CHAOS_SCHEDULE`` — a worker
    SIGSTOP, a worker SIGKILL and a burst of truncated responses, all
    from outside the program (``benchmarks/faults.py``) — to the full
    ``ProcessInferenceServer`` → ``ServingGateway`` → resilient
    ``ServingClient`` stack under open-loop Poisson load.  Gates
    chaos-leg availability >= 0.99 (deadline sheds credited back),
    post-fault recovery p99 <= max(2x the clean baseline p99, 250 ms),
    at least one supervised worker respawn, every scheduled fault
    observed as applied, and zero orphaned worker processes after
    shutdown.  Primary metric: chaos-leg availability (higher is
    better).

Timings come from ``_timeit_median``: every measured callable gets
discarded warm-up iterations followed by median-of-k timing, so
run-to-run noise on shared CI runners doesn't trip the ``--check``
regression gate.

See ``docs/BENCHMARKING.md`` for the record schema and how CI
interprets regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.faults import FaultProxy, kill_worker, stall_worker

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT_DIR = REPO_ROOT / "benchmarks" / "records"

# A fresh record's primary metric may be this much worse than the
# previous record before ``--check`` calls it a regression; benchmarks
# on shared runners are noisy.
REGRESSION_TOLERANCE = 0.25

# Per-scenario overrides.  ``serving_chaos`` availability is gated
# absolutely (>= 0.99) inside the scenario; the record comparison just
# needs to flag drift, not absorb noise.
SCENARIO_TOLERANCE = {"serving_chaos": 0.02}


# ----------------------------------------------------------------------
# Scenario helpers
# ----------------------------------------------------------------------
def _timeit_median(fn, repeats: int = 3, *, warmup: int = 1) -> float:
    """Median wall-clock of ``repeats`` runs after ``warmup`` discarded runs.

    Warm-up absorbs one-time costs (allocator growth, import side
    effects, cache fills) and the median is robust to a single noisy
    run — together they keep identical-SHA reruns within a few percent
    instead of the ~20% swings a single cold measurement shows.
    """
    for _ in range(max(0, warmup)):
        fn()
    times = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_traditional(quick: bool) -> dict:
    from repro.core.labels import DIMENSIONS
    from repro.core.dataset import HolistixDataset
    from repro.engine.registry import create_traditional_model, traditional_baselines
    from repro.text.tfidf import TfidfVectorizer

    dataset = HolistixDataset.build()
    texts, labels = dataset.texts, dataset.labels
    targets = np.asarray([DIMENSIONS.index(label) for label in labels])

    dense = TfidfVectorizer(max_features=3000).fit_transform(texts)
    sparse = TfidfVectorizer(max_features=3000, sparse_output=True).fit_transform(
        texts
    )

    timings: dict[str, float] = {}
    total_dense = total_sparse = 0.0
    for name in traditional_baselines():
        key = name.lower().replace(" ", "_")
        started = time.perf_counter()
        dense_model = create_traditional_model(name, seed=7).fit(dense, targets)
        dense_pred = dense_model.predict(dense)
        elapsed = time.perf_counter() - started
        timings[f"{key}_dense_s"] = elapsed
        total_dense += elapsed
        started = time.perf_counter()
        sparse_model = create_traditional_model(name, seed=7).fit(sparse, targets)
        sparse_pred = sparse_model.predict(sparse)
        elapsed = time.perf_counter() - started
        timings[f"{key}_sparse_s"] = elapsed
        total_sparse += elapsed
        if not np.array_equal(dense_pred, sparse_pred):
            raise AssertionError(f"{name}: sparse/dense predictions diverge")

    return {
        "n_docs": len(texts),
        "timings": timings,
        "metrics": {
            "sparse_speedup_vs_dense": total_dense / total_sparse,
            "train_predict_docs_per_sec": len(texts)
            * len(traditional_baselines())
            / total_sparse,
            "predictions_identical": True,
        },
    }


def scenario_engine(quick: bool) -> dict:
    from repro.core.dataset import HolistixDataset
    from repro.core.pipeline import WellnessClassifier

    dataset = HolistixDataset.build()
    split = dataset.fixed_split()
    classifier = WellnessClassifier("LR").fit(split.train)
    texts = split.test.texts * (3 if quick else 10)
    repeats = 3 if quick else 5

    def cold_pass() -> None:
        # Drop the LRU first so every repeat really recomputes.
        classifier.engine.invalidate()
        classifier.predict(texts)

    cold_s = _timeit_median(cold_pass, repeats)
    classifier.predict(texts)  # ensure the cache is fully populated

    def warm_block() -> None:
        # One warm pass is sub-millisecond; time ten per sample so the
        # measurement is not dominated by timer noise.
        for _ in range(10):
            classifier.predict(texts)

    warm_s = _timeit_median(warm_block, repeats) / 10.0

    return {
        "n_docs": len(texts),
        "timings": {"batch_cold_s": cold_s, "batch_warm_s": warm_s},
        "metrics": {
            "cache_speedup": cold_s / warm_s,
            "docs_per_sec": len(texts) / cold_s,
            "cached_docs_per_sec": len(texts) / warm_s,
        },
    }


def scenario_table4(quick: bool) -> dict:
    """Time the real ``holistix-experiments`` CLI, serial vs ``--jobs 4``.

    Each measurement is a fresh subprocess so neither run inherits the
    other's in-process caches.  Both share one scratch pretraining disk
    cache, warmed by an unmeasured pass in full mode, so serial and
    parallel see identical cache state and the comparison isolates the
    execution strategy.
    """
    import re
    import tempfile

    suite = ["E1", "E5", "E6", "E7"] if quick else [f"E{i}" for i in range(1, 9)]

    def strip_timing(output: str) -> str:
        return "\n".join(
            line for line in output.splitlines() if not line.startswith("[")
        )

    with tempfile.TemporaryDirectory(prefix="holistix-bench-") as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_PRETRAIN_CACHE"] = scratch

        def run_cli(extra: list[str]) -> tuple[float, str]:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner", "run"]
                + suite
                + extra,
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            return time.perf_counter() - started, proc.stdout

        if not quick:
            run_cli([])  # warm-up: populate the pretraining disk cache
        serial_s, serial_out = run_cli([])
        jobs4_s, parallel_out = run_cli(["--jobs", "4"])

    if strip_timing(serial_out) != strip_timing(parallel_out):
        raise AssertionError("parallel run produced different reports")
    per_experiment = {
        f"{match.group(1)}_s": float(match.group(2))
        for match in re.finditer(r"\[(E\d+) took ([\d.]+)s\]", serial_out)
    }

    return {
        "suite": suite,
        "timings": {
            "serial_s": serial_s,
            "jobs4_s": jobs4_s,
            **per_experiment,
        },
        "metrics": {
            "jobs4_speedup": serial_s / jobs4_s,
            "jobs4_wall_clock_reduction_s": serial_s - jobs4_s,
            "reports_identical": True,
        },
    }


def scenario_transformer(quick: bool) -> dict:
    """Benchmark the neural substrate end to end.

    Measures pretraining and fine-tuning steps/sec on a Table IV-sized
    model, the same fine-tuning workload with the fused autograd
    kernels disabled (``use_fused_ops(False)`` routes every LayerNorm,
    Linear, and attention-score op through the composed primitive-op
    fallback), p50/p95 single-text inference latency through the
    prediction engine, and the padding saved by length-bucketed
    training batches.  The primary metric is the fused-vs-composed
    steps/sec ratio, which is hardware-independent.
    """
    from dataclasses import replace

    from repro.core.dataset import HolistixDataset
    from repro.models.config import MODEL_CONFIGS
    from repro.models.pretrain import build_pretraining_corpus, pretrain
    from repro.models.trainer import Trainer
    from repro.nn.batching import padded_token_count, window_bucketed_batches
    from repro.nn.functional import use_fused_ops
    from repro.text.vocab import Vocabulary

    dataset = HolistixDataset.build()
    n_train = 256 if quick else 512
    texts = dataset.texts[:n_train]
    labels = dataset.labels[:n_train]
    corpus = build_pretraining_corpus("mental_health", size=400, seed=101)
    vocab = Vocabulary.build(corpus + texts, max_size=2000)
    config = replace(
        MODEL_CONFIGS["BERT"],
        pretrain_steps=0,
        epochs=2 if quick else 3,
    )
    pretrain_steps = 30 if quick else 100

    def timed_finetune() -> tuple[Trainer, float, int]:
        """Median-of-k fine-tune wall-clock (fresh Trainer per run)."""
        last: list[Trainer] = []

        def one_fit() -> None:
            trainer = Trainer(
                config, vocab, use_pretraining_cache=False, bucket_window=8
            )
            trainer.fit(texts, labels)
            last[:] = [trainer]

        elapsed = _timeit_median(one_fit, repeats=2, warmup=1)
        return last[0], elapsed, len(last[0].result.train_losses)

    # Fused fine-tune (the production path) and the composed fallback;
    # both go through the warm-up + median timer so the CI-gated ratio
    # isn't built from two single cold measurements.
    trainer, fused_s, n_steps = timed_finetune()
    with use_fused_ops(False):
        _, composed_s, composed_steps = timed_finetune()

    # Pretraining steps/sec (MLM objective, bucketed batches).
    pretrain_model = Trainer(
        config, vocab, use_pretraining_cache=False
    ).model
    started = time.perf_counter()
    pretrain(
        pretrain_model,
        corpus,
        steps=pretrain_steps,
        objective="mlm",
        seed=3,
    )
    pretrain_s = time.perf_counter() - started

    # Padding saved by bucketing, on the actual training lengths.
    rows = [trainer.model.encode_ids(t) for t in texts]
    lengths = [len(r) for r in rows]
    order = list(range(len(rows)))
    plain_tokens = padded_token_count(
        lengths, window_bucketed_batches(order, lengths, config.batch_size, window=1)
    )
    bucketed_tokens = padded_token_count(
        lengths, window_bucketed_batches(order, lengths, config.batch_size, window=8)
    )

    # Inference latency: p50/p95 over unique single-text requests.
    probe = dataset.texts[n_train : n_train + (30 if quick else 60)]
    trainer.engine.invalidate()
    latencies = []
    for text in probe:
        started = time.perf_counter()
        trainer.predict([text])
        latencies.append(time.perf_counter() - started)
    latencies.sort()
    p50_ms = 1000 * latencies[len(latencies) // 2]
    p95_ms = 1000 * latencies[int(len(latencies) * 0.95)]
    trainer.engine.invalidate()
    batch_s = _timeit_median(
        lambda: (trainer.engine.invalidate(), trainer.predict(list(probe))),
        2 if quick else 3,
    )

    return {
        "n_docs": n_train,
        "timings": {
            "finetune_fused_s": fused_s,
            "finetune_composed_s": composed_s,
            "pretrain_s": pretrain_s,
            "inference_p50_ms": p50_ms,
            "inference_p95_ms": p95_ms,
            "inference_batch_s": batch_s,
        },
        "metrics": {
            "fused_speedup": (composed_s / composed_steps) / (fused_s / n_steps),
            "finetune_steps_per_sec": n_steps / fused_s,
            "pretrain_steps_per_sec": pretrain_steps / pretrain_s,
            "inference_docs_per_sec": len(probe) / batch_s,
            "bucketed_padding_saved": 1.0 - bucketed_tokens / plain_tokens,
        },
    }


class FixedServiceBackend:
    """Sleeps ``per_batch_ms`` + ``per_item_ms`` per item; uniform probabilities.

    The fixed-service-time stub ``serving_chaos`` serves: it keeps model
    speed out of a scenario that gates recovery from injected faults,
    and its sleep releases the GIL as BLAS matmuls and native kernels
    do.
    """

    n_classes = 6

    def __init__(self, per_batch_ms, per_item_ms):
        self.per_batch_ms = per_batch_ms
        self.per_item_ms = per_item_ms

    def proba_batch(self, texts):
        time.sleep((self.per_batch_ms + self.per_item_ms * len(texts)) / 1000.0)
        return np.full((len(texts), 6), 1.0 / 6.0)


# The storm ``serving_chaos`` applies, in seconds from the start of its
# chaos leg.  ``target`` is a worker slot; the truncation burst faults
# the next ``count`` responses within ``duration_s``.
CHAOS_SCHEDULE: tuple[dict, ...] = (
    {"at_s": 1.57, "kind": "worker_stall", "target": 1, "duration_s": 0.4},
    {"at_s": 2.239, "kind": "worker_crash", "target": 1},
    {"at_s": 2.608, "kind": "truncate_response", "duration_s": 0.3, "count": 5},
)


def _chaos_engine_factory():
    """Module-level engine factory: picklable for spawn-started workers."""
    from repro.engine.engine import PredictionEngine

    return PredictionEngine(
        FixedServiceBackend(per_batch_ms=5.0, per_item_ms=0.2),
        model_id="bench-chaos",
        cache_size=0,
    )


def _apply_chaos_schedule(server, proxy, t0, cancel, log) -> None:
    """Apply ``CHAOS_SCHEDULE`` from outside the server, timed from ``t0``.

    A worker fault signals the pid its slot reports at that moment;
    ``log`` gets ``(seconds since t0, kind, target)`` for each one the
    process was alive to receive (for a stall: at the stop and at the
    continue).  ``cancel`` abandons the events not yet due.
    """
    for event in CHAOS_SCHEDULE:
        if cancel.wait(max(0.0, t0 + event["at_s"] - time.monotonic())):
            return
        kind = event["kind"]
        if kind == "truncate_response":
            proxy.fault_next("truncate", event["count"])
            cancel.wait(event["duration_s"])
            proxy.clear()
            continue
        at_s = round(time.monotonic() - t0, 3)
        report = server.worker_processes()[event["target"]]
        if not report["alive"]:
            continue
        pid = report["pid"]
        if kind == "worker_stall":
            applied = stall_worker(pid, event["duration_s"]) == (True, True)
        else:
            applied = kill_worker(pid)
        if applied:
            log.append((at_s, kind, event["target"]))


def scenario_serving_chaos(quick: bool) -> dict:
    """Apply the fault schedule from outside and gate on recovery, not speed.

    Boots the full production stack — ``ProcessInferenceServer`` (two
    worker processes under the background supervisor) behind a loopback
    ``ServingGateway``, driven by a resilient ``ServingClient`` through a
    ``FaultProxy`` — then runs three open-loop Poisson legs:

    1. **Baseline** — clean traffic; its p99 is the recovery yardstick.
    2. **Chaos** — a timer thread applies ``CHAOS_SCHEDULE`` (SIGSTOP one
       worker, SIGKILL it, truncate a burst of responses at the proxy)
       while load continues until one second after the last fault.
    3. **Recovery** — after the supervisor reports every worker slot
       alive again, the baseline workload repeats.

    Gated invariants, all checked in-run: chaos-leg availability
    ``>= 0.99`` (client retries and the supervisor must absorb the
    storm; deadline sheds are credited back — shedding is policy, not
    failure), recovery p99 <= max(2x baseline p99, 250 ms) (the floor
    absorbs scheduler noise), at least one supervised worker respawn,
    every scheduled fault observed as applied, and zero orphaned worker
    processes after shutdown.  The primary metric is the chaos-leg
    availability; per-leg histograms, the schedule and the observed
    fault log land in ``serving_chaos_histogram.json``.
    """
    from repro.corpus.factory import CorpusFactory
    from repro.engine.procserver import ProcessInferenceServer
    from repro.loadgen import poisson_schedule, run_open_loop
    from repro.serving.client import ServingClient
    from repro.serving.gateway import ServingGateway

    seed = 1307
    corpus_n = 4_000 if quick else 12_000
    started = time.perf_counter()
    texts = CorpusFactory().texts(seed, corpus_n)
    corpus_s = time.perf_counter() - started

    rate = 80.0 if quick else 120.0
    leg_s = 1.5 if quick else 3.0
    chaos_s = 1.0 + max(
        event["at_s"] + event.get("duration_s", 0.0) for event in CHAOS_SCHEDULE
    )
    seen_pids: set[int] = set()
    fault_log: list[tuple[float, str, int | None]] = []

    def note_pids(server) -> tuple[int, int]:
        """Record live worker pids; returns (alive, restarts_total)."""
        alive = 0
        restarts = 0
        for report in server.worker_processes():
            if report["pid"] is not None:
                seen_pids.add(report["pid"])
            alive += 1 if report["alive"] else 0
            restarts += report["restarts"]
        return alive, restarts

    server = ProcessInferenceServer.from_factory(
        _chaos_engine_factory,
        model_id="bench-chaos",
        workers=2,
        max_batch_size=8,
        max_queue=512,
        overload="block",
        supervisor_interval_s=0.1,
        respawn_backoff_base_s=0.05,
    )
    with ServingGateway(server) as gateway, FaultProxy(gateway.port) as proxy:
        client = ServingClient(
            proxy.url,
            deadline_s=10.0,
            retry_seed=seed,
            breaker_threshold=8,
        )
        client.wait_ready(deadline_s=30.0)

        baseline = run_open_loop(
            poisson_schedule(rate, duration_s=leg_s, seed=seed),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=128,
            deadline_s=10.0,
        )
        if baseline.failed or baseline.dropped:
            raise AssertionError(
                f"chaos baseline leg lost requests: {baseline.summary()}"
            )
        note_pids(server)

        # The storm: the fault timer applies the schedule while load
        # continues.  The resilient client may retry through truncated
        # responses; the supervisor must replace the SIGKILLed worker;
        # nothing here is allowed to need manual intervention.
        sheds_before = server.stats.snapshot().deadline_shed
        cancel = threading.Event()
        t0 = time.monotonic()
        timer = threading.Thread(
            target=_apply_chaos_schedule,
            args=(server, proxy, t0, cancel, fault_log),
            name="chaos-schedule",
            daemon=False,
        )
        timer.start()
        try:
            chaos_leg = run_open_loop(
                poisson_schedule(rate, duration_s=chaos_s, seed=seed + 1),
                lambda text, at: client.predict(text, intended_at=at),
                texts,
                max_in_flight=256,
                deadline_s=10.0,
            )
        finally:
            # No signal may outlive the leg: a pid recycled after the
            # server stops must never receive one.
            cancel.set()
            timer.join()
        fault_log.extend(
            (round(at - t0, 3), "truncate_response", None)
            for at, _kind in proxy.faulted()
        )
        fault_log.sort()
        deadline_sheds = server.stats.snapshot().deadline_shed - sheds_before
        note_pids(server)

        # Shedding under pressure is policy, not failure: requests the
        # gateway turned away because their budget could not cover the
        # observed service time are credited back before gating.
        availability = (
            (chaos_leg.completed + deadline_sheds) / chaos_leg.scheduled
            if chaos_leg.scheduled
            else 1.0
        )
        if availability < 0.99:
            raise AssertionError(
                f"chaos-leg availability {availability:.4f} < 0.99: "
                f"{chaos_leg.summary()}"
            )

        # Wait (read-only — no revival probes, the supervisor alone must
        # do the work) until every worker slot is alive again.
        recovery_wait_started = time.perf_counter()
        recovery_deadline = recovery_wait_started + 15.0
        while True:
            alive, restarts_total = note_pids(server)
            if alive == server.workers:
                break
            if time.perf_counter() > recovery_deadline:
                raise AssertionError(
                    "workers did not recover within 15s of the storm: "
                    f"{server.worker_processes()}"
                )
            time.sleep(0.05)
        recovery_wait_s = time.perf_counter() - recovery_wait_started
        if restarts_total < 1:
            raise AssertionError(
                "no supervised respawn happened; the scheduled worker_crash "
                "never bit or the supervisor is dead"
            )

        recovery = run_open_loop(
            poisson_schedule(rate, duration_s=leg_s, seed=seed + 2),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=128,
            deadline_s=10.0,
        )
        if recovery.failed or recovery.dropped:
            raise AssertionError(
                f"chaos recovery leg lost requests: {recovery.summary()}"
            )
        note_pids(server)
        client_stats = client.stats()

    # Recovery p99 may be at most twice the baseline p99.  The absolute
    # 250 ms floor keeps a 3 ms-vs-1.4 ms scheduler wobble from failing
    # a gate that exists to catch seconds-long degradation.
    recovery_ceiling_ms = max(2.0 * baseline.p99_ms, 250.0)
    if recovery.p99_ms > recovery_ceiling_ms:
        raise AssertionError(
            f"post-fault recovery p99 {recovery.p99_ms:.1f}ms exceeds "
            f"{recovery_ceiling_ms:.1f}ms (2x baseline "
            f"{baseline.p99_ms:.1f}ms, 250ms floor)"
        )

    scheduled = Counter()
    for event in CHAOS_SCHEDULE:
        scheduled[event["kind"]] += event.get("count", 1)
    observed = Counter(kind for _, kind, _ in fault_log)
    if observed != scheduled:
        raise AssertionError(
            f"scheduled faults {dict(scheduled)} were not all observed as "
            f"applied: {dict(observed)} (log: {fault_log})"
        )

    # Every worker pid observed during the run must be gone once the
    # stack is stopped — SIGKILLed originals, supervised replacements,
    # and the final generation alike.
    orphan_deadline = time.monotonic() + 5.0
    orphans = set(seen_pids)
    while orphans and time.monotonic() < orphan_deadline:
        for pid in sorted(orphans):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                orphans.discard(pid)
            except PermissionError:
                pass  # still alive under another uid: counts as orphaned
        if orphans:
            time.sleep(0.1)
    if orphans:
        raise AssertionError(
            f"worker processes survived shutdown: {sorted(orphans)}"
        )

    return {
        "n_docs": corpus_n,
        "timings": {
            "corpus_build_s": corpus_s,
            "baseline_p50_ms": baseline.p50_ms,
            "baseline_p99_ms": baseline.p99_ms,
            "chaos_p50_ms": chaos_leg.p50_ms,
            "chaos_p99_ms": chaos_leg.p99_ms,
            "recovery_p50_ms": recovery.p50_ms,
            "recovery_p99_ms": recovery.p99_ms,
            "recovery_wait_s": recovery_wait_s,
        },
        "metrics": {
            "chaos_availability": availability,
            "chaos_scheduled": chaos_leg.scheduled,
            "chaos_completed": chaos_leg.completed,
            "chaos_failed": chaos_leg.failed,
            "chaos_dropped": chaos_leg.dropped,
            "deadline_sheds": deadline_sheds,
            "worker_restarts": restarts_total,
            "recovery_p99_ratio": (
                recovery.p99_ms / baseline.p99_ms if baseline.p99_ms else 1.0
            ),
            "client_retries": client_stats["retries"],
            "client_transport_failures": client_stats["transport_failures"],
            "injected_faults": len(fault_log),
            "orphan_processes": 0,
        },
        "artifacts": {
            "serving_chaos_histogram.json": {
                "scenario": "serving_chaos",
                "note": (
                    "per-leg latency histograms plus the fault schedule "
                    "and the faults observed as applied"
                ),
                "schedule": [dict(event) for event in CHAOS_SCHEDULE],
                "fault_log": [list(entry) for entry in fault_log],
                "error_types": dict(chaos_leg.error_types),
                "legs": {
                    "baseline": baseline.histogram.to_dict(),
                    "chaos": chaos_leg.histogram.to_dict(),
                    "recovery": recovery.histogram.to_dict(),
                },
            }
        },
    }


# name -> (runner, primary metric key, higher is better).  Primary
# metrics are mostly ratios measured within one run, so the regression
# check stays meaningful when the committed record and CI run on
# different hardware; absolute docs/sec numbers are recorded alongside.
SCENARIOS: dict[str, tuple] = {
    "traditional": (scenario_traditional, "sparse_speedup_vs_dense", True),
    "engine": (scenario_engine, "cache_speedup", True),
    "table4": (scenario_table4, "jobs4_speedup", True),
    "transformer": (scenario_transformer, "fused_speedup", True),
    "serving_chaos": (scenario_serving_chaos, "chaos_availability", True),
}


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_path(scenario: str, out_dir: Path) -> Path:
    return out_dir / f"BENCH_{scenario}.json"


def load_previous(scenario: str, out_dir: Path) -> dict | None:
    path = record_path(scenario, out_dir)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def compare(scenario: str, record: dict, previous: dict | None) -> tuple[str, bool]:
    """Human-readable delta vs the previous record and a regression flag."""
    _, key, higher_better = SCENARIOS[scenario]
    current = record["metrics"][key]
    if previous is None:
        return f"{scenario}: {key}={current:.1f} (first record)", False
    if previous.get("quick") != record.get("quick"):
        # Quick and full runs measure different workloads; comparing
        # them would flag sizing changes as perf regressions.
        return (
            f"{scenario}: {key}={current:.1f} "
            "(previous record used a different sizing; not compared)",
            False,
        )
    prior = previous.get("metrics", {}).get(key)
    if prior is None or prior == 0:
        return f"{scenario}: {key}={current:.1f} (no prior {key})", False
    tolerance = SCENARIO_TOLERANCE.get(scenario, REGRESSION_TOLERANCE)
    ratio = current / prior if higher_better else prior / current
    regressed = ratio < (1.0 - tolerance)
    arrow = "regressed" if regressed else ("improved" if ratio > 1.0 else "held")
    return (
        f"{scenario}: {key} {prior:.1f} -> {current:.1f} "
        f"({ratio:.2f}x vs {previous.get('git_sha', '?')[:8]}, {arrow})",
        regressed,
    )


def run_scenario(scenario: str, *, quick: bool, out_dir: Path) -> tuple[dict, bool]:
    """Run one scenario, persist its record, return (record, regressed)."""
    runner, _, _ = SCENARIOS[scenario]
    previous = load_previous(scenario, out_dir)
    started = time.perf_counter()
    result = runner(quick)
    # Sidecar artifacts (e.g. full latency histograms) are written next
    # to the record but kept out of it: BENCH_*.json stays small enough
    # to diff in review, and the sidecar carries the bulk data CI
    # uploads as a workflow artifact.
    artifacts: dict = result.pop("artifacts", {})
    result_record = {
        "scenario": scenario,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "harness_wall_clock_s": time.perf_counter() - started,
        **result,
    }
    summary, regressed = compare(scenario, result_record, previous)
    if previous is not None:
        result_record["previous"] = {
            "git_sha": previous.get("git_sha"),
            "timestamp": previous.get("timestamp"),
            "metrics": previous.get("metrics"),
        }
    if artifacts:
        result_record["artifacts"] = sorted(artifacts)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path(scenario, out_dir).write_text(
        json.dumps(result_record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for name, payload in artifacts.items():
        (out_dir / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(summary)
    if regressed:
        _annotate_regression(scenario, summary)
    return result_record, regressed


def _annotate_regression(scenario: str, summary: str) -> None:
    """Make a regression visible on GitHub, not just a red cron run.

    Scheduled workflow failures notify nobody by default; a
    ``::error`` workflow command surfaces the regression as an
    annotation on the run summary page (and on the PR's checks tab for
    pull-request runs).  The ``benchmark-table4`` job additionally
    opens/updates a pinned tracking issue from this annotation's text.
    """
    if os.environ.get("GITHUB_ACTIONS") != "true":
        return
    message = summary.replace("%", "%25").replace("\n", "%0A")
    print(
        f"::error title=Benchmark regression ({scenario})::{message}",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description="Run named perf scenarios and persist BENCH_*.json records.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which scenarios to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI sizing: smaller corpora/suites"
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DEFAULT_OUT_DIR,
        help=f"record directory (default: {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when a scenario regressed vs its previous record",
    )
    args = parser.parse_args(argv)

    requested = args.scenarios if isinstance(args.scenarios, list) else ["all"]
    if not requested or "all" in requested:
        requested = list(SCENARIOS)

    any_regressed = False
    for scenario in requested:
        _, regressed = run_scenario(
            scenario, quick=args.quick, out_dir=args.out_dir
        )
        any_regressed = any_regressed or regressed
    if args.check and any_regressed:
        print("benchmark regression detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

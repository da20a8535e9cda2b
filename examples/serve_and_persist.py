"""Persist a fitted classifier and serve it with replicated workers.

Run with::

    python examples/serve_and_persist.py [--baseline LR]

Trains a baseline on the paper's fixed split, saves it as a checkpoint
directory, loads it back into a fresh classifier (verifying the
predictions are identical), then stands up the replicated micro-batching
``InferenceServer`` — four worker threads over private engine replicas
behind a bounded admission queue — and pushes concurrent traffic through
it, printing a consistent stats snapshot (throughput, latency
percentiles, per-worker load) and the aggregated replica cache
statistics.  It then overloads a deliberately undersized shed-mode
server to show typed load shedding, and finally exposes the model over
HTTP with the ``ServingGateway`` — real loopback requests through the
``ServingClient``, a 429 observed under forced shed, a Prometheus
``/metrics`` scrape, and a graceful drain.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

from repro import HolistixDataset, WellnessClassifier
from repro.engine import InferenceServer, ServerOverloaded
from repro.serving import GatewayOverloaded, ServingClient, ServingGateway


def main(baseline: str = "LR") -> None:
    print(f"Training the {baseline} baseline on the fixed split...")
    dataset = HolistixDataset.build()
    split = dataset.fixed_split()
    fast = baseline not in ("LR", "Linear SVM", "Gaussian NB")
    classifier = WellnessClassifier(baseline, fast=fast).fit(split.train)
    texts = split.test.texts
    direct = classifier.predict(texts)

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "checkpoint"
        classifier.save(checkpoint)
        files = sorted(p.name for p in checkpoint.iterdir())
        print(f"Saved checkpoint: {files}")
        restored = WellnessClassifier.load(checkpoint)
        match = restored.predict(texts) == direct
        print(f"Reloaded model predictions identical: {match}")
        if not match:
            raise SystemExit("round-trip mismatch")

    print("\nServing the test split through 4 replicated workers...")
    server = InferenceServer(
        classifier.engine,
        workers=4,
        max_batch_size=32,
        max_queue=512,
        overload="block",
    )
    with server:
        chunks = [texts[i::8] for i in range(8)]
        outputs: list = [None] * 8

        def client(i: int) -> None:
            outputs[i] = server.predict(chunks[i], timeout=60.0)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    snap = server.stats.snapshot()
    print(
        f"  served {snap.requests} requests in {snap.batches} batches "
        f"(mean batch {snap.mean_batch_size:.1f}, largest {snap.largest_batch})"
    )
    print(f"  per-worker requests: {list(snap.per_worker_requests)}")
    print(
        f"  throughput {snap.throughput():,.0f} req/s; latency "
        f"mean {snap.mean_latency_ms:.2f} ms, p95 "
        f"{snap.latency_percentile(95):.2f} ms, p99 "
        f"{snap.latency_percentile(99):.2f} ms"
    )
    engine_stats = server.engine_stats()
    print(
        f"  replica caches: {engine_stats.cache_hits} hits / "
        f"{engine_stats.cache_misses} misses "
        f"(hit rate {engine_stats.hit_rate:.0%})"
    )

    print("\nOverloading an undersized shed-mode server (max_queue=8)...")
    shed_server = InferenceServer(
        classifier.engine,
        workers=1,
        max_batch_size=4,
        max_queue=8,
        overload="shed",
    )
    with shed_server:
        for text in texts[:200]:
            try:
                shed_server.submit(text)
            except ServerOverloaded:
                pass
    overload = shed_server.stats.snapshot()
    print(
        f"  offered 200 requests: served {overload.requests}, "
        f"shed {overload.shed} (shed rate {overload.shed_rate:.0%})"
    )

    print("\nExposing the model over HTTP (ephemeral loopback port)...")
    http_server = InferenceServer(
        classifier.engine, workers=2, max_batch_size=16, max_queue=64
    )
    with ServingGateway(http_server, baseline=baseline) as gateway:
        client = ServingClient(gateway.url, deadline_s=15)
        health = client.healthz()
        print(f"  {gateway.url}/healthz -> {health}")
        response = client.predict(texts[0], top_k=2)
        print(f"  POST /v1/predict top_k=2 -> {response.top_k}")
        print(f"  served_by -> {response.served_by}")
        batch = client.predict_batch(texts[:12])
        print(f"  POST /v1/predict_batch -> {len(batch.predictions)} results")
        loaded = [m["name"] for m in client.models()["registry"] if m["loaded"]]
        print(f"  GET /v1/models -> loaded={loaded}")
        scraped = client.metrics()
        served = scraped[("holistix_server_requests_total", frozenset())]
        print(f"  GET /metrics -> holistix_server_requests_total {served:.0f}")
    print("  gateway drained and stopped; port released")

    print("\nForcing a 429 through an undersized shed-mode gateway...")
    tiny = InferenceServer(
        classifier.engine,
        workers=1,
        max_batch_size=1,
        max_queue=1,
        overload="shed",
    )
    with ServingGateway(tiny, baseline=baseline) as gateway:
        burst_client = ServingClient(gateway.url, deadline_s=5)
        outcomes: list[bool] = []  # list.append is atomic under the GIL

        def burst(i: int) -> None:
            try:
                burst_client.predict(f"burst {i}", retry_on_overload=False)
                outcomes.append(True)
            except GatewayOverloaded:
                outcomes.append(False)

        burst_threads = [
            threading.Thread(target=burst, args=(i,)) for i in range(16)
        ]
        for t in burst_threads:
            t.start()
        for t in burst_threads:
            t.join()
    print(
        f"  burst of 16 over HTTP: {outcomes.count(True)} served, "
        f"{outcomes.count(False)} answered 429 (typed GatewayOverloaded)"
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    chosen = args[args.index("--baseline") + 1] if "--baseline" in args else "LR"
    main(chosen)

"""Serving-path benchmark: micro-batched throughput and cache effect.

Not a paper table — this pins the cost of the `repro.engine` serving
stack: end-to-end latency of the micro-batching server over a fitted
baseline, and the speedup the LRU prediction cache buys on repeated
traffic.
"""

import threading

from repro.core.pipeline import WellnessClassifier
from repro.engine.server import InferenceServer


def test_server_throughput(benchmark, dataset):
    split = dataset.fixed_split()
    classifier = WellnessClassifier("LR").fit(split.train)
    texts = split.test.texts
    direct = classifier.predict(texts)
    classifier.engine.invalidate()

    def run():
        classifier.engine.invalidate()
        server = InferenceServer(classifier.engine, max_batch_size=32)
        with server:
            chunks = [texts[i::4] for i in range(4)]
            outputs = [None] * 4

            def client(i):
                outputs[i] = server.predict(chunks[i])

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return server, outputs

    server, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    served = [r.label for chunk in outputs for r in chunk]
    expected = [label for i in range(4) for label in direct[i::4]]
    assert served == expected
    stats = server.stats
    print(
        f"\nserving: {stats.requests} requests in {stats.batches} batches "
        f"(mean batch {stats.mean_batch_size:.1f}); "
        f"throughput {stats.throughput():,.0f} req/s; "
        f"latency mean {stats.mean_latency_ms:.2f} ms "
        f"p95 {stats.latency_percentile(95):.2f} ms"
    )
    assert stats.requests == len(texts)
    # Coalescing must actually batch: far fewer forward passes than requests.
    assert stats.batches < stats.requests


def test_cache_speedup_on_repeated_traffic(benchmark, dataset):
    split = dataset.fixed_split()
    classifier = WellnessClassifier("LR").fit(split.train)
    texts = split.test.texts[:100]
    engine = classifier.engine
    engine.invalidate()
    engine.predict_proba(texts)  # warm

    def run():
        return engine.predict_proba(texts)

    benchmark.pedantic(run, rounds=3, iterations=1)
    stats = engine.stats
    print(
        f"\ncache: {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"(hit rate {stats.hit_rate:.0%})"
    )
    # Warm-up misses once; every benchmarked round is pure cache hits
    # (exactly 50% when --benchmark-disable collapses to a single round).
    assert stats.hit_rate >= 0.5
    assert stats.cache_hits >= len(texts)

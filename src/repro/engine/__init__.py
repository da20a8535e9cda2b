"""Unified model registry, batched inference engine, and serving layer.

The three pieces every prediction path shares:

* :mod:`repro.engine.registry` — one declarative table of the nine
  Table IV baselines (name → kind, factory, config).
* :mod:`repro.engine.engine` — :class:`PredictionEngine`: tokenisation,
  length-bucketed batching, a weights-versioned LRU prediction cache,
  and vectorised softmax/argmax.
* :mod:`repro.engine.server` — a stdlib replicated micro-batching
  front-end: N worker threads over engine replicas, a bounded admission
  queue with block/shed backpressure, graceful drain, and thread-safe
  throughput/latency stats snapshots.
* :mod:`repro.engine.procserver` — the same admission core over worker
  *processes* attached to shared-memory weights: GIL-free compute that
  scales with cores, with dead-worker respawn and hot reload via the
  ``weights_version`` token.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.engine.engine": (
            "EngineStats",
            "LatencyInjectedBackend",
            "PredictionEngine",
            "TraditionalBackend",
            "TransformerBackend",
            "bump_weights_version",
            "softmax_rows",
            "weights_version",
        ),
        "repro.engine.procserver": (
            "FactoryEngineSpec",
            "ProcessInferenceServer",
            "SharedCheckpointEngineSpec",
        ),
        "repro.engine.registry": (
            "REGISTRY",
            "BaselineSpec",
            "available_baselines",
            "build_engine",
            "create_traditional_model",
            "create_transformer",
            "get_spec",
            "register",
            "traditional_baselines",
            "transformer_baselines",
            "transformer_class",
        ),
        "repro.engine.server": (
            "BatchingServerBase",
            "InferenceServer",
            "PredictionResult",
            "RemoteWorkerError",
            "ServerClosed",
            "ServerOverloaded",
            "ServerStats",
            "StatsSnapshot",
        ),
    },
)

__all__ = [
    "BaselineSpec",
    "BatchingServerBase",
    "EngineStats",
    "FactoryEngineSpec",
    "InferenceServer",
    "LatencyInjectedBackend",
    "PredictionEngine",
    "PredictionResult",
    "ProcessInferenceServer",
    "REGISTRY",
    "RemoteWorkerError",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "SharedCheckpointEngineSpec",
    "StatsSnapshot",
    "TraditionalBackend",
    "TransformerBackend",
    "available_baselines",
    "build_engine",
    "bump_weights_version",
    "create_traditional_model",
    "create_transformer",
    "get_spec",
    "register",
    "softmax_rows",
    "traditional_baselines",
    "transformer_baselines",
    "transformer_class",
]

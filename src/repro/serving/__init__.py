"""HTTP serving layer: the network boundary over the inference engine.

The stack, bottom-up:

* :mod:`repro.engine.server` — in-process replicated
  :class:`InferenceServer` (workers, admission queue, backpressure).
* :mod:`repro.serving.fleet` — :class:`ModelFleet`, N named model
  entries with A/B routing, shadow mirroring, and per-entry stats.
* :mod:`repro.serving.protocol` — the JSON wire contract (request
  validation, response shaping, typed error payloads, the ``served_by``
  envelope).
* :mod:`repro.serving.gateway` — :class:`ServingGateway`, a stdlib
  ``ThreadingHTTPServer`` speaking that contract over a fleet, with
  Prometheus ``/metrics`` (:mod:`repro.serving.metrics`) and graceful
  drain.
* :mod:`repro.serving.client` — :class:`ServingClient`, a stdlib
  ``urllib`` client with retry-on-429 + deadline semantics, returning
  typed :class:`PredictResult` objects.
* :mod:`repro.serving.cli` — the ``holistix-serve`` console script
  (single ``--checkpoint`` or repeatable ``--model`` fleet flags).

See ``docs/SERVING.md`` for the wire protocol reference and deployment
notes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serving.client": (
            "GatewayOverloaded",
            "GatewayUnavailable",
            "PredictBatchResult",
            "PredictResult",
            "ServedBy",
            "ServingClient",
            "ServingError",
        ),
        "repro.serving.fleet": ("ModelEntry", "ModelFleet", "UnknownModelError"),
        "repro.serving.gateway": ("ServingGateway",),
        "repro.serving.metrics": ("parse_metrics", "render_metrics"),
        "repro.serving.protocol": (
            "MAX_BATCH_TEXTS",
            "MAX_BODY_BYTES",
            "ProtocolError",
        ),
    },
)

__all__ = [
    "GatewayOverloaded",
    "GatewayUnavailable",
    "MAX_BATCH_TEXTS",
    "MAX_BODY_BYTES",
    "ModelEntry",
    "ModelFleet",
    "PredictBatchResult",
    "PredictResult",
    "ProtocolError",
    "ServedBy",
    "ServingClient",
    "ServingError",
    "ServingGateway",
    "UnknownModelError",
    "parse_metrics",
    "render_metrics",
]

"""``holistix-serve`` — serve saved checkpoints over HTTP.

Loads :meth:`~repro.core.pipeline.WellnessClassifier.save` checkpoint
directories, builds a :class:`PredictionEngine` for each through the
model registry (:func:`repro.engine.registry.build_engine` — the same
single construction path every in-process caller uses), wraps each in
its own replicated :class:`InferenceServer`, and exposes the resulting
:class:`~repro.serving.fleet.ModelFleet` through
:class:`~repro.serving.gateway.ServingGateway`::

    # One model (the classic invocation, mapped onto a one-entry fleet):
    holistix-serve --checkpoint /path/to/checkpoint --port 8420 \\
        --workers 4 --max-queue 512 --overload shed

    # A fleet: 90/10 champion/challenger A/B split plus a shadow scorer:
    holistix-serve --port 8420 \\
        --model champion=/ckpts/lr:weight=0.9 \\
        --model challenger=/ckpts/retrained:weight=0.1 \\
        --model shadow_bert=/ckpts/bert:shadow

SIGTERM and SIGINT trigger a graceful drain: readiness flips to 503,
in-flight requests finish, the admitted backlog resolves, and the
process exits 0 — the contract the ``e2e-serving-smoke`` CI job and any
rolling-restart deployment rely on.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from pathlib import Path

from repro.core.pipeline import WellnessClassifier
from repro.engine.engine import LatencyInjectedBackend
from repro.engine.registry import build_engine
from repro.engine.server import InferenceServer
from repro.serving.fleet import ModelEntry, ModelFleet
from repro.serving.gateway import ServingGateway

__all__ = ["main", "parse_model_spec"]

log = logging.getLogger("repro.serving.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holistix-serve",
        description="Serve a saved WellnessClassifier checkpoint over HTTP.",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help=(
            "checkpoint directory written by WellnessClassifier.save(); "
            "the single-model form, served as a one-entry fleet "
            "(mutually exclusive with --model)"
        ),
    )
    parser.add_argument(
        "--model",
        dest="models",
        action="append",
        default=None,
        metavar="NAME=CKPT[:weight=W][:shadow]",
        help=(
            "add a named fleet entry serving CKPT; repeatable.  "
            "weight sets its share of A/B-split traffic (default 1.0; "
            "0 = explicit-only); :shadow mirrors answered traffic to it "
            "without ever answering.  The first non-shadow entry is the "
            "default model."
        ),
    )
    parser.add_argument(
        "--split-seed",
        type=int,
        default=0,
        help="seed for the per-request-id A/B split hash",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8420, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="serving threads / engine replicas"
    )
    parser.add_argument(
        "--worker-processes",
        type=int,
        default=0,
        help=(
            "serve from N worker processes over shared-memory weights "
            "instead of threads (0 = threaded serving; GIL-bound compute)"
        ),
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --worker-processes "
        "(default: the platform default)",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="cap on texts per batch; a free worker runs what is queued at once",
    )
    parser.add_argument(
        "--max-queue", type=int, default=512, help="admission queue bound"
    )
    parser.add_argument(
        "--overload",
        choices=("block", "shed"),
        default="shed",
        help="full-queue policy: block submitters or shed with HTTP 429",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=2048,
        help="per-replica prediction LRU capacity (0 disables caching)",
    )
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help="shared engine deadline per HTTP request",
    )
    parser.add_argument(
        "--inject-latency-ms",
        type=float,
        default=0.0,
        help="testing aid: add fixed latency to every inference batch",
    )
    parser.add_argument(
        "--admin-token",
        default=None,
        help=(
            "shared secret enabling POST /v1/admin/reload (hot weight "
            "reload); omitted = admin surface disabled"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="INFO",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="stderr log verbosity",
    )
    return parser


def parse_model_spec(spec: str) -> tuple[str, Path, float, bool]:
    """Parse one ``--model NAME=CKPT[:weight=W][:shadow]`` flag.

    Options are stripped off the right end, so checkpoint paths may
    themselves contain colons.  Returns ``(name, path, weight, shadow)``.
    """
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise ValueError(
            f"--model must look like name=ckpt[:weight=W][:shadow], got {spec!r}"
        )
    weight: float | None = None
    shadow = False
    while True:
        head, colon, tail = rest.rpartition(":")
        if not colon:
            break
        if tail == "shadow":
            shadow = True
            rest = head
        elif tail.startswith("weight="):
            try:
                weight = float(tail[len("weight=") :])
            except ValueError:
                raise ValueError(
                    f"bad weight in --model {spec!r}: {tail!r}"
                ) from None
            if weight < 0:
                raise ValueError(f"--model weight must be >= 0, got {weight}")
            rest = head
        else:
            break
    if not rest:
        raise ValueError(f"--model {spec!r} has an empty checkpoint path")
    return name, Path(rest), 1.0 if weight is None else weight, shadow


def _build_entry_server(args, checkpoint: Path):
    """One worker pool over one checkpoint; returns (server, baseline)."""
    if args.worker_processes > 0:
        # Multi-process serving: the checkpoint is read once here and
        # published to shared memory; each worker process attaches
        # zero-copy views and computes outside this process's GIL.
        from repro.engine.procserver import ProcessInferenceServer

        server = ProcessInferenceServer.from_checkpoint(
            checkpoint,
            workers=args.worker_processes,
            max_batch_size=args.max_batch_size,
            max_queue=args.max_queue,
            overload=args.overload,
            start_method=args.start_method,
            cache_size=args.cache_size,
            inject_latency_ms=args.inject_latency_ms,
        )
        return server, server.model_id.split("@", 1)[0]
    classifier = WellnessClassifier.load(checkpoint)
    engine = build_engine(
        classifier.baseline,
        model=classifier.model,
        vectorizer=classifier.vectorizer,
        model_id=f"{classifier.baseline}@{checkpoint.name}",
        cache_size=args.cache_size,
    )
    if args.inject_latency_ms > 0:
        engine.backend = LatencyInjectedBackend(
            engine.backend, args.inject_latency_ms / 1000.0
        )
    server = InferenceServer(
        engine,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_queue=args.max_queue,
        overload=args.overload,
    )
    return server, classifier.baseline


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )

    if args.checkpoint is not None and args.models:
        parser.error("--checkpoint and --model are mutually exclusive")
    if args.checkpoint is None and not args.models:
        parser.error("one of --checkpoint or --model is required")
    if args.checkpoint is not None:
        # The classic single-checkpoint invocation maps onto a
        # one-entry fleet named "default".
        specs = [("default", args.checkpoint, 1.0, False)]
    else:
        try:
            specs = [parse_model_spec(spec) for spec in args.models]
        except ValueError as error:
            parser.error(str(error))

    entries: list[ModelEntry] = []
    for name, checkpoint, weight, shadow in specs:
        log.info(
            "loading %s from %s (weight=%g%s)",
            name,
            checkpoint,
            weight,
            ", shadow" if shadow else "",
        )
        try:
            server, baseline = _build_entry_server(args, checkpoint)
        except (ValueError, FileNotFoundError) as error:
            parser.error(str(error))
        entries.append(
            ModelEntry(name, server, weight=weight, shadow=shadow, baseline=baseline)
        )
    try:
        fleet = ModelFleet(entries, split_seed=args.split_seed)
    except ValueError as error:
        parser.error(str(error))
    gateway = ServingGateway(
        fleet,
        host=args.host,
        port=args.port,
        request_timeout_s=args.request_timeout_s,
        admin_token=args.admin_token,
    )

    stop_event = threading.Event()

    def request_shutdown(signum, frame) -> None:
        log.info("received signal %s; draining", signal.Signals(signum).name)
        stop_event.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)

    gateway.start()
    if args.worker_processes > 0:
        # Workers build their engines asynchronously; holding the ready
        # line until every process answered keeps the contract that a
        # parsed ready line means requests will actually be served.
        for entry in fleet.entries:
            entry.server.wait_ready(timeout=120.0)
    pool = gateway.server.workers
    mode = (
        f"worker_processes={pool}" if args.worker_processes > 0 else f"workers={pool}"
    )
    overload = gateway.server.overload
    if len(fleet.entries) == 1:
        detail = f"model_id={gateway.model_id}, {mode}, overload={overload}"
    else:
        fleet_desc = ",".join(
            f"{e.name}:" + ("shadow" if e.shadow else f"{e.weight:g}")
            for e in fleet.entries
        )
        detail = (
            f"models={fleet_desc}, default={fleet.default}, "
            f"{mode}, overload={overload}"
        )
    # The ready line is machine-readable: the e2e smoke driver and any
    # process supervisor can parse the bound port from it.
    print(f"holistix-serve ready on {gateway.url} ({detail})", flush=True)
    stop_event.wait()
    gateway.stop()
    log.info("drained and stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Multi-process serving backend: GIL-free compute over shared weights.

:class:`ProcessInferenceServer` runs the exact admission core of the
threaded :class:`~repro.engine.server.InferenceServer` (it subclasses
:class:`~repro.engine.server.BatchingServerBase`, so bounded admission,
block/shed overload, graceful drain, and epoched stats are shared code,
not re-implementations) — but each serving thread is a thin *companion*
that forwards coalesced batches over a :func:`multiprocessing.Pipe` to
its own **worker process**.  Numpy forwards in separate processes do
not contend on one GIL, so throughput scales with cores.

Weights travel exactly once: the parent publishes the checkpoint arrays
into one :class:`~repro.nn.serialization.SharedCheckpoint` segment and
every worker attaches zero-copy read-only numpy views over the same
physical pages.  Traditional models serve straight off the views;
transformer workers copy once into their parameters via
``load_state_dict``.  Hot reload is the ``weights_version`` protocol:
:meth:`ProcessInferenceServer.reload_weights` overwrites the shared
bytes in place and bumps the version token; workers poll the token per
batch and rebuild their engine from the updated views when it moves.

Failure handling: a worker process that dies mid-request is respawned
by its companion thread and the batch is retried once (inference is
side-effect-free); ``/healthz`` surfaces per-worker liveness through
:meth:`worker_processes` and :meth:`ensure_workers` respawns dead
workers between requests.  Shared-memory cleanup is owned by the
parent: the segment is unlinked in ``_after_stop`` on every stop path
(clean ``stop()``, SIGTERM drain through the gateway), with the
interpreter's resource tracker as the crash safety net.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lockcheck import create_lock, require_held
from repro.engine.engine import EngineStats, LatencyInjectedBackend
from repro.engine.server import BatchingServerBase, RemoteWorkerError
from repro.nn.serialization import SharedCheckpoint, SharedManifest

__all__ = [
    "FactoryEngineSpec",
    "ProcessInferenceServer",
    "RemoteWorkerError",
    "SharedCheckpointEngineSpec",
]


logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Worker-side engine specs (picklable: they travel over spawn/fork)
# ----------------------------------------------------------------------
class _WorkerRuntime:
    """What one worker process holds: an engine and its weight source.

    ``maybe_refresh`` is the hot-reload poll: when the shared segment's
    ``weights_version`` token moves, the engine is rebuilt from the
    (already updated) views.  Engine stats survive rebuilds — the old
    engine's counters fold into ``_stats_base`` so the parent's
    aggregation never goes backwards.
    """

    def __init__(self, spec, shared: SharedCheckpoint | None, engine) -> None:
        self._spec = spec
        self._shared = shared
        self.engine = engine
        self._version = shared.weights_version if shared is not None else 0
        self._stats_base = EngineStats()

    def maybe_refresh(self) -> None:
        if self._shared is None:
            return
        version = self._shared.weights_version
        if version != self._version:
            self._stats_base.merge(self.engine.stats)
            self.engine = self._spec.build_engine(self._shared)
            self._version = version

    def stats(self) -> EngineStats:
        return EngineStats().merge(self._stats_base).merge(self.engine.stats)

    def close(self) -> None:
        # Drop the engine first: traditional backends hold numpy views
        # into the segment, and a view pins the buffer shm.close() needs
        # released (BufferError otherwise).
        self.engine = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None


@dataclass(frozen=True)
class SharedCheckpointEngineSpec:
    """Recipe a worker process follows to serve a shared checkpoint.

    Plain picklable data: the :class:`SharedManifest` (segment name +
    array layout), the checkpoint ``config`` dict, and the engine
    options.  The worker attaches the segment and rebuilds a fitted
    classifier from the views via ``WellnessClassifier.from_state`` —
    no checkpoint file I/O, no per-worker copy of traditional weights.
    """

    manifest: SharedManifest
    config: dict
    model_id: str
    cache_size: int = 2048
    batch_size: int = 64
    inject_latency_ms: float = 0.0

    def connect(self) -> _WorkerRuntime:
        shared = SharedCheckpoint.attach(self.manifest)
        return _WorkerRuntime(self, shared, self.build_engine(shared))

    def build_engine(self, shared: SharedCheckpoint):
        from repro.core.pipeline import WellnessClassifier
        from repro.engine.registry import build_engine

        classifier = WellnessClassifier.from_state(shared.arrays, self.config)
        engine = build_engine(
            self.config["baseline"],
            model=classifier.model,
            vectorizer=classifier.vectorizer,
            model_id=self.model_id,
            cache_size=self.cache_size,
            batch_size=self.batch_size,
        )
        if self.inject_latency_ms > 0:
            engine.backend = LatencyInjectedBackend(
                engine.backend, self.inject_latency_ms / 1000.0
            )
        return engine


@dataclass(frozen=True)
class FactoryEngineSpec:
    """Worker-side engine built by a plain callable (tests, benchmarks).

    ``factory`` must be picklable — a module-level function — and return
    a fitted :class:`~repro.engine.engine.PredictionEngine` when called
    inside the worker process.  No shared memory is involved.
    """

    factory: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    model_id: str = "factory-engine"

    def connect(self) -> _WorkerRuntime:
        return _WorkerRuntime(self, None, self.factory(*self.args, **self.kwargs))


def _worker_main(spec, conn) -> None:
    """Worker-process loop: build the engine, then serve batches.

    Protocol (parent -> worker): ``("batch", [texts])`` then one reply,
    or ``("stop",)`` to exit.  Replies: ``("ready", pid)`` once after a
    successful build, then per batch either ``("result", probs, stats)``
    (cumulative :class:`EngineStats` piggybacks on every reply) or
    ``("error", summary, traceback)``.  EOF on the pipe means the parent
    is gone — exit instead of orphaning.
    """
    # The parent coordinates drain; a terminal Ctrl-C must not kill
    # workers before admitted futures resolve.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        runtime = spec.connect()
    except BaseException as error:
        try:
            conn.send(
                ("error", f"{type(error).__name__}: {error}", traceback.format_exc())
            )
        except (BrokenPipeError, OSError):
            pass
        conn.close()
        return
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            texts = message[1]
            try:
                runtime.maybe_refresh()
                probs = runtime.engine.predict_proba(texts)
            except BaseException as error:
                conn.send(
                    (
                        "error",
                        f"{type(error).__name__}: {error}",
                        traceback.format_exc(),
                    )
                )
                continue
            conn.send(("result", probs, runtime.stats()))
    except (BrokenPipeError, OSError):  # parent vanished mid-reply
        return
    finally:
        runtime.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side record of one worker process and its dispatch pipe."""

    __slots__ = ("process", "conn", "pid", "error", "closed")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pid: int | None = None
        self.error: str | None = None
        self.closed = False

    def alive(self) -> bool:
        return not self.closed and self.process.is_alive()


class ProcessInferenceServer(BatchingServerBase):
    """Micro-batching server whose workers are separate processes.

    Same client API, admission semantics, drain behaviour, and stats as
    the threaded :class:`~repro.engine.server.InferenceServer` (shared
    base class), but each worker slot owns a child process serving
    through zero-copy shared-memory weights — compute runs outside the
    parent's GIL and scales with cores.

    Construction — one of:

    * :meth:`from_checkpoint` — load a ``WellnessClassifier.save``
      checkpoint once in the parent and publish it to shared memory.
    * :meth:`from_factory` — each worker builds its engine from a
      picklable module-level factory (tests, benchmarks).

    ``start()`` publishes the shared segment (checkpoint mode) and
    spawns the worker processes; :meth:`wait_ready` blocks until every
    worker has built its engine.  ``stop()`` drains admitted requests,
    sends every worker a stop message, reaps the processes, and unlinks
    the shared segment.  A worker that dies mid-request is respawned
    and the batch retried once (inference is side-effect-free).
    """

    def __init__(
        self,
        spec=None,
        *,
        arrays: dict | None = None,
        config: dict | None = None,
        model_id: str | None = None,
        workers: int = 2,
        max_batch_size: int = 32,
        max_queue: int = 1024,
        overload: str = "block",
        start_method: str | None = None,
        cache_size: int = 2048,
        batch_size: int = 64,
        inject_latency_ms: float = 0.0,
        spawn_timeout_s: float = 120.0,
        supervisor_interval_s: float = 0.5,
        respawn_backoff_base_s: float = 0.25,
        respawn_backoff_max_s: float = 5.0,
        crash_loop_threshold: int = 5,
        crash_loop_window_s: float = 30.0,
    ) -> None:
        checkpoint_mode = arrays is not None or config is not None
        if checkpoint_mode and (arrays is None or config is None):
            raise ValueError("checkpoint mode needs both arrays and config")
        if spec is None and not checkpoint_mode:
            raise ValueError("provide either a worker spec or arrays+config")
        if spec is not None and checkpoint_mode:
            raise ValueError("provide either a worker spec or arrays+config, not both")
        super().__init__(
            workers=workers,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            overload=overload,
        )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._arrays = arrays
        self._config = config
        self._static_spec = spec
        self._engine_opts = {
            "cache_size": cache_size,
            "batch_size": batch_size,
            "inject_latency_ms": inject_latency_ms,
        }
        if model_id is None:
            if spec is not None:
                model_id = getattr(spec, "model_id", "process-server")
            else:
                model_id = f"{config.get('baseline', 'model')}@shared"
        self._model_id = model_id
        self._spawn_timeout_s = spawn_timeout_s
        self._shared: SharedCheckpoint | None = None
        self._spec = None
        self._handles: list[_WorkerHandle | None] = [None] * workers
        # Per-slot locks are stable across respawns: a companion thread
        # holds its slot for the whole send/recv round-trip, so there is
        # exactly one outstanding batch per worker and ensure_workers()
        # can probe with a non-blocking acquire.
        self._slot_locks = [create_lock(f"procserver.slot{i}") for i in range(workers)]
        self._ready_events = [threading.Event() for _ in range(workers)]
        self._restarts = [0] * workers
        self._stats_lock = create_lock("procserver.stats")
        self._stats_base = [EngineStats() for _ in range(workers)]
        self._stats_latest = [EngineStats() for _ in range(workers)]
        # Supervisor: a background thread that respawns dead workers
        # within a bounded interval — liveness no longer depends on
        # /healthz probes or traffic hitting the dead slot.  Respawns
        # back off exponentially per slot, and a slot that keeps dying
        # (crash loop) is retired instead of respawned forever; healthz
        # then reports it dead and the gateway flips to "degraded".
        if supervisor_interval_s <= 0:
            raise ValueError("supervisor_interval_s must be positive")
        if crash_loop_threshold < 2:
            raise ValueError("crash_loop_threshold must be >= 2")
        self._supervisor_interval_s = supervisor_interval_s
        self._respawn_backoff_base_s = respawn_backoff_base_s
        self._respawn_backoff_max_s = respawn_backoff_max_s
        self._crash_loop_threshold = crash_loop_threshold
        self._crash_loop_window_s = crash_loop_window_s
        self._supervisor_stop = threading.Event()
        self._supervisor_thread: threading.Thread | None = None
        self._backoff_until = [0.0] * workers
        self._death_history: list[deque] = [deque() for _ in range(workers)]
        self._crash_looped = [False] * workers

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls, path: str | Path, *, model_id: str | None = None, **kwargs
    ) -> "ProcessInferenceServer":
        """Server over a ``WellnessClassifier.save`` checkpoint directory.

        The checkpoint is read exactly once (here, in the parent); the
        arrays are published to shared memory on ``start()`` and worker
        processes attach views — they never touch the checkpoint files.
        """
        from repro.nn.serialization import load_checkpoint

        arrays, config = load_checkpoint(path)
        if model_id is None:
            model_id = f"{config['baseline']}@{Path(path).name}"
        return cls(arrays=arrays, config=config, model_id=model_id, **kwargs)

    @classmethod
    def from_factory(
        cls,
        factory,
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        model_id: str = "factory-engine",
        **server_kwargs,
    ) -> "ProcessInferenceServer":
        """Server whose workers build engines from a picklable factory."""
        spec = FactoryEngineSpec(
            factory=factory, args=args, kwargs=dict(kwargs or {}), model_id=model_id
        )
        return cls(spec, model_id=model_id, **server_kwargs)

    # ------------------------------------------------------------------
    # Introspection (gateway /healthz, /metrics, tests)
    # ------------------------------------------------------------------
    @property
    def model_id(self) -> str:
        return self._model_id

    @property
    def shared_segment_name(self) -> str | None:
        """The shm segment name while running (``/dev/shm`` leak checks)."""
        shared = self._shared
        return shared.name if shared is not None else None

    @property
    def weights_version(self) -> int:
        """Current shared ``weights_version`` token (0 in factory mode)."""
        shared = self._shared
        return shared.weights_version if shared is not None else 0

    def worker_processes(self) -> list[dict]:
        """Per-worker liveness for ``/healthz`` and ``/metrics``.

        One dict per worker slot: ``worker``, ``pid`` (None before
        ready/after stop), ``alive``, ``restarts``, ``crash_looping``.
        A slot is ``alive`` only once its ready handshake has set the
        pid: a process that is still starting serves nothing yet, and
        every caller may signal the pid of a slot reported alive.
        """
        report = []
        for worker, handle in enumerate(self._handles):
            alive = handle is not None and handle.pid is not None and handle.alive()
            report.append(
                {
                    "worker": worker,
                    "pid": handle.pid if handle is not None else None,
                    "alive": bool(alive),
                    "restarts": self._restarts[worker],
                    "crash_looping": self._crash_looped[worker],
                }
            )
        return report

    def ensure_workers(self) -> int:
        """Respawn dead worker processes; returns how many were revived.

        The ``/healthz`` hook: companion threads already respawn lazily
        when a dispatch fails, but a worker that died while idle would
        otherwise stay dead until traffic hits it.  Slots whose lock is
        busy are skipped — a held lock means a batch is in flight and
        the companion thread will handle any death itself.
        """
        if not self.running:
            return 0
        revived = 0
        for worker in range(self.workers):
            if self._crash_looped[worker]:
                continue
            lock = self._slot_locks[worker]
            if not lock.acquire(blocking=False):
                continue
            try:
                handle = self._handles[worker]
                if (
                    handle is not None
                    and not handle.alive()
                    and self._respawn_locked(worker)
                ):
                    revived += 1
            finally:
                lock.release()
        return revived

    def engine_stats(self) -> EngineStats:
        """Aggregate worker-process engine stats (piggybacked on replies)."""
        total = EngineStats()
        with self._stats_lock:
            for base, latest in zip(self._stats_base, self._stats_latest):
                total.merge(base).merge(latest)
        return total

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker process has built its engine.

        Raises ``TimeoutError`` if a worker is still starting when the
        deadline passes, and :class:`RemoteWorkerError` if any worker
        failed to build (its remote traceback is in the message).
        """
        deadline = time.monotonic() + timeout
        for worker, event in enumerate(self._ready_events):
            if not event.wait(max(0.0, deadline - time.monotonic())):
                raise TimeoutError(
                    f"worker {worker} not ready within {timeout:.1f}s"
                )
        failed = [
            (worker, handle.error)
            for worker, handle in enumerate(self._handles)
            if handle is None or not handle.alive()
        ]
        if failed:
            worker, error = failed[0]
            raise RemoteWorkerError(
                f"worker process {worker} failed to start: {error or 'died'}"
            )

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload_weights(self, arrays: dict) -> int:
        """Overwrite the shared weights in place; workers pick the new
        version up on their next batch.  Returns the new version token.

        Checkpoint mode only (factory workers own their weights).  The
        new arrays must match the published names/shapes/dtypes exactly
        — this is a hot *reload*, not a model swap.
        """
        shared = self._shared
        if shared is None:
            raise RuntimeError(
                "no shared segment (server not running, or factory mode)"
            )
        self._arrays = dict(arrays)
        return shared.update(arrays)

    def current_weights(self) -> dict:
        """Copy of the weights currently served (rollback snapshots).

        Checkpoint mode only — factory workers own their weights and
        the parent has nothing to hand back.
        """
        if self._arrays is None:
            raise RuntimeError("no weights held in the parent (factory mode)")
        return dict(self._arrays)

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------
    def arm_chaos(self, injector) -> None:
        """Arm a :class:`~repro.chaos.FaultInjector` against this server.

        Registers the ``worker_crash`` handler (SIGKILL the target
        slot's process — the real thing, not a simulation), installs the
        injector on the batching seam, and starts its clock.  The
        injector is disarmed automatically on ``stop()``.
        """

        def crash(event) -> None:
            slots = (
                range(self.workers) if event.target is None else (event.target,)
            )
            for worker in slots:
                if worker >= self.workers:
                    continue
                handle = self._handles[worker]
                if handle is not None and handle.alive() and handle.pid:
                    os.kill(handle.pid, signal.SIGKILL)

        injector.register("worker_crash", crash)
        self.chaos = injector
        injector.arm()

    # ------------------------------------------------------------------
    # Supervisor
    # ------------------------------------------------------------------
    def _supervisor_loop(self) -> None:
        """Respawn dead workers without waiting for probes or traffic.

        Every interval, each slot whose lock is free (a held lock means
        a companion thread is mid-dispatch and will handle any death
        itself) and whose process has died is respawned through
        :meth:`_respawn_locked` — which enforces the per-slot backoff
        and the crash-loop breaker, so a slot that keeps dying is
        retired rather than hammered.
        """
        while not self._supervisor_stop.wait(self._supervisor_interval_s):
            for worker in range(self.workers):
                if self._crash_looped[worker]:
                    continue
                lock = self._slot_locks[worker]
                if not lock.acquire(blocking=False):
                    continue
                try:
                    handle = self._handles[worker]
                    if handle is not None and not handle.alive():
                        self._respawn_locked(worker)
                finally:
                    lock.release()

    # ------------------------------------------------------------------
    # BatchingServerBase hooks
    # ------------------------------------------------------------------
    def _before_start(self) -> None:
        # Runs under the lifecycle mutex (see BatchingServerBase.start),
        # which is what makes the lexically-unguarded _handles rebuild
        # below safe: no companion thread exists yet, and submit() is
        # still refusing traffic.
        require_held(self._mutex, "ProcessInferenceServer._before_start")
        if self._static_spec is not None:
            self._spec = self._static_spec
        else:
            self._shared = SharedCheckpoint.publish(self._arrays)
            self._spec = SharedCheckpointEngineSpec(
                manifest=self._shared.manifest,
                config=self._config,
                model_id=self._model_id,
                cache_size=self._engine_opts["cache_size"],
                batch_size=self._engine_opts["batch_size"],
                inject_latency_ms=self._engine_opts["inject_latency_ms"],
            )
        self._ready_events = [threading.Event() for _ in range(self.workers)]
        self._restarts = [0] * self.workers
        self._backoff_until = [0.0] * self.workers
        self._death_history = [deque() for _ in range(self.workers)]
        self._crash_looped = [False] * self.workers
        with self._stats_lock:
            self._stats_base = [EngineStats() for _ in range(self.workers)]
            self._stats_latest = [EngineStats() for _ in range(self.workers)]
        try:
            self._handles = [self._spawn() for _ in range(self.workers)]  # noqa: HX001 - lifecycle mutex held (require_held above)
        except BaseException:
            # A failed spawn must not leak the segment or earlier children.
            self._teardown_processes()
            self._teardown_shared()
            raise
        self._supervisor_stop = threading.Event()
        self._supervisor_thread = threading.Thread(
            target=self._supervisor_loop, name="worker-supervisor", daemon=True
        )
        self._supervisor_thread.start()

    def _on_worker_start(self, worker: int) -> None:
        with self._slot_locks[worker]:
            handle = self._handles[worker]
            if handle is not None and not self._await_ready(handle):
                # One respawn attempt covers transient startup deaths; a
                # deterministic build failure leaves the slot dead and
                # wait_ready()/healthz surface the stored error.
                self._respawn_locked(worker)
        self._ready_events[worker].set()

    def _predict_probs(self, worker: int, texts: list[str]):
        """Serve a batch on ``worker``'s slot, failing over if retired.

        A slot the crash-loop breaker has retired must not keep failing
        its share of the queue: its companion thread re-routes batches
        to the first live slot instead (serialising on that slot's lock
        — degraded throughput, preserved availability).  Only when no
        live slot remains does the batch fail.
        """
        order = [worker] + [w for w in range(self.workers) if w != worker]
        for slot in order:
            if self._crash_looped[slot]:
                continue
            try:
                return self._predict_probs_on(slot, texts)
            except RemoteWorkerError:
                if not self._crash_looped[slot]:
                    raise  # a real serving failure, not a retired slot
                # The slot was retired mid-attempt; try the next one.
        raise RemoteWorkerError(
            f"worker slot {worker} is crash-looping and no live worker "
            "slot remains"
        )

    def _predict_probs_on(self, worker: int, texts: list[str]):
        with self._slot_locks[worker]:
            for _attempt in (0, 1):
                handle = self._handles[worker]
                if handle is None or not handle.alive():
                    if not self._respawn_locked(worker):
                        break
                    handle = self._handles[worker]
                try:
                    # Holding the slot lock across the pipe round-trip is
                    # the design: one in-flight batch per worker process,
                    # and the respawn-retry below needs exclusive slot
                    # ownership.  Other slots proceed in parallel.
                    handle.conn.send(("batch", list(texts)))  # noqa: HX002 - single-flight per slot by design
                    reply = handle.conn.recv()  # noqa: HX002 - single-flight per slot by design
                except (EOFError, OSError, BrokenPipeError):
                    # Worker died mid-request.  Inference has no side
                    # effects, so respawn and retry the batch once.
                    self._respawn_locked(worker)
                    continue
                if reply[0] == "error":
                    raise RemoteWorkerError(
                        f"worker {worker} failed serving a batch: "
                        f"{reply[1]}\n--- remote traceback ---\n{reply[2]}"
                    )
                _, probs, stats = reply
                with self._stats_lock:
                    self._stats_latest[worker] = stats
                return probs
            handle = self._handles[worker]
            detail = handle.error if handle is not None else None
            raise RemoteWorkerError(
                f"worker process {worker} died and could not be respawned"
                + (f": {detail}" if detail else "")
            )

    def _on_worker_exit(self, worker: int) -> None:
        with self._slot_locks[worker]:
            handle = self._handles[worker]
            self._handles[worker] = None
        if handle is not None:
            self._stop_handle(handle)
            with self._stats_lock:
                self._stats_base[worker].merge(self._stats_latest[worker])
                self._stats_latest[worker] = EngineStats()

    def _after_stop(self) -> None:
        # Order matters: silence chaos (no SIGKILLs at recycled pids),
        # stop the supervisor (no respawns mid-teardown), then reap.
        chaos = self.chaos
        if chaos is not None:
            chaos.disarm()
            self.chaos = None
        self._supervisor_stop.set()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(timeout=10.0)
            self._supervisor_thread = None
        self._teardown_processes()
        self._teardown_shared()
        self._spec = None

    # ------------------------------------------------------------------
    # Process plumbing
    # ------------------------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, child_conn),
            name="inference-worker",
            daemon=True,
        )
        process.start()
        # The child owns its pipe end; closing ours makes a child death
        # surface as EOF on the parent side instead of a hang.
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _await_ready(self, handle: _WorkerHandle) -> bool:
        """Consume the worker's first message; True iff it was ready."""
        try:
            if not handle.conn.poll(self._spawn_timeout_s):
                handle.error = f"no ready message within {self._spawn_timeout_s:.0f}s"
                return False
            message = handle.conn.recv()
        except (EOFError, OSError):
            handle.error = "worker process died during startup"
            return False
        if message[0] == "ready":
            handle.pid = message[1]
            return True
        handle.error = f"{message[1]}\n--- remote traceback ---\n{message[2]}"
        return False

    def _respawn_locked(self, worker: int) -> bool:
        """Replace a dead worker process (slot lock held).

        All respawn paths (companion-thread retry, supervisor sweep,
        ``ensure_workers``) funnel through here, so the per-slot
        exponential backoff and the crash-loop breaker are enforced
        once: a slot still inside its backoff window is left dead until
        the supervisor's next sweep, and a slot that accumulates
        ``crash_loop_threshold`` deaths within ``crash_loop_window_s``
        is retired — ``worker_processes()`` reports it ``crash_looping``
        and the gateway's ``/healthz`` flips to ``degraded``.

        On an actual attempt: folds the dead incarnation's engine stats
        into the cumulative base so ``engine_stats()`` never regresses,
        bumps the restart counter, and blocks until the replacement is
        ready (or records its failure and returns False).
        """
        require_held(self._slot_locks[worker], "_respawn_locked")
        if self._crash_looped[worker]:
            return False
        now = time.monotonic()
        if now < self._backoff_until[worker]:
            return False
        history = self._death_history[worker]
        history.append(now)
        while history and now - history[0] > self._crash_loop_window_s:
            history.popleft()
        if len(history) >= self._crash_loop_threshold:
            self._crash_looped[worker] = True
            logger.error(
                "worker %d crash-looping (%d deaths in %.1fs); retiring slot",
                worker,
                len(history),
                self._crash_loop_window_s,
            )
            return False
        # Arm the backoff for the *next* attempt: first death respawns
        # immediately, repeat deaths wait base * 2^(n-1), capped.
        self._backoff_until[worker] = now + min(
            self._respawn_backoff_max_s,
            self._respawn_backoff_base_s * (2 ** (len(history) - 1)),
        )
        old = self._handles[worker]
        if old is not None:
            self._stop_handle(old)
        with self._stats_lock:
            self._stats_base[worker].merge(self._stats_latest[worker])
            self._stats_latest[worker] = EngineStats()
        self._restarts[worker] += 1
        handle = self._spawn()
        self._handles[worker] = handle
        if self._await_ready(handle):
            return True
        self._stop_handle(handle)
        return False

    def _stop_handle(self, handle: _WorkerHandle, timeout: float = 10.0) -> None:
        """Best-effort graceful stop, then escalate. Never raises; idempotent."""
        if handle.closed:
            return
        handle.closed = True
        try:
            handle.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - double close
            pass
        handle.process.join(timeout)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(5.0)
        if handle.process.is_alive():  # pragma: no cover - last resort
            handle.process.kill()
            handle.process.join(5.0)
        handle.process.close()

    def _teardown_processes(self) -> None:
        for worker in range(self.workers):
            with self._slot_locks[worker]:
                handle = self._handles[worker]
                self._handles[worker] = None
            if handle is not None:
                self._stop_handle(handle)

    def _teardown_shared(self) -> None:
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

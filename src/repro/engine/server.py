"""Replicated micro-batching serving front-end over ``PredictionEngine``.

Stdlib-only: callers submit single texts from any thread and get a
:class:`concurrent.futures.Future`; ``workers`` serving threads — each
owning its own :class:`PredictionEngine` replica over the shared
read-only fitted model — pull from one bounded admission queue.  A
free worker takes whatever is queued (up to ``max_batch_size``) and
runs it at once, never holding a batch open: a lone request is served
as soon as a worker is free, and batches form only from requests that
queued while every worker was busy, so concurrent traffic is served at
batch throughput instead of one forward pass per request.

The admission queue is bounded (``max_queue``) and the overload policy
is configurable: ``"block"`` applies backpressure by making ``submit``
wait for queue space, ``"shed"`` fails fast with a typed
:class:`ServerOverloaded` so the caller can retry or degrade.  ``stop``
drains gracefully — every admitted request's future still resolves,
while late ``submit`` calls fail fast with :class:`ServerClosed`.

All serving counters live in a self-locking :class:`ServerStats`;
readers take an immutable :meth:`ServerStats.snapshot` instead of racing
the serving threads.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.analysis.lockcheck import create_lock, require_held
from repro.core.labels import DIMENSIONS, WellnessDimension
from repro.engine.engine import EngineStats, PredictionEngine

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

    from repro.chaos.injector import FaultInjector

    _ProbMatrix = NDArray[np.float64]

__all__ = [
    "BatchingServerBase",
    "InferenceServer",
    "PredictionResult",
    "RemoteWorkerError",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "StatsSnapshot",
]


class _StopSentinel:
    """Queue marker telling one serving thread to exit; see ``stop()``."""

    __slots__ = ()


_STOP = _StopSentinel()

logger = logging.getLogger(__name__)


class ServerClosed(RuntimeError):
    """``submit()`` on a server that is not accepting requests."""


class RemoteWorkerError(RuntimeError):
    """A worker process failed to serve a batch (it died twice, or the
    remote inference raised; the remote traceback is in the message)."""


class ServerOverloaded(RuntimeError):
    """Shed-mode admission rejection: the bounded queue is full.

    Raised by ``submit``/``predict`` when ``overload="shed"`` and the
    admission queue holds ``max_queue`` requests.  The request was never
    admitted; the caller can back off and retry, degrade, or route
    elsewhere.
    """


@dataclass(frozen=True)
class PredictionResult:
    """One served prediction: label, probabilities, and queue latency."""

    text: str
    label: WellnessDimension
    probabilities: tuple[float, ...]
    latency_ms: float


#: One admitted request: (text, resolving future, enqueue timestamp).
_QueueItem = tuple[str, "Future[PredictionResult]", float]


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable, internally consistent copy of the serving counters.

    Taken under the stats lock, so every field belongs to the same
    instant and the percentile window cannot mutate mid-``sorted``.
    ``latencies_ms`` is the bounded recent-request window the
    percentiles are computed over.
    """

    epoch: int
    requests: int
    batches: int
    shed: int
    total_latency_ms: float
    max_latency_ms: float
    largest_batch: int
    started_at: float | None
    stopped_at: float | None
    per_worker_requests: tuple[int, ...]
    latencies_ms: tuple[float, ...]
    # Trailing defaulted fields so older positional constructions keep
    # working: serving-thread deaths (replaced in place) and requests
    # shed because their propagated deadline could not be met.
    worker_thread_deaths: int = 0
    deadline_shed: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.total_latency_ms / self.requests if self.requests else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected by shed-mode admission."""
        offered = self.requests + self.shed
        return self.shed / offered if offered else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` in [0, 100] over recent requests."""
        if not self.latencies_ms:
            return 0.0
        ranked = sorted(self.latencies_ms)
        idx = min(len(ranked) - 1, int(round(q / 100.0 * (len(ranked) - 1))))
        return ranked[idx]

    def throughput(self) -> float:
        """Served requests per second of this epoch's uptime."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else time.perf_counter()
        elapsed = end - self.started_at
        return self.requests / elapsed if elapsed > 0 else 0.0


class ServerStats:
    """Thread-safe aggregate serving counters.

    All mutation happens under an internal lock; readers call
    :meth:`snapshot` for an immutable, consistent view.  The legacy
    attribute API (``stats.requests``, ``stats.mean_latency_ms``,
    ``stats.latency_percentile(95)``, ``stats.throughput()``) is kept as
    lock-taking delegates to a fresh snapshot.

    Counters are *epoched*: every ``InferenceServer.start()`` after a
    ``stop()`` resets them and bumps ``epoch``, so ``throughput()``
    never mixes a previous epoch's requests (or inter-epoch downtime)
    into the current denominator.  Percentiles are computed over a
    bounded window of the most recent requests so a long-running
    server's memory stays constant.
    """

    def __init__(self, *, n_workers: int = 1, window: int = 10_000) -> None:
        self._lock = create_lock("server.stats")
        self._window = window
        self._epoch = 0
        self._n_workers = n_workers
        with self._lock:
            self._reset_locked()

    def _reset_locked(self) -> None:
        require_held(self._lock, "ServerStats._reset_locked")
        self._requests = 0
        self._batches = 0
        self._shed = 0
        self._total_latency_ms = 0.0
        self._max_latency_ms = 0.0
        self._largest_batch = 0
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        self._per_worker = [0] * self._n_workers
        self._latencies_ms: deque[float] = deque(maxlen=self._window)
        self._worker_deaths = 0
        self._deadline_shed = 0

    # ------------------------------------------------------------------
    # Writers (called by the server under no other lock)
    # ------------------------------------------------------------------
    def mark_started(self) -> None:
        """New epoch: reset counters on restart, stamp the start time."""
        with self._lock:
            if self._epoch > 0:
                self._reset_locked()
            self._epoch += 1
            self._started_at = time.perf_counter()
            self._stopped_at = None

    def mark_stopped(self) -> None:
        with self._lock:
            self._stopped_at = time.perf_counter()

    def record_batch(self, latencies_ms: Sequence[float], *, worker: int = 0) -> None:
        with self._lock:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(latencies_ms))
            self._requests += len(latencies_ms)
            self._per_worker[worker] += len(latencies_ms)
            for latency in latencies_ms:
                self._total_latency_ms += latency
                self._max_latency_ms = max(self._max_latency_ms, latency)
                self._latencies_ms.append(latency)

    def record_shed(self, n: int = 1) -> None:
        with self._lock:
            self._shed += n

    def record_worker_death(self) -> None:
        """A serving thread died on an unexpected exception."""
        with self._lock:
            self._worker_deaths += 1

    def record_deadline_shed(self, n: int = 1) -> None:
        """Admission refused a request whose deadline budget was spent.

        Counted apart from overload sheds: an overload shed means the
        server could not keep up, a deadline shed means the *client's*
        remaining budget could not cover expected service time — serving
        it would have burned a worker slot on an answer nobody reads.
        """
        with self._lock:
            self._deadline_shed += n

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        """Consistent copy of every counter, taken under the lock."""
        with self._lock:
            return StatsSnapshot(
                epoch=self._epoch,
                requests=self._requests,
                batches=self._batches,
                shed=self._shed,
                total_latency_ms=self._total_latency_ms,
                max_latency_ms=self._max_latency_ms,
                largest_batch=self._largest_batch,
                started_at=self._started_at,
                stopped_at=self._stopped_at,
                per_worker_requests=tuple(self._per_worker),
                latencies_ms=tuple(self._latencies_ms),
                worker_thread_deaths=self._worker_deaths,
                deadline_shed=self._deadline_shed,
            )

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    @property
    def batches(self) -> int:
        with self._lock:
            return self._batches

    @property
    def shed(self) -> int:
        with self._lock:
            return self._shed

    @property
    def worker_thread_deaths(self) -> int:
        with self._lock:
            return self._worker_deaths

    @property
    def deadline_shed(self) -> int:
        with self._lock:
            return self._deadline_shed

    @property
    def largest_batch(self) -> int:
        with self._lock:
            return self._largest_batch

    @property
    def max_latency_ms(self) -> float:
        with self._lock:
            return self._max_latency_ms

    @property
    def started_at(self) -> float | None:
        with self._lock:
            return self._started_at

    @property
    def stopped_at(self) -> float | None:
        with self._lock:
            return self._stopped_at

    @property
    def mean_batch_size(self) -> float:
        # Scalar reads take the lock directly; only the percentile path
        # needs the O(window) latency copy a snapshot makes.
        with self._lock:
            return self._requests / self._batches if self._batches else 0.0

    @property
    def mean_latency_ms(self) -> float:
        with self._lock:
            if not self._requests:
                return 0.0
            return self._total_latency_ms / self._requests

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` in [0, 100] over recent requests."""
        with self._lock:
            window = tuple(self._latencies_ms)
        if not window:
            return 0.0
        ranked = sorted(window)
        idx = min(len(ranked) - 1, int(round(q / 100.0 * (len(ranked) - 1))))
        return ranked[idx]

    def throughput(self) -> float:
        """Served requests per second of the current epoch's uptime."""
        with self._lock:
            started, stopped = self._started_at, self._stopped_at
            requests = self._requests
        if started is None:
            return 0.0
        end = stopped if stopped is not None else time.perf_counter()
        elapsed = end - started
        return requests / elapsed if elapsed > 0 else 0.0


class BatchingServerBase:
    """Bounded-admission micro-batching core shared by every server.

    Owns everything about *admission and coalescing* — the bounded
    FIFO queue, block/shed overload policy, batch collection, future
    resolution, graceful drain/stop with per-worker sentinels, and the
    epoched :class:`ServerStats` — while leaving *how a batch of texts
    becomes probabilities* to subclasses via :meth:`_predict_probs`.

    :class:`InferenceServer` plugs in per-thread engine replicas
    (in-process, GIL-bound compute); :class:`~repro.engine.procserver.
    ProcessInferenceServer` plugs in dispatch pipes to worker processes
    holding shared-memory weights.  Both therefore share byte-identical
    admission semantics, drain behaviour, and stats — the contract the
    HTTP gateway and the oracle tests rely on.

    Subclass hooks (all optional except :meth:`_predict_probs`):

    * ``_before_start()`` — runs under the lifecycle mutex before the
      serving threads launch (spawn worker processes here).
    * ``_on_worker_start(worker)`` / ``_on_worker_exit(worker)`` — first
      and last thing each serving thread does.
    * ``_after_stop()`` — runs once per stop after every serving thread
      joined (tear down processes / shared memory here).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        max_batch_size: int = 32,
        max_queue: int = 1024,
        overload: str = "block",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if overload not in ("block", "shed"):
            raise ValueError('overload must be "block" or "shed"')
        self.workers = workers
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.overload = overload
        self.stats = ServerStats(n_workers=workers)
        # One mutex guards the deque, the accepting flag, and the thread
        # list; two conditions on it separate consumer wake-ups
        # (_not_empty) from producer wake-ups (_not_full).  Submissions
        # and the stop sentinels are appended under the same mutex, so
        # FIFO order guarantees every admitted request precedes every
        # sentinel and is served before a worker exits.
        self._mutex = create_lock("server.mutex")
        self._not_empty = threading.Condition(self._mutex)
        self._not_full = threading.Condition(self._mutex)
        self._items: deque[_QueueItem | _StopSentinel] = deque()
        self._accepting = False
        self._stopping = False
        self._threads: list[threading.Thread] = []
        # Chaos seam: a repro.chaos.FaultInjector, or None.  The hot
        # path pays one attribute check when unarmed — nothing else.
        self.chaos: FaultInjector | None = None

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _predict_probs(self, worker: int, texts: list[str]) -> _ProbMatrix:
        """Probability matrix ``(len(texts), n_classes)`` for one batch."""
        raise NotImplementedError

    def engine_stats(self) -> EngineStats:
        """Aggregate :class:`EngineStats` across every worker."""
        raise NotImplementedError

    @property
    def weights_version(self) -> int:
        """Version token of the served weights (0 = never reloaded).

        The uniform accessor the serving fleet reads for its
        ``served_by`` envelope: the shared-memory process server bumps
        it on every hot reload, subclasses over a live engine report
        the engine's token, and static pools stay at 0.
        """
        return 0

    def _before_start(self) -> None:
        pass

    def _on_worker_start(self, worker: int) -> None:
        pass

    def _on_worker_exit(self, worker: int) -> None:
        pass

    def _after_stop(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    def start(self) -> "BatchingServerBase":
        with self._mutex:
            # _stopping covers the window where an in-flight stop() has
            # released the mutex to join workers that already exited;
            # starting there would let stop() finish against the wrong
            # thread list and leave _stopping latched True forever.
            if self.running or self._stopping:
                raise RuntimeError("server is already running")
            self._before_start()
            self.stats.mark_started()
            self._threads = [
                threading.Thread(
                    target=self._serve_loop,
                    args=(i,),
                    name=f"inference-server-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
            for thread in self._threads:
                thread.start()
            self._accepting = True
        return self

    @property
    def accepting(self) -> bool:
        """Whether ``submit`` is currently admitting new requests."""
        with self._mutex:
            return self._accepting

    def drain(self) -> None:
        """Close admission without stopping the workers.

        The graceful-shutdown hook (SIGTERM in the HTTP gateway): after
        ``drain()`` every new ``submit`` — including calls already
        blocked waiting for queue space — fails fast with
        :class:`ServerClosed`, while every admitted request keeps being
        served and its future still resolves.  Follow with :meth:`stop`
        once in-flight callers have collected their results.  Idempotent
        and a no-op on a server that never started.
        """
        with self._mutex:
            self._accepting = False
            self._not_full.notify_all()  # blocked submitters fail fast

    def stop(self) -> None:
        """Drain admitted requests, then stop every worker.

        Every future returned by ``submit`` before this call resolves;
        ``submit`` calls from here on (including ones blocked waiting
        for queue space) fail fast with :class:`ServerClosed`.
        """
        with self._mutex:
            threads = self._threads
            if threads and not self._stopping:
                # Exactly one stop() plants the sentinels; a concurrent
                # second call must not add more (leftovers would make a
                # later start()'s workers exit immediately).
                self._stopping = True
                self._accepting = False
                for _ in threads:
                    self._items.append(_STOP)
                self._not_empty.notify_all()
                self._not_full.notify_all()  # blocked submitters fail fast
        for thread in threads:
            thread.join()
        with self._mutex:
            if bool(threads) and self._threads is threads:
                # Stamp the stop inside the mutex: once _stopping drops,
                # a racing start() may open a new epoch, and a late
                # mark_stopped() would freeze that epoch's throughput
                # denominator.  (Lock order server mutex -> stats lock
                # matches start()'s mark_started(); stats methods never
                # take the server mutex, so no inversion.)
                self.stats.mark_stopped()
                self._after_stop()
                self._threads = []
                self._stopping = False

    def __enter__(self) -> "BatchingServerBase":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, text: str) -> "Future[PredictionResult]":
        """Enqueue one text; the future resolves to a PredictionResult.

        Raises :class:`ServerClosed` if the server is not accepting
        (never started, stopped, or stopped while this call was blocked
        on a full queue) and :class:`ServerOverloaded` when
        ``overload="shed"`` and the queue is full.
        """
        future: "Future[PredictionResult]" = Future()
        with self._mutex:
            if not self._accepting:
                raise ServerClosed("server is not running (call start())")
            if len(self._items) >= self.max_queue:
                if self.overload == "shed":
                    self.stats.record_shed()
                    raise ServerOverloaded(
                        f"admission queue full ({self.max_queue} pending)"
                    )
                while len(self._items) >= self.max_queue and self._accepting:
                    self._not_full.wait()
                if not self._accepting:
                    raise ServerClosed("server stopped while awaiting queue space")
            self._items.append((text, future, time.perf_counter()))
            self._not_empty.notify()
        return future

    def predict(
        self, texts: Sequence[str], *, timeout: float | None = 30.0
    ) -> list[PredictionResult]:
        """Submit many texts and block until all are served.

        ``timeout`` is one shared deadline for the whole call, not a
        per-future allowance: with ``n`` texts the worst case is
        ``timeout`` seconds, never ``n × timeout``.

        If admission fails partway (shed or stop) or the deadline
        passes, the still-queued futures are cancelled best-effort before
        the error propagates, so workers skip texts nobody will read.
        """
        futures: list["Future[PredictionResult]"] = []
        try:
            for t in texts:
                futures.append(self.submit(t))
        except (ServerClosed, ServerOverloaded):
            for f in futures:
                f.cancel()
            raise
        if timeout is None:
            return [f.result() for f in futures]
        deadline = time.perf_counter() + timeout
        try:
            return [
                f.result(timeout=max(0.0, deadline - time.perf_counter()))
                for f in futures
            ]
        except FutureTimeoutError:
            # Nobody reads the rest: free their worker capacity.
            for f in futures:
                f.cancel()
            raise

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _collect_batch(self) -> tuple[list[_QueueItem], bool]:
        """Block for one request, then take what is queued. -> (batch, stop)

        Work-conserving: never held open for traffic that has not arrived.
        """
        batch: list[_QueueItem] = []
        stop = False
        with self._mutex:
            while not self._items:
                self._not_empty.wait()
            while self._items and len(batch) < self.max_batch_size:
                item = self._items.popleft()
                if isinstance(item, _StopSentinel):
                    stop = True
                    break
                batch.append(item)
            if batch:
                self._not_full.notify(len(batch))
        return batch, stop

    def _serve_batch(self, batch: list[_QueueItem], worker: int) -> None:
        # Honour client-side cancellation; a cancelled future must not
        # be set_result (InvalidStateError) and needs no inference.
        live = [item for item in batch if item[1].set_running_or_notify_cancel()]
        if not live:
            return
        texts = [text for text, _, _ in live]
        try:
            probs = self._predict_probs(worker, texts)
            ids = probs.argmax(axis=1)
        except BaseException as error:  # propagate to every waiting caller
            for _, future, _ in live:
                future.set_exception(error)
            return
        now = time.perf_counter()
        results: list[tuple[Future[PredictionResult], PredictionResult]] = []
        for (text, future, enqueued), row, class_id in zip(live, probs, ids):
            latency_ms = (now - enqueued) * 1000.0
            results.append(
                (
                    future,
                    PredictionResult(
                        text=text,
                        label=DIMENSIONS[int(class_id)],
                        probabilities=tuple(float(p) for p in row),
                        latency_ms=latency_ms,
                    ),
                )
            )
        self.stats.record_batch(
            [result.latency_ms for _, result in results], worker=worker
        )
        for future, result in results:
            future.set_result(result)

    def _spawn_replacement(self, worker: int) -> bool:
        """Hand slot ``worker`` to a fresh serving thread after a death.

        Returns False (no replacement) when the server is stopping or
        already stopped — a replacement there would block forever on a
        stop sentinel its predecessor may already have consumed.
        """
        with self._mutex:
            if self._stopping or not self._threads:
                return False
            thread = threading.Thread(
                target=self._serve_loop,
                args=(worker,),
                name=f"inference-server-{worker}",
                daemon=True,
            )
            # In-place so a concurrent stop() holding the same list
            # object joins the replacement instead of the corpse.
            self._threads[worker] = thread
            thread.start()
            return True

    def _serve_loop(self, worker: int) -> None:
        # No drain pass needed after a sentinel: submissions and the
        # sentinels share the mutex, so FIFO order puts every admitted
        # request ahead of every _STOP, and each worker consumes at most
        # one sentinel (it stops collecting the moment it sees one).
        stop = False
        replaced = False
        batch: list[_QueueItem] = []
        try:
            self._on_worker_start(worker)
            while True:
                batch, stop = self._collect_batch()
                if batch:
                    chaos = self.chaos
                    if chaos is not None:
                        chaos.before_batch(worker)
                    self._serve_batch(batch, worker)
                batch = []
                if stop:
                    return
        except Exception as error:
            # _serve_batch routes engine errors to the waiting futures,
            # so anything escaping to here is unexpected — letting it
            # kill the thread would silently strand this worker's queue
            # share.  Log, count, fail the in-flight batch's futures
            # (callers must see the error now, not hang to their own
            # deadline), and hand the slot to a replacement.
            logger.exception("serving thread %d died unexpectedly", worker)
            self.stats.record_worker_death()
            for item in batch:
                try:
                    item[1].set_exception(error)
                except Exception:  # noqa: BLE001 - already resolved/cancelled
                    pass
            if not stop:
                replaced = self._spawn_replacement(worker)
        finally:
            if not replaced:
                self._on_worker_exit(worker)


class InferenceServer(BatchingServerBase):
    """Coalesce single-text requests into batched calls on engine replicas.

    The in-process (threaded) server: each serving thread owns a
    :meth:`PredictionEngine.replicate` replica over the shared read-only
    fitted backend.  Numpy forwards hold the GIL, so thread workers
    overlap queue waits and batching overhead but not model compute —
    for compute parallelism across cores see
    :class:`repro.engine.procserver.ProcessInferenceServer`, which runs
    the same admission core over worker processes.

    Parameters
    ----------
    engine:
        A fitted :class:`PredictionEngine`.  The server never mutates it;
        each worker thread serves through its own
        :meth:`PredictionEngine.replicate` replica (private cache and
        stats over the shared read-only fitted backend).
    workers:
        Number of serving threads (and engine replicas).
    max_batch_size:
        Hard cap on texts per batch.  A free worker takes whatever is
        queued up to this cap and runs it at once; it never waits for
        more traffic, so batches form only while every worker is busy.
    max_queue:
        Bound on requests admitted but not yet picked up by a worker.
    overload:
        ``"block"`` — ``submit`` waits for queue space (backpressure);
        ``"shed"`` — ``submit`` raises :class:`ServerOverloaded`
        immediately when the queue is full (load shedding).
    """

    def __init__(
        self,
        engine: PredictionEngine,
        *,
        workers: int = 1,
        max_batch_size: int = 32,
        max_queue: int = 1024,
        overload: str = "block",
    ) -> None:
        super().__init__(
            workers=workers,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            overload=overload,
        )
        self.engine = engine
        self._engines = tuple(engine.replicate() for _ in range(workers))

    @property
    def engines(self) -> tuple[PredictionEngine, ...]:
        """The per-worker engine replicas (index == worker index)."""
        return self._engines

    @property
    def model_id(self) -> str:
        """The served model's identifier (from the underlying engine)."""
        return self.engine.model_id

    @property
    def weights_version(self) -> int:
        """The engine's weights token (in-place model mutation counter)."""
        return int(getattr(self.engine, "weights_version", 0))

    def _predict_probs(self, worker: int, texts: list[str]) -> _ProbMatrix:
        return self._engines[worker].predict_proba(texts)

    def engine_stats(self) -> EngineStats:
        """Aggregate :class:`EngineStats` across every worker replica."""
        total = EngineStats()
        for engine in self._engines:
            total.merge(engine.stats)
        return total

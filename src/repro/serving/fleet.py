"""Multi-model fleet control plane for the serving gateway.

One :class:`ModelFleet` owns N named :class:`ModelEntry` instances —
each a :class:`~repro.engine.server.BatchingServerBase`-backed worker
pool with its own admission budget — plus the routing table that
decides which entry answers a request:

1. An explicit ``model`` field in the request body wins outright.
2. Otherwise the request id is hashed against the fleet's A/B split
   (entry ``weight``\\s over the non-shadow entries, seeded per fleet so
   the same request id always lands on the same entry).
3. Entries with ``weight=0`` only serve explicit traffic; when no
   weighted entry exists the fleet's default entry answers.

Shadow entries (``shadow=True``) never answer: every answered predict
is *also* submitted to each shadow entry fire-and-forget, so shadow
targets score the same texts and their :class:`ServerStats` fill up —
visible on ``/metrics`` — without a byte of their output reaching the
client.  Shadow submission failures (sheds, drains) are swallowed and
counted; mirrored traffic must never degrade the primary path.

The fleet is immutable after construction (entries, weights, and the
default never change), so the only shared mutable state is the shadow
failure counter — guarded by ``create_lock`` like every other counter
in the repo, clean under ``REPRO_LOCK_CHECK=1``.
"""

from __future__ import annotations

import hashlib
import logging
import uuid
from collections.abc import Sequence

from repro.analysis.lockcheck import create_lock
from repro.engine.server import BatchingServerBase

__all__ = ["ModelEntry", "ModelFleet", "UnknownModelError"]

log = logging.getLogger("repro.serving.fleet")


class UnknownModelError(LookupError):
    """A request named a model the fleet does not serve."""

    def __init__(self, model: str, known: Sequence[str]) -> None:
        super().__init__(
            f"unknown model {model!r}; fleet serves {sorted(known)}"
        )
        self.model = model
        self.known = tuple(known)


class ModelEntry:
    """One named model in the fleet: a server pool plus routing config.

    Parameters
    ----------
    name:
        Routing name — what request bodies, admin selectors, and the
        ``model`` Prometheus label use.  Unique within a fleet.
    server:
        The :class:`BatchingServerBase` pool that serves this entry
        (threaded :class:`InferenceServer` or
        :class:`~repro.engine.procserver.ProcessInferenceServer`), with
        its own admission queue, overload policy, and stats.
    weight:
        Relative share of A/B-split traffic.  ``0.0`` means the entry
        only serves requests that name it explicitly.  Ignored for
        shadow entries.
    shadow:
        Shadow entries mirror answered traffic (scored, counted, never
        answering) and are excluded from the A/B split.
    baseline:
        Registry name of the served model, for the ``/v1/models``
        status document.  Optional for stub-backed entries.
    """

    def __init__(
        self,
        name: str,
        server: BatchingServerBase,
        *,
        weight: float = 1.0,
        shadow: bool = False,
        baseline: str | None = None,
        model_id: str | None = None,
    ) -> None:
        if not name:
            raise ValueError("model entry name must be non-empty")
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        self.name = name
        self.server = server
        self.weight = 0.0 if shadow else float(weight)
        self.shadow = shadow
        self.baseline = baseline
        if model_id is None:
            model_id = getattr(server, "model_id", None)
        if model_id is None:
            engines = getattr(server, "engines", None)
            model_id = engines[0].model_id if engines else name
        self.model_id = model_id

    @property
    def weights_version(self) -> int:
        """The served weights' version token (0 for static backends)."""
        version = getattr(self.server, "weights_version", None)
        if version is not None:
            return int(version)
        engine = getattr(self.server, "engine", None)
        if engine is not None:
            return int(getattr(engine, "weights_version", 0))
        return 0

    @property
    def reloadable(self) -> bool:
        """Whether this entry's server supports hot weight reload."""
        return callable(getattr(self.server, "reload_weights", None))

    def status(self) -> str:
        """Lifecycle state word for the fleet status document."""
        if not self.server.running:
            return "stopped"
        if not self.server.accepting:
            return "draining"
        return "serving"


class ModelFleet:
    """N named model entries behind one routing table.

    Parameters
    ----------
    entries:
        The fleet members.  Names must be unique and at least one entry
        must be non-shadow (someone has to answer).
    default:
        Name of the entry that serves unrouted traffic; defaults to the
        first non-shadow entry.
    split_seed:
        Seeds the request-id hash for the A/B split, so two fleets with
        the same weights can still decorrelate their routing.
    """

    def __init__(
        self,
        entries: Sequence[ModelEntry],
        *,
        default: str | None = None,
        split_seed: int = 0,
    ) -> None:
        if not entries:
            raise ValueError("a fleet needs at least one model entry")
        self._entries: dict[str, ModelEntry] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise ValueError(f"duplicate model entry name {entry.name!r}")
            self._entries[entry.name] = entry
        primaries = [e for e in entries if not e.shadow]
        if not primaries:
            raise ValueError("a fleet needs at least one non-shadow entry")
        if default is None:
            default = primaries[0].name
        if default not in self._entries:
            raise ValueError(f"default model {default!r} is not in the fleet")
        if self._entries[default].shadow:
            raise ValueError(f"default model {default!r} is a shadow entry")
        self.default = default
        self.split_seed = split_seed
        self._split = tuple(e for e in primaries if e.weight > 0)
        self._total_weight = sum(e.weight for e in self._split)
        self._shadow_lock = create_lock("fleet.shadow")
        self._shadow_submitted = 0
        self._shadow_failures = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        server: BatchingServerBase,
        *,
        name: str = "default",
        baseline: str | None = None,
        model_id: str | None = None,
    ) -> "ModelFleet":
        """The compatibility mapping: one server as a one-entry fleet.

        This is what the gateway builds when handed a bare server, and
        what ``holistix-serve --checkpoint`` maps the old single-model
        invocation onto.
        """
        return cls(
            [ModelEntry(name, server, baseline=baseline, model_id=model_id)]
        )

    # ------------------------------------------------------------------
    # Lookup + routing
    # ------------------------------------------------------------------
    @property
    def entries(self) -> tuple[ModelEntry, ...]:
        """Every entry, in registration order."""
        return tuple(self._entries.values())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    @property
    def shadow_entries(self) -> tuple[ModelEntry, ...]:
        return tuple(e for e in self._entries.values() if e.shadow)

    @property
    def default_entry(self) -> ModelEntry:
        return self._entries[self.default]

    def entry(self, name: str) -> ModelEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownModelError(name, tuple(self._entries)) from None

    def traffic_share(self, entry: ModelEntry) -> float:
        """Fraction of A/B-split traffic this entry receives."""
        if entry.shadow or self._total_weight <= 0:
            return 0.0
        if entry.weight <= 0:
            return 0.0
        return entry.weight / self._total_weight

    def split_fraction(self, request_id: str) -> float:
        """Deterministic position of a request id in ``[0, 1)``.

        A seeded sha256 keeps the split stable across processes and
        Python hash randomisation — the same request id always lands on
        the same entry, which is what makes A/B assignments auditable.
        """
        digest = hashlib.sha256(
            f"{self.split_seed}:{request_id}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def route(self, model: str | None, request_id: str | None) -> ModelEntry:
        """Apply the routing table: explicit > A/B split > default.

        Without a ``request_id`` a split of two or more entries is
        sampled with a fresh uuid, which converges on the configured
        traffic shares; a split of one entry needs no id at all.
        """
        if model is not None:
            return self.entry(model)
        if len(self._split) == 1:
            return self._split[0]
        if self._split:
            if request_id is None:
                request_id = uuid.uuid4().hex
            point = self.split_fraction(request_id) * self._total_weight
            cumulative = 0.0
            for entry in self._split:
                cumulative += entry.weight
                if point < cumulative:
                    return entry
        return self.default_entry

    # ------------------------------------------------------------------
    # Shadow traffic
    # ------------------------------------------------------------------
    def shadow_submit(self, texts: Sequence[str]) -> None:
        """Mirror answered texts to every shadow entry, fire-and-forget.

        Shadow scoring shares the primary request's text but nothing
        else: failures (shed, draining, engine errors) are swallowed
        and counted, the futures' results are dropped unread, and no
        shadow output ever reaches a client.  Sheds still land in the
        shadow entry's own ``ServerStats`` — an undersized shadow pool
        is visible on ``/metrics``, not in user-facing latency.
        """
        for entry in self.shadow_entries:
            for text in texts:
                try:
                    future = entry.server.submit(text)
                except Exception:  # noqa: BLE001 - mirrored traffic is best-effort
                    self._record_shadow(failed=True)
                    continue
                future.add_done_callback(self._consume_shadow_result)
                self._record_shadow(failed=False)

    def _consume_shadow_result(self, future) -> None:
        try:
            future.result()
        except Exception:  # noqa: BLE001 - shadow outcomes never propagate
            self._record_shadow(failed=True)

    def _record_shadow(self, *, failed: bool) -> None:
        with self._shadow_lock:
            if failed:
                self._shadow_failures += 1
            else:
                self._shadow_submitted += 1

    def shadow_counts(self) -> dict[str, int]:
        """``{"submitted": n, "failed": n}`` mirrored-traffic counters."""
        with self._shadow_lock:
            return {
                "submitted": self._shadow_submitted,
                "failed": self._shadow_failures,
            }

    # ------------------------------------------------------------------
    # Lifecycle (delegated across every entry)
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while every non-shadow entry's pool is running."""
        return all(e.server.running for e in self._entries.values() if not e.shadow)

    @property
    def accepting(self) -> bool:
        """True while every non-shadow entry admits new requests."""
        return all(
            e.server.accepting for e in self._entries.values() if not e.shadow
        )

    def start_stopped(self) -> tuple[ModelEntry, ...]:
        """Start every entry that is not already running; returns them.

        The gateway uses the return value to know which servers it owns
        (and must drain + stop) versus caller-managed ones it leaves
        untouched — the same contract the single-server gateway had.
        """
        started: list[ModelEntry] = []
        for entry in self._entries.values():
            if not entry.server.running:
                entry.server.start()
                started.append(entry)
        return tuple(started)

    def drain(self, entries: Sequence[ModelEntry] | None = None) -> None:
        for entry in entries if entries is not None else self.entries:
            entry.server.drain()

    def stop(self, entries: Sequence[ModelEntry] | None = None) -> None:
        for entry in entries if entries is not None else self.entries:
            entry.server.stop()

"""Batched inference engine shared by every prediction path.

``PredictionEngine`` is the single place where raw texts become class
probabilities: it owns tokenisation, length-bucketed batching (texts are
sorted by token count so each batch pads only to its own longest row
instead of the global maximum), an LRU cache keyed on ``(model-id,
weights-version, text)`` — so in-place weight changes auto-invalidate
cached predictions — and vectorised softmax/argmax post-processing.
``WellnessClassifier``, ``Trainer.predict``, the LIME callback, and the
serving front-end all route through it, so padding waste is paid once
and repeated texts (LIME perturbations, hot traffic) are served from
cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.labels import DIMENSIONS, WellnessDimension

__all__ = [
    "EngineStats",
    "LatencyInjectedBackend",
    "PredictionEngine",
    "TraditionalBackend",
    "TransformerBackend",
    "bump_weights_version",
    "softmax_rows",
    "weights_version",
]


def weights_version(model) -> int:
    """Monotonic count of in-place weight mutations on ``model``.

    Zero for a model that has never been mutated after construction.
    The counter is mixed into every prediction-cache key, so bumping it
    (see :func:`bump_weights_version`) makes every engine over the model
    — including serving replicas — miss its cache instead of serving
    predictions computed with the old weights.
    """
    return int(getattr(model, "_weights_version", 0))


def bump_weights_version(model) -> int:
    """Mark ``model``'s weights as changed; returns the new version.

    Called whenever fitted state mutates in place: ``Module.
    load_state_dict`` (checkpoint restore, pretraining-cache restore),
    ``restore_array_state`` (classical estimators), ``Trainer.fit``
    epoch boundaries, and ``WellnessClassifier.fit``/``load``.
    """
    version = weights_version(model) + 1
    model._weights_version = version
    return version


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class EngineStats:
    """Counters the engine accumulates across calls."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    padded_tokens: int = 0
    padded_tokens_naive: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def padding_saved(self) -> float:
        """Fraction of pad tokens avoided versus one global-width batch."""
        if self.padded_tokens_naive == 0:
            return 0.0
        return 1.0 - self.padded_tokens / self.padded_tokens_naive

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Add ``other``'s counters into this one (replica aggregation)."""
        self.requests += other.requests
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.batches += other.batches
        self.padded_tokens += other.padded_tokens
        self.padded_tokens_naive += other.padded_tokens_naive
        return self


class TraditionalBackend:
    """TF-IDF + classical-ML probability backend.

    Vectorises the whole batch in one ``transform`` call; models without
    ``predict_proba`` (the SVM) get a softmax over decision margins.
    """

    def __init__(self, vectorizer, model) -> None:
        self.vectorizer = vectorizer
        self.model = model

    @property
    def n_classes(self) -> int:
        return int(self.model.n_classes_)

    @property
    def weights_version(self) -> int:
        """Combined mutation count of the model and the vectorizer."""
        return weights_version(self.model) + weights_version(self.vectorizer)

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        features = self.vectorizer.transform(texts)
        if hasattr(self.model, "predict_proba"):
            return np.asarray(self.model.predict_proba(features), dtype=np.float64)
        margins = np.asarray(self.model.decision_function(features))
        return softmax_rows(margins)


class TransformerBackend:
    """Token-id probability backend over a :class:`TransformerClassifier`.

    Exposes per-text encoding so the engine can sort by length and pad
    per bucket instead of per call.  Forward passes are serialised with
    a per-backend lock: ``no_grad()`` toggles a process-global autograd
    flag and ``eval()``/``train()`` flip shared module state, so
    interleaved calls from server worker threads (replicas share this
    backend) could strand the process with gradients disabled or build
    tape mid-inference.  The lock costs real parallelism: numpy
    releases the GIL inside its BLAS products, and a saturated
    two-thread-worker DistilBERT server served about 1.5x the texts/s
    with the lock swapped for a null context (unsafe, measured only to
    size the cost).

    A loaded checkpoint is served in eval mode, so a forward walks the
    module tree to switch modes only for a model left in training.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._forward_lock = threading.Lock()

    @property
    def n_classes(self) -> int:
        return int(self.model.n_classes)

    @property
    def weights_version(self) -> int:
        # TransformerClassifier exposes the version as a property; bare
        # modules fall back to the raw-attribute helper.
        version = getattr(self.model, "weights_version", None)
        return int(version) if version is not None else weights_version(self.model)

    def encode(self, text: str) -> list[int]:
        return self.model.encode_ids(text)

    def proba_rows(self, rows: list[list[int]]) -> np.ndarray:
        from repro.nn.tensor import no_grad

        model = self.model
        with self._forward_lock:
            was_training = model.training
            if was_training:
                model.eval()
            try:
                with no_grad():
                    batch = model.pad_rows(rows)
                    logits = model.forward(batch).data
            finally:
                if was_training:
                    model.train()
        return softmax_rows(np.asarray(logits, dtype=np.float64))


class LatencyInjectedBackend:
    """Delegating backend wrapper that adds fixed per-batch latency.

    Load-testing aid (``holistix-serve --inject-latency-ms``): makes a
    fast model behave like a slow one so overload behaviour (queue
    growth, 429s, drain timing) can be exercised deterministically —
    the e2e smoke job uses it to force a real shed through HTTP.  Lives
    at the engine layer so multi-process worker specs can rebuild the
    wrapper inside each worker process.
    """

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name: str):
        # Everything not overridden (n_classes, weights_version, encode
        # when the inner backend has one) passes straight through, so
        # the engine sees the inner backend's capabilities unchanged.
        return getattr(self._inner, name)

    def proba_batch(self, texts):
        time.sleep(self._delay_s)
        return self._inner.proba_batch(texts)

    def proba_rows(self, rows):
        time.sleep(self._delay_s)
        return self._inner.proba_rows(rows)


class PredictionEngine:
    """Cached, batched text → probability engine over one fitted model.

    Parameters
    ----------
    backend:
        :class:`TraditionalBackend` or :class:`TransformerBackend`.
    model_id:
        Identifier mixed into every cache key so caches from different
        models (or model versions) never collide.
    batch_size:
        Maximum texts per forward pass for transformer backends.
    cache_size:
        LRU capacity in texts; ``0`` disables caching.
    """

    def __init__(
        self,
        backend,
        *,
        model_id: str,
        batch_size: int = 64,
        cache_size: int = 2048,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.backend = backend
        self.model_id = model_id
        self.batch_size = batch_size
        self.cache_size = cache_size
        self.stats = EngineStats()
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._cached_version: int | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_traditional(
        cls, vectorizer, model, *, model_id: str, **kwargs
    ) -> "PredictionEngine":
        return cls(TraditionalBackend(vectorizer, model), model_id=model_id, **kwargs)

    @classmethod
    def for_transformer(cls, model, *, model_id: str, **kwargs) -> "PredictionEngine":
        return cls(TransformerBackend(model), model_id=model_id, **kwargs)

    def replicate(self) -> "PredictionEngine":
        """A new engine over the same fitted backend.

        The replica shares the read-only fitted state (model weights,
        vectorizer) but owns a private cache and private stats, so each
        serving worker can run lock-free against its own replica.
        """
        return PredictionEngine(
            self.backend,
            model_id=self.model_id,
            batch_size=self.batch_size,
            cache_size=self.cache_size,
        )

    @property
    def n_classes(self) -> int:
        return self.backend.n_classes

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    @property
    def weights_version(self) -> int:
        """The backend's current weights version (0 when untracked)."""
        return int(getattr(self.backend, "weights_version", 0))

    def _cache_get(self, text: str, version: int) -> np.ndarray | None:
        key = (self.model_id, version, text)
        row = self._cache.get(key)
        if row is not None:
            self._cache.move_to_end(key)
        return row

    def _cache_put(self, text: str, row: np.ndarray, version: int) -> None:
        if self.cache_size == 0:
            return
        key = (self.model_id, version, text)
        self._cache[key] = row
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every cached prediction immediately.

        Weight changes are already handled by the versioned cache keys
        (see :func:`bump_weights_version`); call this only to release
        memory or force recomputation at the current version.
        """
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _compute(self, texts: list[str]) -> np.ndarray:
        """Probabilities for unique, uncached texts (batched)."""
        if hasattr(self.backend, "encode"):
            return self._compute_bucketed(texts)
        probs = np.empty((len(texts), self.n_classes), dtype=np.float64)
        for start in range(0, len(texts), self.batch_size):
            chunk = texts[start : start + self.batch_size]
            probs[start : start + len(chunk)] = self.backend.proba_batch(chunk)
            self.stats.batches += 1
        return probs

    def _compute_bucketed(self, texts: list[str]) -> np.ndarray:
        """Length-bucketed transformer inference.

        Sorting by token count before chunking means each batch pads to
        its own longest row; the stats record how many pad tokens that
        saved versus padding everything to the global maximum.
        """
        rows = [self.backend.encode(t) for t in texts]
        order = sorted(range(len(rows)), key=lambda i: (len(rows[i]), i))
        widest = max((len(r) for r in rows), default=0)
        probs = np.empty((len(texts), self.n_classes), dtype=np.float64)
        for start in range(0, len(order), self.batch_size):
            picks = order[start : start + self.batch_size]
            bucket = [rows[i] for i in picks]
            width = max(len(r) for r in bucket)
            probs[picks] = self.backend.proba_rows(bucket)
            self.stats.batches += 1
            self.stats.padded_tokens += sum(width - len(r) for r in bucket)
            self.stats.padded_tokens_naive += sum(widest - len(r) for r in bucket)
        return probs

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """Probability matrix ``(n, n_classes)``, cache-aware and batched."""
        texts = [str(t) for t in texts]
        self.stats.requests += len(texts)
        # One version for the whole call: keys written here are readable
        # until the next weight mutation, never a mix of two versions.
        version = self.weights_version
        if version != self._cached_version:
            # Entries keyed on a superseded version are unreachable —
            # drop them now instead of letting dead rows hold LRU slots.
            self._cache.clear()
            self._cached_version = version
        out = np.empty((len(texts), self.n_classes), dtype=np.float64)
        pending: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            row = self._cache_get(text, version)
            if row is not None:
                self.stats.cache_hits += 1
                out[i] = row
            else:
                # Duplicate uncached texts are computed once.
                pending.setdefault(text, []).append(i)
        if pending:
            self.stats.cache_misses += len(pending)
            unique = list(pending)
            computed = self._compute(unique)
            for text, row in zip(unique, computed):
                self._cache_put(text, row, version)
                for i in pending[text]:
                    out[i] = row
        return out

    def predict_ids(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorised argmax class ids."""
        return self.predict_proba(texts).argmax(axis=1)

    def predict(self, texts: Sequence[str]) -> list[WellnessDimension]:
        """Predicted wellness dimensions (requires the six-class head)."""
        if self.n_classes != len(DIMENSIONS):
            raise ValueError(
                f"model has {self.n_classes} classes; expected {len(DIMENSIONS)}"
            )
        return [DIMENSIONS[int(i)] for i in self.predict_ids(texts)]

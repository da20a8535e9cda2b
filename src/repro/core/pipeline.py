"""High-level classification API: one object over every baseline.

``WellnessClassifier`` is the library's front door: pick any of the nine
Table IV baselines by name (resolved through the unified
:mod:`repro.engine.registry`), ``fit`` on a dataset, ``predict``
dimensions for new posts through the batched, cached
:class:`~repro.engine.engine.PredictionEngine`, ``explain`` predictions
with LIME, and ``save``/``load`` the fitted model as a checkpoint
directory — without touching the TF-IDF/encoder plumbing underneath.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import HolistixDataset
from repro.core.labels import DIMENSIONS, WellnessDimension
from repro.engine.engine import PredictionEngine, bump_weights_version
from repro.engine.registry import (
    build_engine,
    create_traditional_model,
    get_spec,
    traditional_baselines,
    transformer_baselines,
    transformer_class,
)
from repro.text.tfidf import TfidfVectorizer
from repro.text.vocab import Vocabulary

if TYPE_CHECKING:
    from repro.explain.lime import Explanation

__all__ = ["WellnessClassifier", "TRADITIONAL_BASELINES", "TRANSFORMER_BASELINES"]

# Derived from the registry; kept as module constants for the public API.
TRADITIONAL_BASELINES: tuple[str, ...] = traditional_baselines()
TRANSFORMER_BASELINES: tuple[str, ...] = transformer_baselines()


class WellnessClassifier:
    """Classify posts into the six wellness dimensions.

    Parameters
    ----------
    baseline:
        One of the paper's nine baselines (Table IV row names):
        ``LR``, ``Linear SVM``, ``Gaussian NB``, ``BERT``, ``DistilBERT``,
        ``MentalBERT``, ``Flan-T5``, ``XLNet``, ``GPT-2.0`` — anything
        registered in :mod:`repro.engine.registry`.
    max_features:
        TF-IDF vocabulary size for the traditional baselines.
    fast:
        Shrink the transformer (fewer epochs, no pretraining) — for tests
        and quick exploration, not for reproducing Table IV.
    """

    def __init__(
        self,
        baseline: str = "MentalBERT",
        *,
        max_features: int = 3000,
        fast: bool = False,
        seed: int = 7,
    ) -> None:
        self._spec = get_spec(baseline)  # raises on unknown names
        self.baseline = baseline
        self.max_features = max_features
        self.fast = fast
        self.seed = seed
        self._vectorizer: TfidfVectorizer | None = None
        self._model = None
        self._trainer = None
        self._engine: PredictionEngine | None = None

    @property
    def is_transformer(self) -> bool:
        return self._spec.is_transformer

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def model(self):
        """The fitted underlying model (``None`` before :meth:`fit`).

        Exposed read-only so out-of-process servers (``holistix-serve``)
        can hand the fitted state to :func:`repro.engine.registry.
        build_engine` with their own engine settings.
        """
        return self._model

    @property
    def vectorizer(self) -> TfidfVectorizer | None:
        """The fitted TF-IDF vectorizer (traditional baselines only)."""
        return self._vectorizer

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        train: "HolistixDataset | Sequence",
        *,
        validation: "HolistixDataset | None" = None,
    ) -> "WellnessClassifier":
        """Train the selected baseline on annotated instances."""
        instances = list(train)
        if not instances:
            raise ValueError("cannot fit on an empty dataset")
        texts = [inst.text for inst in instances]
        labels = [inst.label for inst in instances]
        self._engine = None  # new weights ⇒ new engine + empty cache
        if self.is_transformer:
            self._fit_transformer(texts, labels, validation)
        else:
            self._fit_traditional(texts, labels)
        # Belt and braces with the engine rebuild above: refitting is a
        # weight change, so any engine still holding the model (a
        # serving replica, a caller's reference) must miss its cache.
        bump_weights_version(self._model)
        return self

    def _fit_traditional(
        self, texts: list[str], labels: list[WellnessDimension]
    ) -> None:
        self._vectorizer = TfidfVectorizer(
            max_features=self.max_features, sparse_output=True
        )
        features = self._vectorizer.fit_transform(texts)
        targets = np.asarray([DIMENSIONS.index(label) for label in labels])
        self._model = create_traditional_model(self.baseline, seed=self.seed)
        self._model.fit(features, targets)

    def _fit_transformer(
        self,
        texts: list[str],
        labels: list[WellnessDimension],
        validation: "HolistixDataset | None",
    ) -> None:
        from repro.models.config import scaled_for_tests
        from repro.models.pretrain import build_pretraining_corpus
        from repro.models.trainer import Trainer

        config = self._spec.config
        if self.fast:
            config = scaled_for_tests(config)
        if config.pretrain_objective is not None:
            corpus = build_pretraining_corpus(config.pretrain_domain, seed=101)
        else:
            corpus = []
        vocab = Vocabulary.build(corpus + texts, max_size=2500)
        self._trainer = Trainer(config, vocab)
        kwargs = {}
        if validation is not None:
            kwargs = {
                "val_texts": validation.texts,
                "val_labels": validation.labels,
            }
        self._trainer.fit(texts, labels, **kwargs)
        self._model = self._trainer.model

    # ------------------------------------------------------------------
    # Inference (all routed through the PredictionEngine)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> PredictionEngine:
        """The batched/cached inference engine over the fitted model."""
        if self._engine is None:
            if self._model is None:
                raise RuntimeError("classifier must be fitted before predict")
            self._engine = build_engine(
                self.baseline, model=self._model, vectorizer=self._vectorizer
            )
        return self._engine

    def predict(self, texts: Sequence[str]) -> list[WellnessDimension]:
        """Predicted dimensions for raw post texts."""
        return self.engine.predict(list(texts))

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """Probability matrix ``(n, 6)`` in DIMENSIONS order."""
        return self.engine.predict_proba(list(texts))

    def accuracy(self, dataset: HolistixDataset) -> float:
        """Accuracy over an annotated dataset."""
        predictions = self.predict(dataset.texts)
        gold = dataset.labels
        return sum(p == g for p, g in zip(predictions, gold)) / len(gold)

    # ------------------------------------------------------------------
    # Explainability
    # ------------------------------------------------------------------
    def explain(
        self, text: str, *, n_samples: int = 300, seed: int | None = None
    ) -> Explanation:
        """LIME explanation of this classifier's prediction on ``text``.

        The explainer queries the prediction engine, so the hundreds of
        perturbed texts are batched (and duplicates cached) rather than
        scored one path at a time.
        """
        from repro.explain.lime import LimeTextExplainer

        explainer = LimeTextExplainer.from_engine(
            self.engine,
            n_samples=n_samples,
            seed=self.seed if seed is None else seed,
        )
        return explainer.explain(text)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write a checkpoint directory for the fitted classifier.

        The checkpoint is ``weights.npz`` (model parameters, plus the
        TF-IDF idf vector for traditional baselines) and ``config.json``
        (baseline identity, hyperparameters, vocabulary).  Any baseline —
        traditional or transformer — round-trips through
        :meth:`WellnessClassifier.load` with identical predictions.
        """
        from repro.nn.serialization import collect_array_state, save_checkpoint

        if self._model is None:
            raise RuntimeError("classifier must be fitted before save")
        config: dict = {
            "baseline": self.baseline,
            "kind": self._spec.kind,
            "max_features": self.max_features,
            "fast": self.fast,
            "seed": self.seed,
        }
        if self.is_transformer:
            model = self._model
            arrays = {
                f"model.{name}": value
                for name, value in model.state_dict().items()
            }
            config["n_classes"] = model.n_classes
            config["model_config"] = asdict(model.config)
            config["vocab_tokens"] = model.vocab.ordinary_tokens()
        else:
            vec_config, idf = self._vectorizer.get_state()
            arrays = {
                f"model.{name}": value
                for name, value in collect_array_state(self._model).items()
            }
            arrays["vectorizer.idf"] = idf
            config["vectorizer"] = vec_config
        return save_checkpoint(path, arrays=arrays, config=config)

    @classmethod
    def load(cls, path: str | Path) -> "WellnessClassifier":
        """Rebuild a fitted classifier from a :meth:`save` checkpoint."""
        from repro.nn.serialization import load_checkpoint

        arrays, config = load_checkpoint(path)
        return cls.from_state(arrays, config)

    @classmethod
    def from_state(cls, arrays: dict, config: dict) -> "WellnessClassifier":
        """Rebuild a fitted classifier from in-memory checkpoint state.

        ``arrays``/``config`` are exactly what :meth:`save` persists —
        but they can come from anywhere: ``load_checkpoint`` (the
        :meth:`load` path) or zero-copy shared-memory views published by
        a :class:`~repro.nn.serialization.SharedCheckpoint` (worker
        processes).  Read-only arrays are safe: transformer parameters
        are copied once by ``load_state_dict``, while traditional models
        hold the views by reference (``restore_array_state`` assigns,
        inference never writes fitted state) — true zero-copy serving.
        """
        from repro.models.config import ModelConfig
        from repro.nn.serialization import restore_array_state

        classifier = cls(
            config["baseline"],
            max_features=config["max_features"],
            fast=config["fast"],
            seed=config["seed"],
        )
        model_arrays = {
            name[len("model.") :]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        }
        if config["kind"] == "transformer":
            vocab = Vocabulary(config["vocab_tokens"], specials=True)
            model_config = ModelConfig(**config["model_config"])
            model = transformer_class(config["baseline"])(
                vocab, n_classes=config["n_classes"], config=model_config
            )
            model.load_state_dict(model_arrays)
            classifier._model = model
        else:
            classifier._vectorizer = TfidfVectorizer.from_state(
                config["vectorizer"], arrays["vectorizer.idf"]
            )
            model = create_traditional_model(
                config["baseline"], seed=config["seed"]
            )
            restore_array_state(model, model_arrays)
            classifier._model = model
        # load_state_dict/restore_array_state already bumped, but keep
        # the invariant explicit: restoring a checkpoint is a weight
        # change, so cached predictions from before it must not serve.
        bump_weights_version(classifier._model)
        return classifier

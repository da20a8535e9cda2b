"""TF-IDF vectoriser built from scratch, with sparse (CSR) output.

The paper's traditional ML baselines "convert text data into numerical
representation using Term Frequency-Inverse Document Frequency (TF-IDF)".
This implementation mirrors scikit-learn's ``TfidfVectorizer`` defaults:

* smooth idf: ``idf(t) = ln((1 + N) / (1 + df(t))) + 1``
* optional sublinear tf: ``1 + ln(tf)``
* L2 row normalisation

so the downstream classifiers see features with the familiar scaling.

Two performance properties matter on the hot path:

* **Sparse assembly** — the matrix is always built in CSR form
  (:class:`repro.sparse.CSRMatrix`); ``sparse_output=True`` returns it
  directly, the default densifies for backward compatibility.  The
  classical classifiers in :mod:`repro.ml` consume the CSR form natively.
* **Shared tokenisation cache** — term counts are cached per training
  document, so ``fit_transform`` tokenises each document exactly once
  and a later ``transform`` over text seen during ``fit``
  (cross-validation folds, repeated experiment passes) skips
  tokenisation entirely.  Only ``fit`` populates the cache, keeping it
  bounded by the training corpus rather than by inference traffic.

Example
-------
>>> from repro.text.tfidf import TfidfVectorizer
>>> docs = ["the cat sat", "the dog sat"]
>>> vec = TfidfVectorizer(sparse_output=True)
>>> matrix = vec.fit_transform(docs)
>>> matrix.shape == (2, 4) and matrix.nnz == 6
True
>>> vec.feature_names
['cat', 'dog', 'sat', 'the']
"""

from __future__ import annotations

import math
from collections import Counter, _count_elements
from collections.abc import Iterable, Sequence

import numpy as np

from repro.sparse import CSRMatrix
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import word_tokenize
from repro.text.vocab import Vocabulary

__all__ = ["TfidfVectorizer"]

# Training documents whose analysed term counts we keep around.  Only
# ``fit`` stores entries, but the limit still guards against a
# pathological multi-million-document corpus; 100k entries comfortably
# covers every experiment corpus.
_COUNT_CACHE_LIMIT = 100_000


class TfidfVectorizer:
    """Fit a TF-IDF model on a corpus and transform documents to vectors.

    Parameters
    ----------
    max_features:
        Keep only the ``max_features`` most frequent terms (by collection
        frequency, ties broken alphabetically), like scikit-learn.
    min_df / max_df:
        Document-frequency bounds.  ``min_df`` is an absolute count;
        ``max_df`` is a fraction of documents.
    sublinear_tf:
        Use ``1 + ln(tf)`` instead of raw term frequency.
    remove_stopwords:
        Drop English stop words before counting.
    ngram_range:
        Inclusive ``(lo, hi)`` range of word n-gram lengths; unigrams only
        by default, matching the paper's frequency-based features.
    sparse_output:
        When True, :meth:`transform` / :meth:`fit_transform` return a
        :class:`~repro.sparse.CSRMatrix` instead of a dense array.  The
        matrix is assembled sparsely either way; this flag only controls
        whether it is densified before returning.

    Example
    -------
    >>> vec = TfidfVectorizer()
    >>> matrix = vec.fit_transform(["good sleep", "bad sleep"])
    >>> matrix.shape
    (2, 3)
    >>> round(float(np.linalg.norm(matrix[0])), 9)  # rows are L2-normalised
    1.0
    """

    def __init__(
        self,
        *,
        max_features: int | None = None,
        min_df: int = 1,
        max_df: float = 1.0,
        sublinear_tf: bool = False,
        remove_stopwords: bool = False,
        ngram_range: tuple[int, int] = (1, 1),
        sparse_output: bool = False,
    ) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        if not 0.0 < max_df <= 1.0:
            raise ValueError("max_df must be in (0, 1]")
        lo, hi = ngram_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid ngram_range {ngram_range}")
        self.max_features = max_features
        self.min_df = min_df
        self.max_df = max_df
        self.sublinear_tf = sublinear_tf
        self.remove_stopwords = remove_stopwords
        self.ngram_range = ngram_range
        self.sparse_output = sparse_output
        self._vocab: Vocabulary | None = None
        self._idf: np.ndarray | None = None
        self._index: dict[str, int] = {}
        self._count_cache: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def _analyze(self, text: str) -> list[str]:
        """Tokenise ``text`` into the terms this vectoriser counts."""
        tokens = word_tokenize(text)
        if self.remove_stopwords:
            tokens = [t for t in tokens if t not in STOPWORDS]
        lo, hi = self.ngram_range
        if (lo, hi) == (1, 1):
            return tokens
        terms: list[str] = []
        for n in range(lo, hi + 1):
            terms.extend(
                " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
            )
        return terms

    def _count_cached(self, text: str, *, store: bool = False) -> dict[str, int]:
        """Term counts of ``text``, memoised per document.

        The analyser's behaviour is fixed at construction time (the
        parameters are never mutated) and term counts are independent of
        the fitted vocabulary, so a document's counts can be reused
        across ``fit`` and ``transform`` — ``fit_transform`` tokenises
        each document exactly once, and a later ``transform`` over text
        seen during ``fit`` (cross-validation folds, LIME's base text)
        skips tokenisation entirely.

        Only ``fit`` stores (``store=True``): the cache stays bounded by
        the training corpus instead of growing with every inference
        request a long-lived serving vectoriser ever sees.

        Counts go into a plain dict, in first-occurrence order, through
        the C counting loop ``Counter`` itself runs; constructing a
        ``Counter`` per text would add its Python-level set-up to every
        one-text request.
        """
        counts = self._count_cache.get(text)
        if counts is None:
            counts = {}
            _count_elements(counts, self._analyze(text))
            if store and len(self._count_cache) < _COUNT_CACHE_LIMIT:
                self._count_cache[text] = counts
        return counts

    # ------------------------------------------------------------------
    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn vocabulary and idf weights from ``documents``.

        Parameters
        ----------
        documents:
            Non-empty sequence of raw text documents.

        Returns
        -------
        TfidfVectorizer
            ``self`` (fitted), for chaining.
        """
        if not documents:
            raise ValueError("cannot fit TfidfVectorizer on an empty corpus")
        collection: Counter[str] = Counter()
        doc_freq: Counter[str] = Counter()
        n_docs = len(documents)
        for doc in documents:
            counts = self._count_cached(doc, store=True)
            collection.update(counts)
            doc_freq.update(counts.keys())

        max_df_count = self.max_df * n_docs
        eligible = [
            term
            for term, df in doc_freq.items()
            if df >= self.min_df and df <= max_df_count
        ]
        eligible.sort(key=lambda t: (-collection[t], t))
        if self.max_features is not None:
            eligible = eligible[: self.max_features]
        # Feature order is alphabetical for a stable column layout.
        eligible.sort()

        self._vocab = Vocabulary(eligible, specials=False)
        self._index = {term: j for j, term in enumerate(eligible)}
        idf = np.empty(len(eligible), dtype=np.float64)
        for j, term in enumerate(eligible):
            idf[j] = math.log((1.0 + n_docs) / (1.0 + doc_freq[term])) + 1.0
        self._idf = idf
        return self

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray | CSRMatrix:
        """Fit on ``documents`` and return their TF-IDF matrix.

        Thanks to the shared tokenisation cache this analyses each
        document once, not once for ``fit`` and again for ``transform``.
        """
        return self.fit(documents).transform(documents)

    def transform(self, documents: Iterable[str]) -> np.ndarray | CSRMatrix:
        """TF-IDF matrix of shape ``(n_docs, n_features)``.

        Parameters
        ----------
        documents:
            Raw texts; unknown terms are ignored, and all-zero rows stay
            zero after the L2 normalisation (no division by zero).

        Returns
        -------
        numpy.ndarray or CSRMatrix
            Dense array by default; :class:`~repro.sparse.CSRMatrix`
            when the vectoriser was built with ``sparse_output=True``.
        """
        matrix = self.transform_sparse(documents)
        return matrix if self.sparse_output else matrix.toarray()

    def transform_sparse(self, documents: Iterable[str]) -> CSRMatrix:
        """The CSR TF-IDF matrix, regardless of ``sparse_output``."""
        if self._vocab is None or self._idf is None:
            raise RuntimeError("TfidfVectorizer must be fitted before transform")
        index = self._index
        flat_cols: list[int] = []
        flat_tf: list[int] = []
        ends = [0]
        for doc in documents:
            for term, count in self._count_cached(doc).items():
                j = index.get(term)
                if j is not None:
                    flat_cols.append(j)
                    flat_tf.append(count)
            ends.append(len(flat_cols))
        indptr = np.asarray(ends, dtype=np.int64)
        indices = np.asarray(flat_cols, dtype=np.int64)
        weighted = np.asarray(flat_tf, dtype=np.float64)
        if self.sublinear_tf:
            weighted = 1.0 + np.log(weighted)
        weighted *= self._idf[indices]
        return CSRMatrix._trusted(
            weighted, indices, indptr, (len(ends) - 1, len(self._idf))
        ).normalized_rows()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def get_state(self) -> tuple[dict, np.ndarray]:
        """Fitted state as ``(json-safe config, idf array)``.

        The config carries the constructor parameters plus the learned
        terms in column order; together with the idf vector it fully
        reconstructs the vectoriser via :meth:`from_state`.
        """
        if self._vocab is None or self._idf is None:
            raise RuntimeError("TfidfVectorizer must be fitted first")
        config = {
            "max_features": self.max_features,
            "min_df": self.min_df,
            "max_df": self.max_df,
            "sublinear_tf": self.sublinear_tf,
            "remove_stopwords": self.remove_stopwords,
            "ngram_range": list(self.ngram_range),
            "sparse_output": self.sparse_output,
            "terms": self.feature_names,
        }
        return config, self._idf.copy()

    @classmethod
    def from_state(cls, config: dict, idf: np.ndarray) -> "TfidfVectorizer":
        """Rebuild a fitted vectoriser from :meth:`get_state` output."""
        terms = list(config["terms"])
        if len(terms) != idf.shape[0]:
            raise ValueError(
                f"terms/idf length mismatch: {len(terms)} vs {idf.shape[0]}"
            )
        vectorizer = cls(
            max_features=config["max_features"],
            min_df=config["min_df"],
            max_df=config["max_df"],
            sublinear_tf=config["sublinear_tf"],
            remove_stopwords=config["remove_stopwords"],
            ngram_range=tuple(config["ngram_range"]),
            # Checkpoints written before the sparse pipeline carry no flag.
            sparse_output=config.get("sparse_output", False),
        )
        vectorizer._vocab = Vocabulary(terms, specials=False)
        vectorizer._index = {term: j for j, term in enumerate(terms)}
        vectorizer._idf = np.asarray(idf, dtype=np.float64).copy()
        return vectorizer

    # ------------------------------------------------------------------
    @property
    def feature_names(self) -> list[str]:
        """Terms in column order."""
        if self._vocab is None:
            raise RuntimeError("TfidfVectorizer must be fitted first")
        return [self._vocab.token(i) for i in range(len(self._vocab))]

    @property
    def idf(self) -> np.ndarray:
        """Learned idf vector (copy)."""
        if self._idf is None:
            raise RuntimeError("TfidfVectorizer must be fitted first")
        return self._idf.copy()

    @property
    def n_features(self) -> int:
        """Vocabulary size (number of matrix columns)."""
        if self._vocab is None:
            raise RuntimeError("TfidfVectorizer must be fitted first")
        return len(self._vocab)

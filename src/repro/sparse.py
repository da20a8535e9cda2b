"""From-scratch CSR (compressed sparse row) matrix for TF-IDF features.

TF-IDF matrices over the Holistix corpus are ~95% zeros (a post
mentions a few dozen terms out of a few-thousand-term vocabulary), so
materialising them densely wastes both memory and the flops every
classifier then spends multiplying zeros.  :class:`CSRMatrix` stores
only the non-zero entries in the standard three-array layout
(``data``/``indices``/``indptr``) and implements exactly the operations
the pipeline needs:

* ``csr @ dense`` products (classifier forward passes),
* transposed products ``csr.T @ dense`` (logistic-regression gradients),
* per-row access (Pegasos SGD updates),
* column scaling and L2 row normalisation (the TF-IDF weighting),
* row selection and column moments (per-class Gaussian NB statistics).

Everything is numpy-vectorised over the non-zeros; there is no
per-element Python loop on any hot path.

Example
-------
>>> import numpy as np
>>> from repro.sparse import CSRMatrix
>>> dense = np.array([[0.0, 2.0], [3.0, 0.0]])
>>> m = CSRMatrix.from_dense(dense)
>>> m.nnz
2
>>> np.allclose(m @ np.eye(2), dense)
True
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["CSRMatrix", "is_sparse", "as_dense"]


class CSRMatrix:
    """A read-mostly sparse matrix in compressed sparse row format.

    Parameters
    ----------
    data:
        Non-zero values, row-major (``float64``).
    indices:
        Column index of each value in ``data``.
    indptr:
        Row boundaries: row ``i`` owns ``data[indptr[i]:indptr[i + 1]]``.
    shape:
        ``(n_rows, n_cols)``.  ``n_cols`` may exceed ``indices.max() + 1``
        (trailing all-zero columns are representable).

    Notes
    -----
    Instances are treated as immutable by every consumer; operations
    return new matrices (or fresh dense arrays) rather than mutating.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_row_nnz")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
            raise ValueError("data, indices and indptr must be 1-D")
        if data.shape[0] != indices.shape[0]:
            raise ValueError("data and indices length mismatch")
        if indptr.shape[0] != n_rows + 1:
            raise ValueError(f"indptr must have {n_rows + 1} entries")
        if indptr[0] != 0 or indptr[-1] != data.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column index out of range")
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (n_rows, n_cols)
        self._row_nnz: np.ndarray | None = None  # lazy row index per nnz

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CSRMatrix":
        """Compress a dense 2-D array (exact: keeps every non-zero)."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = array != 0.0
        indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(array[rows, cols], cols, indptr, array.shape)

    @classmethod
    def _trusted(
        cls,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Wrap arrays without the checks ``__init__`` makes.

        Only for producers that have just built ``data`` (float64),
        ``indices`` and ``indptr`` (int64) themselves, or derived them
        from a matrix that passed those checks; re-validating them would
        cost a one-text transform more than its arithmetic does.
        """
        matrix = cls.__new__(cls)
        matrix.data = data
        matrix.indices = indices
        matrix.indptr = indptr
        matrix.shape = shape
        matrix._row_nnz = None
        return matrix

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple[np.ndarray, np.ndarray]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Assemble from per-row ``(column indices, values)`` pairs.

        Each row contributes one ``(cols, vals)`` pair; empty rows
        contribute empty arrays.  Columns within a row need not be
        sorted.  (``TfidfVectorizer.transform_sparse`` builds its
        arrays flat for speed; this constructor is the convenient
        general-purpose equivalent.)
        """
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(cols) for cols, _ in rows], out=indptr[1:])
        if rows:
            indices = np.concatenate(
                [np.asarray(cols, dtype=np.int64) for cols, _ in rows]
            )
            data = np.concatenate(
                [np.asarray(vals, dtype=np.float64) for _, vals in rows]
            )
        else:
            indices = np.zeros(0, dtype=np.int64)
            data = np.zeros(0, dtype=np.float64)
        return cls(data, indices, indptr, (len(rows), n_cols))

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of cells that are stored."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape
        )

    def toarray(self) -> np.ndarray:
        """Densify to a ``(n_rows, n_cols)`` float64 array.

        Duplicate column indices within a row are **summed** (scipy
        semantics), matching what the product/sum kernels compute, so
        dense and sparse consumers always see the same matrix.  Norm
        and scaling operations still treat duplicates as separate
        entries — producers should emit unique columns per row.
        """
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self._row_of_nnz(), self.indices), self.data)
        return out

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row ``i``'s ``(column indices, values)``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def _row_of_nnz(self) -> np.ndarray:
        """Row index of every stored entry, shape ``(nnz,)`` (cached)."""
        if self._row_nnz is None:
            self._row_nnz = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_nnz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3f})"
        )

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``self @ other`` against a dense vector/matrix → dense result.

        Each output column is a segment sum of the per-nnz contributions
        grouped by row, computed with ``np.bincount`` (one C pass per
        output column — measured faster than ``reduceat``/cumsum
        variants at TF-IDF sizes).  A one-row matrix (one text being
        served) skips the per-column loop: one running sum over its
        non-zeros, in the order and from the ``0.0`` that ``bincount``
        uses, so a row's product is bitwise the same alone as in any
        batch.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.shape[0] != self.shape[1]:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}"
            )
        vector = other.ndim == 1
        if vector:
            other = other[:, None]
        gathered = other[self.indices]
        if self.shape[0] == 1 and self.nnz:
            # ``+ 0.0`` turns an all ``-0.0`` sum into bincount's ``0.0``.
            out = np.cumsum(self.data[:, None] * gathered, axis=0)[-1:] + 0.0
        else:
            rows = self._row_of_nnz()
            out = np.empty((self.shape[0], other.shape[1]), dtype=np.float64)
            for j in range(other.shape[1]):
                out[:, j] = np.bincount(
                    rows, weights=self.data * gathered[:, j], minlength=self.shape[0]
                )
        return out[:, 0] if vector else out

    def transpose_matmul(self, other: np.ndarray) -> np.ndarray:
        """``self.T @ other`` against a dense matrix → dense ``(n_cols, k)``.

        The logistic-regression gradient ``X.T @ (probs - onehot)``
        without ever forming ``X.T``: contributions are accumulated per
        column index with ``np.bincount``.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.shape[0] != self.shape[0]:
            raise ValueError(
                f"shape mismatch: {self.shape}.T @ {other.shape}"
            )
        vector = other.ndim == 1
        if vector:
            other = other[:, None]
        gathered = other[self._row_of_nnz()]
        out = np.empty((self.shape[1], other.shape[1]), dtype=np.float64)
        for j in range(other.shape[1]):
            out[:, j] = np.bincount(
                self.indices,
                weights=self.data * gathered[:, j],
                minlength=self.shape[1],
            )
        return out[:, 0] if vector else out

    # ------------------------------------------------------------------
    # Rescaling
    # ------------------------------------------------------------------
    def scale_columns(self, factors: np.ndarray) -> "CSRMatrix":
        """New matrix with column ``j`` multiplied by ``factors[j]``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[1],):
            raise ValueError("factors must have one entry per column")
        return CSRMatrix(
            self.data * factors[self.indices], self.indices, self.indptr, self.shape
        )

    def row_norms(self) -> np.ndarray:
        """L2 norm of every row, shape ``(n_rows,)``.

        Each row's squares are summed on their own, in order, so a row's
        norm is bitwise the same alone as in any batch.
        """
        n_rows = self.shape[0]
        rows = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        return np.sqrt(np.bincount(rows, weights=self.data**2, minlength=n_rows))

    def normalized_rows(self) -> "CSRMatrix":
        """New matrix with unit-L2 rows (all-zero rows stay zero)."""
        norms = self.row_norms()
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        return CSRMatrix._trusted(
            self.data * np.repeat(scale, np.diff(self.indptr)),
            self.indices,
            self.indptr,
            self.shape,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def select_rows(self, row_indices: np.ndarray) -> "CSRMatrix":
        """New matrix keeping ``row_indices`` (in the given order)."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        lengths = self.indptr[row_indices + 1] - self.indptr[row_indices]
        indptr = np.zeros(len(row_indices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = np.concatenate(
            [np.arange(self.indptr[i], self.indptr[i + 1]) for i in row_indices]
        ) if len(row_indices) else np.zeros(0, dtype=np.int64)
        return CSRMatrix(
            self.data[take],
            self.indices[take],
            indptr,
            (len(row_indices), self.shape[1]),
        )

    def with_intercept_column(self) -> "CSRMatrix":
        """New matrix with a constant-1 column appended (bias feature)."""
        n_rows, n_cols = self.shape
        positions = self.indptr[1:]
        data = np.insert(self.data, positions, 1.0)
        indices = np.insert(self.indices, positions, n_cols)
        indptr = self.indptr + np.arange(n_rows + 1, dtype=np.int64)
        return CSRMatrix(data, indices, indptr, (n_rows, n_cols + 1))

    # ------------------------------------------------------------------
    # Column moments (Gaussian NB statistics)
    # ------------------------------------------------------------------
    def column_sums(self) -> np.ndarray:
        """Sum of every column, shape ``(n_cols,)``."""
        return np.bincount(
            self.indices, weights=self.data, minlength=self.shape[1]
        )

    def column_means(self) -> np.ndarray:
        """Mean of every column (zeros included), shape ``(n_cols,)``."""
        if self.shape[0] == 0:
            raise ValueError("mean of an empty matrix")
        return self.column_sums() / self.shape[0]

    def column_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column ``(mean, variance)`` with zeros included.

        Variance uses ``E[x^2] - E[x]^2`` (clipped at 0 against rounding),
        which needs only one pass over the stored entries.
        """
        if self.shape[0] == 0:
            raise ValueError("moments of an empty matrix")
        mean = self.column_means()
        sq = np.bincount(
            self.indices, weights=self.data**2, minlength=self.shape[1]
        )
        var = np.maximum(sq / self.shape[0] - mean**2, 0.0)
        return mean, var


def is_sparse(features: object) -> bool:
    """True when ``features`` is a :class:`CSRMatrix`."""
    return isinstance(features, CSRMatrix)


def as_dense(features: "CSRMatrix | np.ndarray") -> np.ndarray:
    """Densify a CSR matrix; pass dense input through as float64."""
    if isinstance(features, CSRMatrix):
        return features.toarray()
    return np.asarray(features, dtype=np.float64)

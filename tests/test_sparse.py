"""Tests for repro.sparse and the sparse/dense equivalence guarantees.

The contract under test: the CSR pipeline (sparse TF-IDF features +
sparse classifier paths) produces the *same numbers* as the dense
pipeline — identical TF-IDF matrices and identical classifier
predictions on the corpus generator's fixtures — and the parallel
experiment runner produces results independent of ``--jobs``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.labels import DIMENSIONS
from repro.ml.logistic import LogisticRegression
from repro.ml.multilabel import OneVsRestClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVM
from repro.sparse import CSRMatrix, as_dense, is_sparse
from repro.text.tfidf import TfidfVectorizer


def _random_dense(rng, shape=(7, 5), density=0.4):
    dense = rng.normal(size=shape)
    dense[rng.random(shape) > density] = 0.0
    return dense


class TestCSRMatrix:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = _random_dense(rng)
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(matrix.toarray(), dense)
        assert matrix.nnz == np.count_nonzero(dense)

    def test_from_rows_with_empty_rows(self):
        matrix = CSRMatrix.from_rows(
            [
                (np.array([2, 0]), np.array([5.0, 1.0])),
                (np.array([], dtype=np.int64), np.array([])),
                (np.array([1]), np.array([3.0])),
            ],
            n_cols=3,
        )
        expected = np.array([[1.0, 0.0, 5.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        np.testing.assert_array_equal(matrix.toarray(), expected)

    def test_duplicate_columns_sum_consistently(self):
        # scipy semantics: duplicate (row, col) entries accumulate, and
        # toarray() agrees with the product kernels.
        matrix = CSRMatrix.from_rows(
            [(np.array([0, 0, 1]), np.array([1.0, 2.0, 4.0]))], n_cols=2
        )
        np.testing.assert_array_equal(matrix.toarray(), [[3.0, 4.0]])
        np.testing.assert_allclose(matrix @ np.eye(2), [[3.0, 4.0]])
        np.testing.assert_allclose(matrix.column_sums(), [3.0, 4.0])

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = _random_dense(rng)
        other = rng.normal(size=(5, 3))
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(matrix @ other, dense @ other)

    def test_matmul_vector(self):
        rng = np.random.default_rng(2)
        dense = _random_dense(rng)
        vec = rng.normal(size=5)
        out = CSRMatrix.from_dense(dense) @ vec
        assert out.shape == (7,)
        np.testing.assert_allclose(out, dense @ vec)

    def test_one_row_matmul_is_bitwise_its_row_in_a_batch(self):
        # One row is the one-text serving case, which has its own product.
        # PredictionEngine caches scores per text, so that product must be
        # bitwise what the same row gets in any batch.
        rng = np.random.default_rng(5)
        dense = _random_dense(rng, shape=(8, 60), density=0.5)
        dense[2] = 0.0
        dense[5] = np.abs(dense[5])
        other = rng.normal(size=(60, 6))
        other[:, 0] = -0.0  # row 5's first product sums only -0.0
        matrix = CSRMatrix.from_dense(dense)
        batch, batch_vector = matrix @ other, matrix @ other[:, 1]
        np.testing.assert_allclose(batch, dense @ other)
        for i in range(matrix.shape[0]):
            alone = matrix.select_rows([i])
            assert (alone @ other).tobytes() == batch[i : i + 1].tobytes()
            out = alone @ other[:, 1]
            assert out.shape == (1,)
            assert out.tobytes() == batch_vector[i : i + 1].tobytes()
        twice = CSRMatrix.from_rows([([1, 3, 1], [2.0, 3.0, 4.0])], 60)
        np.testing.assert_allclose(twice @ other, twice.toarray() @ other)

    def test_matmul_shape_mismatch(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            matrix @ np.ones((4, 2))

    def test_transpose_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        dense = _random_dense(rng)
        other = rng.normal(size=(7, 2))
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(
            matrix.transpose_matmul(other), dense.T @ other
        )

    def test_empty_rows_survive_products(self):
        dense = np.zeros((4, 3))
        dense[1, 2] = 5.0
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(matrix @ np.eye(3), dense)
        np.testing.assert_allclose(matrix.row_norms(), [0.0, 5.0, 0.0, 0.0])

    def test_with_intercept_column(self):
        rng = np.random.default_rng(4)
        dense = _random_dense(rng)
        extended = CSRMatrix.from_dense(dense).with_intercept_column()
        expected = np.hstack([dense, np.ones((dense.shape[0], 1))])
        np.testing.assert_array_equal(extended.toarray(), expected)

    def test_select_rows(self):
        rng = np.random.default_rng(5)
        dense = _random_dense(rng)
        picked = CSRMatrix.from_dense(dense).select_rows(np.array([4, 0, 4]))
        np.testing.assert_array_equal(picked.toarray(), dense[[4, 0, 4]])

    def test_column_moments_match_dense(self):
        rng = np.random.default_rng(6)
        dense = _random_dense(rng)
        mean, var = CSRMatrix.from_dense(dense).column_moments()
        np.testing.assert_allclose(mean, dense.mean(axis=0))
        np.testing.assert_allclose(var, dense.var(axis=0), atol=1e-12)

    def test_scale_columns_and_normalize(self):
        rng = np.random.default_rng(7)
        dense = _random_dense(rng)
        factors = rng.uniform(0.5, 2.0, size=5)
        scaled = CSRMatrix.from_dense(dense).scale_columns(factors)
        np.testing.assert_allclose(scaled.toarray(), dense * factors)
        normalized = scaled.normalized_rows().toarray()
        norms = np.linalg.norm(normalized, axis=1)
        for i, norm in enumerate(norms):
            if np.any(dense[i] != 0):
                assert norm == pytest.approx(1.0)
            else:
                assert norm == 0.0

    def test_invalid_structure_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(2), np.array([0, 5]), np.array([0, 2]), (1, 3))
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(2), np.array([0, 1]), np.array([0, 1]), (2, 3))

    def test_helpers(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        matrix = CSRMatrix.from_dense(dense)
        assert is_sparse(matrix) and not is_sparse(dense)
        np.testing.assert_array_equal(as_dense(matrix), dense)
        np.testing.assert_array_equal(as_dense(dense), dense)
        assert matrix.density == pytest.approx(0.5)


class TestSparseDenseEquivalence:
    """Sparse and dense pipelines must produce the same numbers."""

    @pytest.fixture(scope="class")
    def features(self, small_dataset):
        texts = small_dataset.texts
        dense = TfidfVectorizer(max_features=3000).fit_transform(texts)
        sparse = TfidfVectorizer(
            max_features=3000, sparse_output=True
        ).fit_transform(texts)
        targets = np.asarray(
            [DIMENSIONS.index(label) for label in small_dataset.labels]
        )
        return dense, sparse, targets

    def test_tfidf_matrices_identical(self, features):
        dense, sparse, _ = features
        assert is_sparse(sparse)
        np.testing.assert_allclose(sparse.toarray(), dense, atol=1e-12)

    @pytest.mark.parametrize(
        "options", [{}, {"sublinear_tf": True, "ngram_range": (1, 2)}]
    )
    def test_transform_is_bitwise_the_normalized_rows_reference(
        self, small_dataset, options
    ):
        # transform_sparse assembles all rows into flat arrays before it
        # normalises them; that must equal, bit for bit, assembling each
        # row on its own + normalized_rows(), for a batch and for one text.
        texts = small_dataset.texts
        vec = TfidfVectorizer(max_features=500, **options).fit(texts)
        docs = texts[:60] + ["", "zzz unknown words only"]
        rows = []
        for doc in docs:
            counts = Counter(vec._analyze(doc))
            cols = [vec._index[t] for t in counts if t in vec._index]
            tf = np.array([counts[t] for t in counts if t in vec._index], dtype=float)
            if vec.sublinear_tf:
                tf = 1.0 + np.log(tf)
            rows.append((cols, tf * vec.idf[cols]))
        reference = CSRMatrix.from_rows(rows, vec.n_features).normalized_rows()
        matrix = vec.transform_sparse(docs)
        assert matrix.data.tobytes() == reference.data.tobytes()
        np.testing.assert_array_equal(matrix.indices, reference.indices)
        np.testing.assert_array_equal(matrix.indptr, reference.indptr)
        for doc, row in zip(docs, rows):
            one = vec.transform_sparse([doc])
            alone = CSRMatrix.from_rows([row], vec.n_features).normalized_rows()
            assert one.data.tobytes() == alone.data.tobytes()
            np.testing.assert_array_equal(one.indices, alone.indices)

    def test_logistic_predictions_identical(self, features):
        dense, sparse, targets = features
        dense_model = LogisticRegression(max_iter=100).fit(dense, targets)
        sparse_model = LogisticRegression(max_iter=100).fit(sparse, targets)
        np.testing.assert_array_equal(
            dense_model.predict(dense), sparse_model.predict(sparse)
        )
        np.testing.assert_allclose(
            dense_model.predict_proba(dense),
            sparse_model.predict_proba(sparse),
            atol=1e-8,
        )

    def test_svm_predictions_identical(self, features):
        dense, sparse, targets = features
        dense_model = LinearSVM(epochs=5, seed=0).fit(dense, targets)
        sparse_model = LinearSVM(epochs=5, seed=0).fit(sparse, targets)
        np.testing.assert_array_equal(
            dense_model.predict(dense), sparse_model.predict(sparse)
        )

    def test_naive_bayes_predictions_identical(self, features):
        dense, sparse, targets = features
        dense_model = GaussianNaiveBayes().fit(dense, targets)
        sparse_model = GaussianNaiveBayes().fit(sparse, targets)
        np.testing.assert_array_equal(
            dense_model.predict(dense), sparse_model.predict(sparse)
        )
        np.testing.assert_allclose(
            dense_model.predict_proba(dense),
            sparse_model.predict_proba(sparse),
            atol=1e-8,
        )

    def test_one_vs_rest_accepts_sparse(self, features):
        dense, sparse, targets = features
        label_sets = [{int(t)} for t in targets]
        dense_clf = OneVsRestClassifier(list(range(6)), max_iter=50).fit(
            dense, label_sets
        )
        sparse_clf = OneVsRestClassifier(list(range(6)), max_iter=50).fit(
            sparse, label_sets
        )
        assert dense_clf.predict(dense) == sparse_clf.predict(sparse)

    def test_standard_scaler_sparse_stats_match(self, features):
        dense, sparse, _ = features
        dense_scaler = StandardScaler().fit(dense)
        sparse_scaler = StandardScaler().fit(sparse)
        np.testing.assert_allclose(
            dense_scaler.mean_, sparse_scaler.mean_, atol=1e-12
        )
        np.testing.assert_allclose(
            dense_scaler.scale_, sparse_scaler.scale_, atol=1e-9
        )
        scaled = StandardScaler(with_mean=False).fit(sparse).transform(sparse)
        assert is_sparse(scaled)


class TestTokenCache:
    def test_fit_transform_tokenises_once(self, monkeypatch):
        vectorizer = TfidfVectorizer()
        calls = []
        original = TfidfVectorizer._analyze

        def counting_analyze(self, text):
            calls.append(text)
            return original(self, text)

        monkeypatch.setattr(TfidfVectorizer, "_analyze", counting_analyze)
        docs = ["one two three", "two three four", "three four five"]
        vectorizer.fit_transform(docs)
        assert len(calls) == len(docs)  # fit + transform share the cache
        vectorizer.transform(docs)
        assert len(calls) == len(docs)  # still cached

    def test_cache_does_not_change_results(self):
        docs = ["a b c", "b c d", "c d e"]
        warm = TfidfVectorizer()
        warm_matrix = warm.fit_transform(docs)
        cold = TfidfVectorizer()
        cold.fit(docs)
        cold._count_cache.clear()  # simulate unseen documents
        np.testing.assert_allclose(cold.transform(docs), warm_matrix)


class TestParallelRunner:
    """run_experiment results must be order- and jobs-independent."""

    CHEAP = ["E1", "E5", "E6", "E7"]

    def test_results_order_independent_under_jobs_4(self):
        from repro.experiments.runner import run_many

        serial = run_many(self.CHEAP, jobs=1)
        parallel = run_many(self.CHEAP, jobs=4)
        assert [r.experiment_id for r in parallel] == self.CHEAP
        assert [r.report for r in parallel] == [r.report for r in serial]
        reversed_parallel = run_many(self.CHEAP[::-1], jobs=4)
        assert {r.experiment_id: r.report for r in reversed_parallel} == {
            r.experiment_id: r.report for r in serial
        }

    def test_unknown_experiment_rejected_before_running(self):
        from repro.experiments.runner import run_many

        with pytest.raises(KeyError):
            run_many(["E1", "E42"], jobs=4)

    def test_invalid_jobs_rejected(self):
        from repro.experiments.runner import run_many

        with pytest.raises(ValueError):
            run_many(["E1"], jobs=0)

    def test_cli_accepts_jobs_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "E1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "--jobs 2" in out


class TestTable4FoldParallelism:
    def test_traditional_scores_identical_across_jobs(self, small_dataset):
        from repro.experiments.protocol import REDUCED
        from repro.experiments.table4 import run_table4

        serial = run_table4(
            small_dataset, protocol=REDUCED, baselines=["Gaussian NB"], jobs=1
        )
        threaded = run_table4(
            small_dataset, protocol=REDUCED, baselines=["Gaussian NB"], jobs=4
        )
        assert (
            serial.scores["Gaussian NB"].fold_accuracies
            == threaded.scores["Gaussian NB"].fold_accuracies
        )
        assert serial.accuracy_of("Gaussian NB") == threaded.accuracy_of(
            "Gaussian NB"
        )

"""Classic ML substrate: estimators, metrics, model selection.

The estimators accept either dense numpy features or the CSR matrices
produced by ``TfidfVectorizer(sparse_output=True)``
(:class:`repro.sparse.CSRMatrix`); both paths produce identical
predictions.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ml.logistic": (
            "LogisticRegression",
            "softmax",
        ),
        "repro.ml.metrics": (
            "ClassificationReport",
            "ClassMetrics",
            "accuracy",
            "classification_report",
            "confusion_matrix",
            "precision_recall_f1",
        ),
        "repro.ml.model_selection": (
            "KFold",
            "StratifiedKFold",
            "cross_validate",
            "train_test_split",
        ),
        "repro.ml.multilabel": (
            "MultiLabelMetrics",
            "OneVsRestClassifier",
            "multilabel_metrics",
        ),
        "repro.ml.naive_bayes": (
            "GaussianNaiveBayes",
        ),
        "repro.ml.preprocessing": (
            "LabelEncoder",
            "StandardScaler",
        ),
        "repro.ml.svm": (
            "LinearSVM",
        ),
    },
)

__all__ = [
    "ClassMetrics",
    "ClassificationReport",
    "GaussianNaiveBayes",
    "KFold",
    "LabelEncoder",
    "LinearSVM",
    "LogisticRegression",
    "MultiLabelMetrics",
    "OneVsRestClassifier",
    "StandardScaler",
    "StratifiedKFold",
    "accuracy",
    "classification_report",
    "confusion_matrix",
    "cross_validate",
    "multilabel_metrics",
    "precision_recall_f1",
    "softmax",
    "train_test_split",
]

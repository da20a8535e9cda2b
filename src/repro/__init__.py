"""Holistix reproduction: wellness-dimension analysis of mental-health narratives.

Reproduces "Holistix: A Dataset for Holistic Wellness Dimensions Analysis
in Mental Health Narratives" (ICDE 2025): the dataset (synthesised to the
published statistics), the annotation framework, nine classification
baselines, and the LIME explainability study.

Quickstart::

    from repro import HolistixDataset, WellnessClassifier

    dataset = HolistixDataset.build()
    split = dataset.fixed_split()
    clf = WellnessClassifier("LR").fit(split.train)
    print(clf.predict(["I feel exhausted and cannot sleep properly."]))
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.dataset": ("HolistixDataset",),
        "repro.core.instance": ("AnnotatedInstance", "Post", "Span"),
        "repro.core.labels": ("DIMENSIONS", "WellnessDimension"),
        "repro.core.pipeline": ("WellnessClassifier",),
        "repro.engine.engine": ("PredictionEngine",),
        "repro.engine.server": ("InferenceServer",),
        "repro.serving.client": ("ServingClient",),
        "repro.serving.gateway": ("ServingGateway",),
        "repro.sparse": ("CSRMatrix",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AnnotatedInstance",
    "CSRMatrix",
    "DIMENSIONS",
    "HolistixDataset",
    "InferenceServer",
    "Post",
    "PredictionEngine",
    "ServingClient",
    "ServingGateway",
    "Span",
    "WellnessClassifier",
    "WellnessDimension",
    "__version__",
]

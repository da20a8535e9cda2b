"""Core public API: labels, instances, dataset, classifier, profiling."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.dataset": ("DatasetStatistics", "FixedSplit", "HolistixDataset"),
        "repro.core.instance": ("AnnotatedInstance", "Post", "Span"),
        "repro.core.labels": (
            "DIMENSIONS",
            "INDICATORS",
            "DimensionIndicator",
            "WellnessDimension",
            "dimension_from_code",
        ),
        "repro.core.interactions": (
            "InteractionReport",
            "analyze_interactions",
            "build_interaction_graph",
        ),
        "repro.core.pipeline": (
            "TRADITIONAL_BASELINES",
            "TRANSFORMER_BASELINES",
            "WellnessClassifier",
        ),
        "repro.core.profiles": (
            "TriageDecision",
            "WellnessProfile",
            "build_profile",
            "triage",
        ),
    },
)

__all__ = [
    "AnnotatedInstance",
    "DIMENSIONS",
    "DatasetStatistics",
    "DimensionIndicator",
    "FixedSplit",
    "HolistixDataset",
    "INDICATORS",
    "InteractionReport",
    "Post",
    "Span",
    "TRADITIONAL_BASELINES",
    "TRANSFORMER_BASELINES",
    "TriageDecision",
    "WellnessClassifier",
    "WellnessProfile",
    "analyze_interactions",
    "build_interaction_graph",
    "build_profile",
    "dimension_from_code",
    "triage",
]

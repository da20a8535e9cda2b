"""Sanity tests on documentation, packaging and public API surface."""

import importlib
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentation:
    def test_required_files_exist(self):
        for name in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "pyproject.toml",
            "docs/ARCHITECTURE.md",
            "docs/BENCHMARKING.md",
            "docs/SERVING.md",
        ):
            assert (REPO_ROOT / name).is_file(), name

    def test_design_covers_every_experiment(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for experiment_id in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"):
            assert experiment_id in design

    def test_experiments_md_records_paper_numbers(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "37082" in text      # Table II
        assert "75.92" in text      # kappa
        assert "0.74" in text       # MentalBERT paper accuracy

    def test_readme_quickstart_imports_work(self):
        # The classes the README's quickstart uses must exist at the
        # documented paths.
        from repro import HolistixDataset, WellnessClassifier  # noqa: F401

    def test_architecture_doc_covers_every_package(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for package in (
            "repro.corpus",
            "repro.annotation",
            "repro.core",
            "repro.text",
            "repro.sparse",
            "repro.ml",
            "repro.nn",
            "repro.models",
            "repro.engine",
            "repro.serving",
            "repro.explain",
            "repro.experiments",
        ):
            assert package in text, package
        assert "prediction" in text.lower()  # the walkthrough section

    def test_architecture_doc_linked_from_readme_and_design(self):
        for name in ("README.md", "DESIGN.md"):
            text = (REPO_ROOT / name).read_text(encoding="utf-8")
            assert "docs/ARCHITECTURE.md" in text, name

    def test_serving_doc_covers_wire_protocol(self):
        text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
        for needle in (
            "/v1/predict",
            "/v1/predict_batch",
            "/healthz",
            "/metrics",
            "/v1/models",
            "429",
            "503",
            "holistix-serve",
            "curl",
            "Retry-After",
            "holistix_server_requests_total",
        ):
            assert needle in text, needle

    def test_serving_doc_linked_from_readme_and_architecture(self):
        for name in ("README.md", "docs/ARCHITECTURE.md"):
            text = (REPO_ROOT / name).read_text(encoding="utf-8")
            assert "SERVING.md" in text, name

    def test_console_scripts_declared_and_resolve(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'holistix-experiments = "repro.experiments.runner:main"' in pyproject
        assert 'holistix-serve = "repro.serving.cli:main"' in pyproject
        assert 'holistix-loadgen = "repro.loadgen.cli:main"' in pyproject
        from repro.experiments.runner import main as experiments_main
        from repro.loadgen.cli import main as loadgen_main
        from repro.serving.cli import main as serve_main

        assert callable(experiments_main) and callable(serve_main)
        assert callable(loadgen_main)

    def test_benchmarking_doc_covers_harness(self):
        text = (REPO_ROOT / "docs" / "BENCHMARKING.md").read_text(encoding="utf-8")
        for needle in (
            "benchmarks.harness",
            "BENCH_",
            "--quick",
            "--check",
            "git_sha",
            "timings",
            "metrics",
        ):
            assert needle in text, needle
        from benchmarks.harness import SCENARIOS

        for scenario in SCENARIOS:
            assert scenario in text, scenario

    def test_experiments_md_has_performance_section(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "## Performance" in text

    def test_examples_exist_and_have_mains(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            source = path.read_text(encoding="utf-8")
            assert '__main__' in source, path.name
            assert source.startswith('"""'), f"{path.name} missing docstring"


class TestPublicApi:
    PACKAGES = [
        "repro",
        "repro.core",
        "repro.corpus",
        "repro.annotation",
        "repro.sparse",
        "repro.text",
        "repro.ml",
        "repro.nn",
        "repro.models",
        "repro.engine",
        "repro.serving",
        "repro.explain",
        "repro.experiments",
    ]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_docstrings(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, package

    def test_every_public_module_has_docstring(self):
        src = REPO_ROOT / "src" / "repro"
        for path in src.rglob("*.py"):
            source = path.read_text(encoding="utf-8")
            if path.name == "__init__.py" and not source.strip():
                continue
            assert source.lstrip().startswith('"""'), path

    def test_version_exposed(self):
        import repro

        assert repro.__version__

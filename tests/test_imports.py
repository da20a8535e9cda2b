"""Import-graph contracts.

* **The serve path imports only what it uses.**  ``holistix-serve`` with
  thread workers never loads the corpus generator, the annotation
  simulator, LIME, networkx, the AST linter, the process-worker stack or
  the HTTP client, and an LR-only start loads none of the autograd
  layers, the transformer models and their trainer, the other classical
  estimators, the metrics, the dataset builder or shared memory;
  start-up time and resident memory follow the module count.  Checked
  in a fresh interpreter, since this test process has long since
  imported all of them.
* **Re-exports resolve to their definitions.**  Every name in a
  package's ``__all__`` is the object its defining module holds, even
  after every submodule has been imported: a lazily re-exported name
  that matched a submodule would silently become that module.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import WellnessClassifier

SRC = Path(__file__).resolve().parent.parent / "src"

SERVE_PATH_EXCLUDES = (
    "networkx",
    "repro.corpus",
    "repro.annotation",
    "repro.explain",
    "repro.analysis.linter",
    "repro.analysis.rules",
    "repro.engine.procserver",
    "repro.serving.client",
)

# Everything an LR checkpoint does not use, on top of the above.
LR_PATH_EXCLUDES = (
    "multiprocessing.shared_memory",
    "repro.core.dataset",
    "repro.ml.metrics",
    "repro.ml.model_selection",
    "repro.ml.naive_bayes",
    "repro.ml.svm",
    "repro.models",
    "repro.models.trainer",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.nn.tensor",
    "secrets",
)

REEXPORTING_PACKAGES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.ml",
    "repro.nn",
    "repro.serving",
    "repro.text",
    "repro.models",
    "repro.corpus",
    "repro.explain",
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory, small_dataset) -> list[Path]:
    root = tmp_path_factory.mktemp("serve-ckpts")
    paths = []
    for name, classifier in (
        ("lr", WellnessClassifier("LR")),
        ("distilbert", WellnessClassifier("DistilBERT", fast=True)),
    ):
        paths.append(classifier.fit(small_dataset.instances).save(root / name))
    return paths


def loaded_after_building_entries(checkpoints: list[Path]) -> set[str]:
    """``sys.modules`` of a fresh interpreter that built one entry per checkpoint."""
    script = textwrap.dedent(
        """
        import sys
        from pathlib import Path

        from repro.serving import cli

        args = cli.build_parser().parse_args(["--checkpoint", sys.argv[1]])
        for checkpoint in sys.argv[1:]:
            cli._build_entry_server(args, Path(checkpoint))
        print("\\n".join(sys.modules))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, checkpoints)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "repro.serving.gateway" in loaded  # the script really ran
    return loaded


class TestServePathImports:
    def test_thread_worker_entries_load_no_offline_modules(self, checkpoints):
        loaded = loaded_after_building_entries(checkpoints)
        assert "repro.models.classifier" in loaded  # ... through both entries
        assert sorted(loaded.intersection(SERVE_PATH_EXCLUDES)) == []

    def test_lr_entry_loads_no_training_or_transformer_modules(self, checkpoints):
        loaded = loaded_after_building_entries(checkpoints[:1])
        assert "repro.ml.logistic" in loaded  # the LR entry really loaded
        excluded = SERVE_PATH_EXCLUDES + LR_PATH_EXCLUDES
        assert sorted(loaded.intersection(excluded)) == []


def _import_every_module() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class TestReExportIntegrity:
    @pytest.mark.parametrize("package_name", REEXPORTING_PACKAGES)
    def test_all_names_resolve_to_their_definitions(self, package_name):
        _import_every_module()
        package = sys.modules[package_name]
        prefix = package_name + "."
        leaves = [
            module
            for name, module in sys.modules.items()
            if name.startswith(prefix) and not hasattr(module, "__path__")
        ]
        listed = set(dir(package))
        for name in package.__all__:
            value = getattr(package, name)
            assert not isinstance(value, types.ModuleType), (package_name, name)
            assert name in listed, (package_name, name)
            if name.startswith("__"):
                continue  # defined by the package itself
            owners = [m for m in leaves if name in getattr(m, "__all__", ())]
            assert owners, f"no module under {package_name} defines {name}"
            for owner in owners:
                assert getattr(owner, name) is value, (owner.__name__, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= namespace.keys()

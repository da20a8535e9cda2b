"""Build the benchmark's models from the source tree under test.

    python3 perfbench/build.py OUT_DIR

writes, untimed:

* ``OUT_DIR/lr`` — LR checkpoint fitted on the paper's fixed train split;
* ``OUT_DIR/distilbert`` — DistilBERT checkpoint, same split;
* ``OUT_DIR/pretrain`` — the pretraining cache (``REPRO_PRETRAIN_CACHE``)
  with the checkpoint Table IV's DistilBERT folds start from, warmed by
  one untimed ``run_table4`` so the traced cross-validation measures
  fine-tuning, not pretraining.

:func:`ensure_built` keys ``OUT_DIR`` by a digest of ``src/`` and of this
file, so models and caches are never shared between two source trees.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
CV_BASELINES = ("LR", "Linear SVM", "Gaussian NB", "DistilBERT")


def source_digest() -> str:
    digest = hashlib.sha256()
    files = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def child_env(build: Path) -> dict[str, str]:
    """Environment of every process running program code.

    One BLAS thread: the serial Table IV run keeps fold pool x BLAS
    threads within the cores, and idle BLAS threads do not spin on the
    serving CPU the benchmark charges per text.
    """
    return dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_PRETRAIN_CACHE=str(build / "pretrain"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def ensure_built() -> Path:
    """The build directory for this source tree, building it if missing."""
    out = BUILD_ROOT / source_digest()[:24]
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not out.is_dir():
            tmp = out.with_name(out.name + ".tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), str(tmp)],
                env=child_env(tmp),
                cwd=ROOT,
                check=True,
                stdout=sys.stderr,
            )
            # Cache entries are keyed by content, not by path, so the
            # finished tree can move into place.
            tmp.rename(out)
    return out


def build(out: Path) -> None:
    from repro import HolistixDataset, WellnessClassifier
    from repro.experiments.protocol import REDUCED
    from repro.experiments.table4 import run_table4

    dataset = HolistixDataset.build()
    train = dataset.fixed_split().train
    WellnessClassifier("LR").fit(train).save(out / "lr")
    WellnessClassifier("DistilBERT").fit(train).save(out / "distilbert")
    run_table4(dataset, protocol=REDUCED, baselines=["DistilBERT"])


if __name__ == "__main__":
    build(Path(sys.argv[1]))

"""One traced Table IV cross-validation, for the training layers.

    python3 perfbench/cv.py --seed N --trace-out SPANS.json

Builds the dataset and runs ``run_table4`` under the REDUCED protocol
(3 folds, fold shuffle seeded by ``--seed``), serially, for LR, Linear
SVM, Gaussian NB and DistilBERT, with the training probes installed.
Writes the spans to ``SPANS.json`` and prints one JSON object: the
cross-validation's wall time, per-fold and mean accuracies, and a digest
of the inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from build import CV_BASELINES
from probes import install_training_probes
from spans import Recorder


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    from repro.core.dataset import HolistixDataset
    from repro.experiments.protocol import REDUCED
    from repro.experiments.table4 import run_table4

    protocol = dataclasses.replace(REDUCED, seed=args.seed)
    dataset = HolistixDataset.build()
    folds = dataset.stratified_folds(protocol.n_folds, seed=protocol.seed)
    digest = hashlib.sha256(
        json.dumps([dataset.texts, [d.code for d in dataset.labels], folds]).encode()
    ).hexdigest()

    recorder = Recorder()
    install_training_probes(recorder)
    started = time.perf_counter()
    result = run_table4(dataset, protocol=protocol, baselines=CV_BASELINES, jobs=1)
    wall_s = time.perf_counter() - started
    recorder.dump(args.trace_out)
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "fold_accuracies": {
                    name: scores.fold_accuracies for name, scores in result.scores.items()
                },
                "accuracy": {name: scores.accuracy for name, scores in result.scores.items()},
                "digest": digest,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The repository's benchmark: real models through the real serving stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds an LR and a
DistilBERT checkpoint and warms the pretraining cache from this source
tree (untimed, cached under ``.bench_build/perfbench/<source digest>``).

Workloads (inputs are made from ``--seed``):

* ``online_lr`` — ``holistix-serve`` over the LR checkpoint with its
  default thread workers.  Single ``/v1/predict`` requests of distinct
  texts, open loop, seeded Poisson arrivals at 60 req/s over 6
  persistent HTTP/1.1 connections; latency runs from each request's due
  time.  Needs ``--seconds`` >= 17 (34 with ``--trace 1``) for the
  1000 samples a p99 needs.
* ``online_distilbert`` — the same open loop against the DistilBERT
  checkpoint: the tokenizer and the transformer forward pass take the
  place of TF-IDF and LR in every request.

Every process running program code gets one BLAS thread.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s`` — median of 11 spawn-to-ready starts of the server, 5
  before and 6 after the measured pass;
* ``p50_ms`` / ``p99_ms`` — per request, from its due time; a failed
  request counts as infinite;
* ``cpu_ms_per_text`` — user+system CPU of the server process, from
  ``/proc/<pid>/stat``, per text served;
* ``rss_mb`` — VmHWM of the server process.

``attempted``/``failed`` count texts: a non-2xx answer, a transport
error or a label that differs from the same checkpoint scored
in-process fails.  ``correct`` also needs the client's count of
answered texts to equal the server's ``holistix_requests_total``.

``--trace 1`` makes two passes of half of ``--seconds`` each on the same
inputs, one untraced and one with span probes around the program's
public functions (``probes.py``); the seed's parity picks which runs
first.  It prints the per-layer metrics, ``trace.overhead_pct`` comparing
the two passes' p50, and flags the run in its notes when the probes
changed the server's micro-batches per text by more than 5%.  The
traced run of ``online_lr`` also traces one Table IV cross-validation
(``cv.py``:
REDUCED protocol, fold shuffle seeded, serial) for the training layers,
and is correct only if every fold is finite and DistilBERT > LR >
Gaussian NB.  The traced run of ``online_distilbert`` also traces 300
``ServingClient.predict_batch`` calls of 64 texts, one at a time, for
the layers only batch calls exercise (the shipped client, a connection
per call, full micro-batches, padding); their labels are checked too.
A per-layer metric of a layer the run does not exercise reads 0.

A measured pass whose pacer lateness makes up more than 15% of its p50
or 10% of its p99 is refused and measured again on a fresh server.  A
run whose third pass lags too, or that has too few samples for a
reported percentile, exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread here too: the in-process output check must run
    # the same kernels as the single-threaded server.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from build import ensure_built
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, Context, InvalidRun

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    build = ensure_built()
    with tempfile.TemporaryDirectory(dir=build.parent, prefix="run-") as scratch:
        log_path = Path(scratch) / "children.log"
        with open(log_path, "w") as log:
            ctx = Context(build, args.seed, args.seconds, bool(args.trace), log, Path(scratch))
            try:
                outcome = WORKLOADS[args.workload](ctx)
            except InvalidRun as error:
                print(f"perfbench: invalid run: {error}", file=sys.stderr)
                return 3
            except Exception:
                traceback.print_exc()
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                return 1

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for line in outcome.notes:
        print(f"# {line}")
    print(f"# inputs {outcome.digest}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

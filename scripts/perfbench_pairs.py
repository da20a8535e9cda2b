"""Paired parent-versus-change comparison with perfbench.

Run from anywhere, with two checkouts (for example one made with
``git archive`` of the parent commit, and the working tree)::

    python scripts/perfbench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload online_lr --seeds 1-10 [--seconds 40]

For every seed it runs ``python3 perfbench/run.py --workload W --seed N
--seconds S`` once in each tree, one after the other.  Which tree runs
first alternates by seed (odd seeds run the parent first), so a slow
spell of the host does not always land on the same side.  It then
prints, for every end-to-end metric:

* each side's median and quartiles;
* how many pairs the change won (ties count for neither side);
* the ratio of the medians, change over parent;
* a verdict, the first of these that applies:

  - ``gain`` when the change won at least 9 in 10 pairs and the medians
    differ by more than the parent's interquartile range;
  - ``worse`` when the change's median is worse than the parent's by
    more than the metric's ``BENCHMARK.json`` bound;
  - ``unresolved`` when either side's interquartile range, relative to
    that side's median, is wider than the bound, unless every change
    run beats every parent run: the runs spread too widely to tell;
  - ``holds`` otherwise.

It prints each side's failed and attempted operations over all its
runs, lists every run's metrics, ``correct``, ``failed`` and pacer
note, and exits 1 if any run failed, exited non-zero or was not
correct.  Beside each pacer note it prints the host's mean CPU steal
over that run, read from ``/proc/stat`` (read only) before and after
it: a run's p50 tracks the steal it met, so the column tells a noisy
run from a real change.  Steal does not enter the verdicts.

Stdlib only: it shells out to perfbench and imports neither perfbench
nor the program.  The first run in each tree builds that tree's
checkpoints (see ``perfbench/build.py``), untimed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

PERFBENCH = ("python3", "perfbench/run.py")
PROC_STAT = Path("/proc/stat")
SIDES = ("parent", "change")
# The share of pairs the change must win for a gain, and the default
# direction and bound of a metric BENCHMARK.json does not list.
WIN_SHARE = 0.9
DEFAULT_BOUND = 0.25


@dataclass
class Run:
    """One perfbench run: its result line and its ``#`` notes."""

    seed: int
    side: str
    first: bool
    correct: bool = False
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    error: str = ""
    steal: float | None = None  # the host's mean CPU steal share

    @property
    def pacer_note(self) -> str:
        return next((n for n in self.notes if "pacer lateness" in n), "")

    @property
    def ok(self) -> bool:
        return not self.error and self.correct and self.failed == 0


def parse_seeds(spec: str) -> list[int]:
    """``"1-10"``, ``"3,5,7"`` or ``"1-4,11"`` as a list of seeds."""
    seeds: list[int] = []
    for part in spec.split(","):
        low, dash, high = part.strip().partition("-")
        if dash:
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(low))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def parse_output(run: Run, stdout: str) -> Run:
    """Fill ``run`` from perfbench's stdout: notes, then one JSON line."""
    result = None
    for line in stdout.splitlines():
        if line.startswith("# "):
            run.notes.append(line[2:])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        run.error = "no result line"
        return run
    run.correct = bool(result["correct"])
    run.attempted = int(result["attempted"])
    run.failed = int(result["failed"])
    run.metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return run


def cpu_times(stat: str) -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` text, as tick counts."""
    for line in stat.splitlines():
        if line.startswith("cpu "):
            return [int(ticks) for ticks in line.split()[1:]]
    raise ValueError("no aggregate cpu line")


def read_cpu_times() -> list[int] | None:
    """The host's CPU tick counts now; None where ``/proc/stat`` is unreadable."""
    try:
        return cpu_times(PROC_STAT.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU time stolen by the hypervisor between two readings.

    The first eight fields are user, nice, system, idle, iowait, irq,
    softirq and steal; guest time is already counted in user and nice.
    """
    deltas = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(deltas)
    return deltas[7] / total if len(deltas) == 8 and total > 0 else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    q1, median, q3 = quartiles(values)
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")


def summarize(runs: list[Run], spec: dict[str, dict] | None = None) -> list[str]:
    """The report, one line per list item.

    ``spec`` maps a metric name to its ``BENCHMARK.json`` entry
    (``better`` and ``bound``); unlisted metrics are lower-is-better
    with bound ``DEFAULT_BOUND``.  Only seeds with a usable run on both
    sides form pairs.
    """
    spec = spec or {}
    by_seed: dict[int, dict[str, Run]] = {}
    for run in runs:
        by_seed.setdefault(run.seed, {})[run.side] = run
    pairs = [
        (sides["parent"], sides["change"])
        for _, sides in sorted(by_seed.items())
        if all(s in sides and not sides[s].error for s in SIDES)
    ]
    names = list(pairs[0][1].metrics) if pairs else []
    lines = [
        f"{len(pairs)} pairs; median [Q1-Q3]; wins = pairs the change won",
        f"{'metric':<18}{'parent':>28}{'change':>28}{'wins':>8}{'ratio':>8}  verdict",
    ]
    for name in names:
        lower = spec.get(name, {}).get("better", "lower") == "lower"
        bound = spec.get(name, {}).get("bound", DEFAULT_BOUND)
        parent = [p.metrics[name] for p, _ in pairs]
        change = [c.metrics[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gained = (pmed - cmed) if lower else (cmed - pmed)
        spread = max(relative_spread(parent), relative_spread(change))
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        if wins >= WIN_SHARE * len(pairs) and gained > pq3 - pq1:
            verdict = "gain"
        elif pmed and -gained / pmed > bound:
            verdict = f"worse (bound {bound:.0%})"
        elif spread > bound and not beats_all:
            verdict = f"unresolved (spread {spread:.0%} > bound {bound:.0%})"
        else:
            verdict = "holds"
        ratio = f"{cmed / pmed:.3f}" if pmed else "-"
        lines.append(
            f"{name:<18}"
            f"{f'{pmed:.4g} [{pq1:.4g}-{pq3:.4g}]':>28}"
            f"{f'{cmed:.4g} [{cq1:.4g}-{cq3:.4g}]':>28}"
            f"{f'{wins}/{len(pairs)}':>8}{ratio:>8}  {verdict}"
        )
    lines.append("")
    totals = [
        f"{side} {sum(r.failed for r in runs if r.side == side)}"
        f"/{sum(r.attempted for r in runs if r.side == side)}"
        for side in SIDES
    ]
    lines.append(f"failed/attempted over all runs: {', '.join(totals)}")
    lines.append("")
    lines.append("runs:")
    for run in sorted(runs, key=lambda r: (r.seed, SIDES.index(r.side))):
        lines.append(describe(run))
    return lines


def describe(run: Run) -> str:
    """One run as one line: seed, side, order, outcome, metrics, pacer."""
    values = " ".join(f"{k}={v:.4g}" for k, v in run.metrics.items())
    status = run.error or f"correct={run.correct} failed={run.failed}/{run.attempted}"
    order = "first " if run.first else "second"
    steal = "steal -" if run.steal is None else f"steal {run.steal:.1%}"
    return (
        f"seed {run.seed:>3} {run.side:<6} {order} {status}  {values}  "
        f"{run.pacer_note}  {steal}"
    )


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """perfbench's stdout for one run in ``tree``; raises on a bad exit."""
    command = [*PERFBENCH, "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds)]
    done = subprocess.run(
        command,
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=max(600.0, 10 * seconds),
    )
    if done.returncode != 0:
        tail = (done.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise RuntimeError(f"exit {done.returncode}: {tail}")
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "11,12"')
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as error:
        parser.error(str(error))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / PERFBENCH[1]).is_file():
            parser.error(f"{side} tree {tree} has no {PERFBENCH[1]}")
    spec_path = trees["change"] / "BENCHMARK.json"
    spec = {}
    if spec_path.is_file():
        declared = json.loads(spec_path.read_text(encoding="utf-8"))
        spec = {m["name"]: m for m in declared.get("end_to_end", [])}

    runs: list[Run] = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            run = Run(seed, side, first=position == 0)
            before = read_cpu_times()
            try:
                stdout = run_perfbench(trees[side], args.workload, seed, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                run.error = str(error)
            else:
                parse_output(run, stdout)
            after = read_cpu_times()
            if before is not None and after is not None:
                run.steal = steal_share(before, after)
            runs.append(run)
            print(describe(run), file=sys.stderr, flush=True)

    print(f"perfbench {args.workload}, --seconds {args.seconds:g}, seeds {args.seeds}")
    print("\n".join(summarize(runs, spec)))
    return 0 if all(run.ok for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

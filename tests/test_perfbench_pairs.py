"""``scripts/perfbench_pairs.py``: the paired parent-versus-change report.

The summary is fed canned perfbench output; ``main`` runs against two
stand-in trees whose ``perfbench/run.py`` prints canned lines, so no
model is built or served.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    path = REPO_ROOT / "scripts" / "perfbench_pairs.py"
    spec = importlib.util.spec_from_file_location("perfbench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


pairs = _load_script()

SPEC = {
    "p50_ms": {"better": "lower", "bound": 0.25},
    "p99_ms": {"better": "lower", "bound": 0.25},
    "rss_mb": {"better": "lower", "bound": 0.05},
}


def perfbench_output(p50: float, p99: float, rss: float, *, correct=True, failed=0) -> str:
    """What ``perfbench/run.py`` prints for one untraced run."""
    metrics = {
        "p50_ms": {"value": p50, "unit": "ms"},
        "p99_ms": {"value": p99, "unit": "ms"},
        "rss_mb": {"value": rss, "unit": "MB"},
    }
    result = {"correct": correct, "attempted": 2400, "failed": failed, "metrics": metrics}
    return (
        "# pacer lateness 2.5% of p50, 0.4% of p99\n"
        "# inputs sha256:0123abcd\n" + json.dumps(result) + "\n"
    )


def canned_runs(n: int = 10):
    runs = []
    for seed in range(1, n + 1):
        jitter = 0.01 * seed
        for side, p50, rss in (("parent", 4.0, 60.0), ("change", 2.0, 66.0)):
            run = pairs.Run(seed, side, first=(side == "parent") == bool(seed % 2))
            # p99 alternates which side is lower: no gain, no regression.
            p99 = 47.0 + (jitter if (side == "parent") == bool(seed % 2) else -jitter)
            runs.append(pairs.parse_output(run, perfbench_output(p50 + jitter, p99, rss)))
    return runs


def paired_runs(columns: dict[str, tuple[list[float], list[float]]]):
    """One run per side and seed; seed ``i + 1`` reads each metric's ``i``-th values."""
    runs = []
    for i in range(len(next(iter(columns.values()))[0])):
        for index, side in enumerate(pairs.SIDES):
            run = pairs.Run(i + 1, side, first=index == i % 2, correct=True)
            run.metrics = {name: sides[index][i] for name, sides in columns.items()}
            runs.append(run)
    return runs


def metric_row(lines: list[str], name: str) -> str:
    return next(line for line in lines if line.startswith(name))


class TestSummary:
    def test_parses_notes_and_result_line(self):
        run = pairs.parse_output(pairs.Run(3, "change", True), perfbench_output(2.0, 45.0, 60.0))
        assert run.ok
        assert run.metrics == {"p50_ms": 2.0, "p99_ms": 45.0, "rss_mb": 60.0}
        assert run.pacer_note == "pacer lateness 2.5% of p50, 0.4% of p99"
        assert run.attempted == 2400

    def test_claimed_gain_held_metric_and_regression(self):
        lines = pairs.summarize(canned_runs(), SPEC)
        assert lines[0].startswith("10 pairs")
        p50 = metric_row(lines, "p50_ms")
        assert "10/10" in p50 and p50.endswith("gain")
        assert "0.5" in p50.split()[-2]  # ratio of medians, change over parent
        p99 = metric_row(lines, "p99_ms")
        assert "5/10" in p99 and not p99.endswith(("gain", ")"))
        # rss 60 -> 66 MB is 10% worse against a 5% bound.
        assert metric_row(lines, "rss_mb").endswith("worse (bound 5%)")

    def test_every_run_is_listed_with_its_outcome_and_pacer_note(self):
        runs = canned_runs(2)
        runs.append(pairs.Run(3, "parent", True, error="exit 3: invalid run"))
        lines = pairs.summarize(runs, SPEC)
        listed = lines[lines.index("runs:") + 1 :]
        assert len(listed) == 5
        assert all("pacer lateness" in line for line in listed[:4])
        assert "exit 3: invalid run" in listed[4]
        assert lines[0].startswith("2 pairs")  # a pair needs both sides

    def test_spread_wider_than_the_bound_is_unresolved_unless_separated(self):
        steady = [10.0 + 0.01 * i for i in range(10)]
        noisy = [4.0, 5.0, 6.0, 7.0, 8.0] * 2  # IQR 2 around a median of 6
        wide = [10.0, 11.0, 12.0, 13.0, 14.0, 26.0, 27.0, 28.0, 29.0, 30.0]
        lines = pairs.summarize(
            paired_runs(
                {
                    "steady": (steady, steady[::-1]),
                    "noisy": (noisy, noisy[::-1]),
                    # Every change run beats every parent run, but by less
                    # than the parent's IQR: no gain, and not unresolved.
                    "separated": (wide, [9.5] * 10),
                }
            )
        )
        assert metric_row(lines, "steady").endswith("  holds")
        assert metric_row(lines, "noisy").endswith(
            "  unresolved (spread 33% > bound 25%)"
        )
        assert metric_row(lines, "separated").endswith("10/10   0.475  holds")
        canned = pairs.summarize(canned_runs(), SPEC)
        assert metric_row(canned, "p99_ms").endswith("  holds")

    def test_failed_and_attempted_are_totalled_per_side(self):
        runs = canned_runs(2)
        runs[-1].failed = 3
        lines = pairs.summarize(runs, SPEC)
        assert "failed/attempted over all runs: parent 0/4800, change 3/4800" in lines

    def test_a_result_line_is_required(self):
        run = pairs.parse_output(pairs.Run(1, "parent", True), "Traceback ...\n")
        assert not run.ok and run.error == "no result line"

    def test_steal_share_between_two_proc_stat_snapshots(self):
        # user nice system idle iowait irq softirq steal guest guest_nice
        before = pairs.cpu_times(
            "cpu  1000 10 500 8000 20 0 30 40 700 0\n"
            "cpu0 500 5 250 4000 10 0 15 20 350 0\n"
            "intr 12345\n"
        )
        after = pairs.cpu_times(
            "cpu  1600 10 700 8900 20 0 50 240 1100 0\n"
            "cpu0 800 5 350 4450 10 0 25 120 550 0\n"
        )
        assert before[:8] == [1000, 10, 500, 8000, 20, 0, 30, 40]
        # 200 stolen ticks of 600 + 200 + 900 + 20 + 200 = 1920; the
        # 400 guest ticks are already inside user.
        assert pairs.steal_share(before, after) == pytest.approx(200 / 1920)
        assert pairs.steal_share(before, before) == 0.0
        with pytest.raises(ValueError):
            pairs.cpu_times("cpu0 1 2 3 4 5 6 7 8\n")

    def test_each_run_lists_its_steal_beside_the_pacer_note(self):
        runs = canned_runs(1)
        runs[0].steal = 0.0312
        listed = pairs.summarize(runs, SPEC)[-2:]
        assert listed[0].endswith("0.4% of p99  steal 3.1%")
        assert listed[1].endswith("0.4% of p99  steal -")  # no reading

    @pytest.mark.parametrize(
        "spec, seeds",
        [("1-10", list(range(1, 11))), ("3,5", [3, 5]), ("1-2,11", [1, 2, 11])],
    )
    def test_parse_seeds(self, spec, seeds):
        assert pairs.parse_seeds(spec) == seeds


FAKE_RUN = '''
import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
p50 = {p50}
with open("order.log", "a") as log:
    log.write(f"{{seed}}\\n")
metrics = {{name: {{"value": p50 if name == "p50_ms" else 1.0, "unit": "ms"}}
           for name in ("p50_ms", "p99_ms")}}
print("# pacer lateness 1.0% of p50, 0.1% of p99")
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": 0, "metrics": metrics}}))
'''


def fake_tree(root: Path, p50: float, correct: bool = True) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(p50=p50, correct=correct))
    return root


class TestMain:
    def test_runs_each_seed_in_both_trees_and_alternates_order(self, tmp_path, capsys):
        parent = fake_tree(tmp_path / "parent", 4.0)
        change = fake_tree(tmp_path / "change", 2.0)
        code = pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2" in metric_row(out.splitlines(), "p50_ms")
        assert "seed   1 parent first " in out and "seed   2 change first " in out
        assert (parent / "order.log").read_text().split() == ["1", "2"]

    def test_reads_host_steal_around_each_run(self, tmp_path, capsys, monkeypatch):
        parent = fake_tree(tmp_path / "parent", 4.0)
        change = fake_tree(tmp_path / "change", 2.0)
        stat = tmp_path / "stat"
        readings = iter(
            f"cpu  {100 * i} 0 0 {300 * i} 0 0 0 {steal} 0 0\n"
            for i, steal in enumerate((0, 100, 100, 100))
        )
        real_read = pairs.read_cpu_times

        def canned_read():
            stat.write_text(next(readings))
            return real_read()

        monkeypatch.setattr(pairs, "PROC_STAT", stat)
        monkeypatch.setattr(pairs, "read_cpu_times", canned_read)
        pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1"])
        out = capsys.readouterr().out
        # Parent runs first: 100 of 500 ticks stolen, then none of 400.
        assert "seed   1 parent first " in out and "steal 20.0%" in out
        assert "steal 0.0%" in out

    def test_exits_one_when_a_run_is_not_correct(self, tmp_path, capsys):
        parent = fake_tree(tmp_path / "parent", 4.0)
        change = fake_tree(tmp_path / "change", 2.0, correct=False)
        code = pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1"])
        assert code == 1
        assert "correct=False" in capsys.readouterr().out

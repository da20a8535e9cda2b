"""Tests for ``repro.analysis``: the HX lint rules and the lock-order checker.

Three layers:

* every HX rule against its must-flag / must-pass fixture pair in
  ``tests/fixtures/analysis/``, plus noqa suppression and CLI behaviour;
* the ``OrderedLock`` dynamic checker — a deliberately-deadlocking
  two-lock ordering is caught, conditions integrate, ``require_held``
  enforces the ``*_locked`` contract;
* the real tree: ``holistix-lint src/ scripts/ benchmarks/`` is clean, and the real
  ``ProcessInferenceServer`` start/submit/drain/stop path records a
  cycle-free lock graph under ``REPRO_LOCK_CHECK=1``.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.lockcheck import (
    LockOrderError,
    LockOrderRegistry,
    OrderedLock,
    create_lock,
    registry as global_registry,
    require_held,
)
from repro.analysis.linter import check_file, check_source, collect_files, run
from repro.analysis.rules import ALL_RULES, rule_by_id
from repro.engine.engine import PredictionEngine
from repro.engine.procserver import ProcessInferenceServer

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

RULE_IDS = ["HX001", "HX002", "HX003", "HX004"]


# ----------------------------------------------------------------------
# Cheap picklable engine factory for the procserver integration test
# ----------------------------------------------------------------------
class _StubBackend:
    n_classes = 6

    def proba_batch(self, texts):
        import numpy as np

        return np.full((len(texts), 6), 1.0 / 6.0, dtype=np.float64)


def make_stub_engine():
    return PredictionEngine(_StubBackend(), model_id="stub", cache_size=0)


# ----------------------------------------------------------------------
# Rule fixtures
# ----------------------------------------------------------------------
class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_flag_fixture_flags(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_flag.py"
        violations = check_file(path, rules=[rule_by_id(rule_id)])
        assert violations, f"{path.name} should trigger {rule_id}"
        assert all(v.rule == rule_id for v in violations)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_pass_fixture_passes(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_pass.py"
        violations = check_file(path, rules=[rule_by_id(rule_id)])
        assert violations == [], f"{path.name} must be {rule_id}-clean"

    def test_flag_fixtures_report_expected_counts(self):
        # Pin the specific sites so a rule that silently stops matching
        # one shape fails here instead of rotting.
        expected = {"HX001": 1, "HX002": 4, "HX003": 3, "HX004": 2}
        for rule_id, count in expected.items():
            path = FIXTURES / f"{rule_id.lower()}_flag.py"
            violations = check_file(path, rules=[rule_by_id(rule_id)])
            assert len(violations) == count, (rule_id, violations)

    def test_violations_carry_location_and_render(self):
        path = FIXTURES / "hx001_flag.py"
        (violation,) = check_file(path, rules=[rule_by_id("HX001")])
        assert violation.line > 0
        rendered = violation.render()
        assert "hx001_flag.py" in rendered
        assert "HX001" in rendered


class TestPathScopedRules:
    def test_hx003_applies_under_seeded_paths(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        flagged = check_source(
            source, "src/repro/loadgen/synthetic.py", rules=[rule_by_id("HX003")]
        )
        assert len(flagged) == 1
        clean = check_source(
            source, "src/repro/serving/anything.py", rules=[rule_by_id("HX003")]
        )
        assert clean == []

    def test_hx003_from_import_alias(self):
        source = "from time import time as now\n\ndef f():\n    return now()\n"
        flagged = check_source(
            source, "src/repro/loadgen/x.py", rules=[rule_by_id("HX003")]
        )
        assert len(flagged) == 1
        assert "time.time" in flagged[0].message


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        path = FIXTURES / "hx004_flag.py"
        source = path.read_text()
        patched = source.replace(
            "threading.Thread(target=target)  # HX004",
            "threading.Thread(target=target)  # noqa: HX004",
        )
        violations = check_source(patched, str(path), rules=[rule_by_id("HX004")])
        assert len(violations) == 1  # only the un-noqa'd site remains

    def test_bare_noqa_suppresses_everything(self):
        source = "import time\nx = time.time()  # noqa\n"
        assert (
            check_source(source, "src/repro/loadgen/x.py", rules=[rule_by_id("HX003")])
            == []
        )

    def test_unrelated_code_does_not_suppress(self):
        source = "import time\nx = time.time()  # noqa: HX001\n"
        violations = check_source(
            source, "src/repro/loadgen/x.py", rules=[rule_by_id("HX003")]
        )
        assert len(violations) == 1

    def test_syntax_error_reported_not_raised(self):
        violations = check_source("def broken(:\n", "bad.py")
        assert len(violations) == 1
        assert violations[0].rule == "HX000"


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        assert lint_main([str(FIXTURES / "hx001_pass.py")]) == 0

    def test_exit_one_and_report_on_violation(self, capsys):
        code = lint_main(
            [str(FIXTURES / "hx001_flag.py"), "--select", "HX001"]
        )
        assert code == 1
        out = capsys.readouterr()
        assert "HX001" in out.out
        assert "1 violation" in out.err

    def test_github_format_annotations(self, capsys):
        code = lint_main(
            [str(FIXTURES / "hx001_flag.py"), "--select", "HX001", "--format", "github"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "line=" in out

    def test_usage_errors(self, capsys):
        assert lint_main([]) == 2
        assert lint_main(["definitely/not/a/path.py"]) == 2
        with pytest.raises(SystemExit):
            lint_main([str(FIXTURES), "--select", "HX999"])

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_docs_catalogue_lists_every_rule(self):
        text = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
        catalogue = text.split("## Rule catalogue", 1)[1].split("## Suppression", 1)[0]
        rows = re.findall(r"^\| (HX\d{3}) \|", catalogue, flags=re.M)
        sections = re.findall(r"^### (HX\d{3}) ", catalogue, flags=re.M)
        rule_ids = [rule.rule_id for rule in ALL_RULES]
        assert rows == ["HX000", *rule_ids]
        assert sections == rule_ids

    def test_collect_files_recurses_and_dedupes(self):
        files = collect_files([FIXTURES, FIXTURES / "hx001_flag.py"])
        assert files.count(FIXTURES / "hx001_flag.py") == 1
        assert len(files) >= 8


class TestRealTreeIsClean:
    def test_src_and_scripts_lint_clean(self):
        violations = run([REPO_ROOT / "src", REPO_ROOT / "scripts"])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_benchmarks_lint_clean(self):
        # The harness and its fault helpers start threads and hold
        # sockets, so they are held to the same rules.
        violations = run([REPO_ROOT / "benchmarks"])
        assert violations == [], "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# Dynamic lock-order checker
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_registry():
    return LockOrderRegistry()


class TestOrderedLock:
    def test_two_lock_inversion_is_caught(self, fresh_registry):
        """The deliberately-deadlocking two-lock ordering."""
        a = OrderedLock("fixture.a", fresh_registry)
        b = OrderedLock("fixture.b", fresh_registry)
        with a, b:
            pass
        with b, pytest.raises(LockOrderError, match="cycle"):
            a.acquire()

    def test_three_lock_transitive_cycle(self, fresh_registry):
        a = OrderedLock("t.a", fresh_registry)
        b = OrderedLock("t.b", fresh_registry)
        c = OrderedLock("t.c", fresh_registry)
        with a, b:
            pass
        with b, c:
            pass
        with c, pytest.raises(LockOrderError, match="cycle"):
            a.acquire()

    def test_consistent_order_never_raises(self, fresh_registry):
        a = OrderedLock("ok.a", fresh_registry)
        b = OrderedLock("ok.b", fresh_registry)
        for _ in range(3):
            with a, b:
                pass
        assert fresh_registry.edges() == {"ok.a": frozenset({"ok.b"})}

    def test_recursive_acquire_raises(self, fresh_registry):
        a = OrderedLock("rec.a", fresh_registry)
        with a, pytest.raises(LockOrderError, match="recursive"):
            a.acquire()

    def test_nonblocking_acquire_records_no_edge(self, fresh_registry):
        a = OrderedLock("nb.a", fresh_registry)
        b = OrderedLock("nb.b", fresh_registry)
        with a:
            assert b.acquire(blocking=False)
            b.release()
        assert fresh_registry.edges() == {}

    def test_cross_thread_orders_share_one_graph(self, fresh_registry):
        a = OrderedLock("x.a", fresh_registry)
        b = OrderedLock("x.b", fresh_registry)

        def forward():
            with a, b:
                pass

        t = threading.Thread(target=forward, daemon=False)
        t.start()
        t.join()
        with b, pytest.raises(LockOrderError):
            a.acquire()

    def test_condition_integration(self, fresh_registry):
        lock = OrderedLock("cond.lock", fresh_registry)
        cond = threading.Condition(lock)
        ready = []

        def consumer():
            with cond:
                while not ready:
                    cond.wait(timeout=5.0)

        t = threading.Thread(target=consumer, daemon=False)
        t.start()
        time.sleep(0.05)
        with cond:
            ready.append(True)
            cond.notify()
        t.join(timeout=5.0)
        assert not t.is_alive()
        # wait() released the lock: the main thread's held-stack is empty.
        assert fresh_registry.held_names() == ()

    def test_require_held(self, fresh_registry):
        lock = OrderedLock("rh.lock", fresh_registry)
        with pytest.raises(LockOrderError, match="rh.lock"):
            require_held(lock, "test path")
        with lock:
            require_held(lock, "test path")  # no raise
        require_held(threading.Lock())  # plain locks are never checked

    def test_create_lock_is_env_gated(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_CHECK", raising=False)
        assert not isinstance(create_lock("gated"), OrderedLock)
        monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
        assert isinstance(create_lock("gated"), OrderedLock)
        monkeypatch.setenv("REPRO_LOCK_CHECK", "0")
        assert not isinstance(create_lock("gated"), OrderedLock)


# ----------------------------------------------------------------------
# Real components under REPRO_LOCK_CHECK=1
# ----------------------------------------------------------------------
@pytest.fixture
def armed_lock_check(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
    global_registry.reset()
    yield global_registry
    global_registry.reset()


class TestRealLockOrders:
    def test_procserver_lifecycle_is_cycle_free(self, armed_lock_check):
        """start/submit/drain/stop of the real multi-process server.

        Any lock-order inversion inside BatchingServerBase +
        ProcessInferenceServer (mutex, stats, per-slot, proc-stats)
        raises LockOrderError and fails this test.
        """
        server = ProcessInferenceServer.from_factory(
            make_stub_engine, workers=2, max_batch_size=4
        )
        with server:
            server.wait_ready(timeout=120)
            futures = [server.submit(f"text {i}") for i in range(16)]
            for future in futures:
                future.result(timeout=30)
        edges = armed_lock_check.edges()
        assert any("server.mutex" in source for source in edges), edges


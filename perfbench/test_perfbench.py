"""Self-tests of the benchmark's own percentile, self-time and join code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import http.server
import json
import random
import threading
import time
from pathlib import Path

import pytest

import spans as sp
import workloads
from openloop import Exchange, KeepAlivePool, poisson_offsets
from stats import min_samples, percentile
from workloads import END_TO_END, PER_LAYER, InvalidRun, OnlinePass, check_batching


def span(sid, start, end, parent=None, rid=None, name="x", size=None):
    return [sid, name, start, end, parent, rid, size]


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        random.Random(0).shuffle(values)
        assert percentile(values, 99) == 990
        assert percentile(values, 50) == 500

    def test_needs_ten_samples_beyond(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000)), 99) == 989
        assert percentile(list(range(19)), 50) is None
        assert percentile(list(range(20)), 50) == 9
        assert percentile([], 50) is None

    def test_min_samples_matches_percentile(self):
        for p in (50, 90, 99):
            n = min_samples(p)
            assert percentile([1.0] * n, p) is not None
            assert percentile([1.0] * (n - 1), p) is None

    def test_infinite_failures_rank_last(self):
        values = [1.0] * 989 + [float("inf")] * 11
        assert percentile(values, 99) == float("inf")


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 1.0, 3.0, parent=1),
            span(3, 2.0, 5.0, parent=1),  # overlaps span 2
            span(4, 7.0, 8.0, parent=1),
        ]
        assert sp.self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0.0, 2.0), span(2, 1.5, 4.0, parent=1)]
        assert sp.self_times(spans)[1] == pytest.approx(1.5)

    def test_grandchildren_do_not_count_for_the_root(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 2.0, 4.0, parent=1),
            span(3, 2.5, 3.0, parent=2),
        ]
        times = sp.self_times(spans)
        assert times[1] == pytest.approx(8.0)
        assert times[2] == pytest.approx(1.5)


class TestJoins:
    def test_queue_wait_joins_admission_to_its_engine_call(self):
        admits = [span(1, 0.0, 1.0, rid=0), span(2, 0.5, 1.5, rid=1), span(3, 0, 1, rid=9)]
        calls = [span(4, 2.0, 3.0, rid=[0, None, 1]), span(5, 4.0, 5.0, rid=[1])]
        assert sp.queue_waits(admits, calls) == pytest.approx([1.0, 0.5])

    def test_transport_gap_is_round_trip_minus_handler(self):
        handlers = [span(1, 10.0, 10.01, rid=0), span(2, 11.0, 11.02, rid=5)]
        assert sp.transport_gaps({0: 0.05, 1: 1.0}, handlers) == pytest.approx([0.04])


class Box:
    def method(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return (cls, value)

    def fail(self):
        raise KeyError("boom")


class TestRecorder:
    def test_nesting_parent_and_rid_inheritance(self):
        recorder = sp.Recorder()
        outer = recorder.begin("outer", rid=7)
        inner = recorder.begin("inner")
        recorder.end(inner)
        recorder.end(outer)
        assert inner[sp.PARENT] == outer[sp.SID]
        assert inner[sp.RID] == 7
        assert [s[sp.NAME] for s in recorder.spans] == ["inner", "outer"]
        assert recorder.open_span("outer") is None

    def test_wrap_records_methods_and_classmethods(self):
        recorder = sp.Recorder()

        class Local(Box):
            pass

        recorder.wrap(Local, "method", "m", rid=lambda args: args[1], size=lambda args: 1)
        recorder.wrap(Local, "build", "b")
        assert Local().method(4) == 8
        assert Local.build(3) == (Local, 3)
        method, built = recorder.spans
        assert method[sp.NAME] == "m" and method[sp.RID] == 4 and method[sp.SIZE] == 1
        assert built[sp.NAME] == "b"
        assert all(s[sp.END] >= s[sp.START] for s in recorder.spans)

    def test_wrap_records_a_raising_call(self):
        recorder = sp.Recorder()

        class Local(Box):
            pass

        recorder.wrap(Local, "fail", "f")
        with pytest.raises(KeyError):
            Local().fail()
        assert [s[sp.NAME] for s in recorder.spans] == ["f"]

    def test_dump_round_trip(self, tmp_path):
        recorder = sp.Recorder()
        recorder.end(recorder.begin("a", rid=[1, None]))
        recorder.dump(tmp_path / "s.json", engine={"k": 1})
        doc = sp.load(tmp_path / "s.json")
        assert doc["engine"] == {"k": 1}
        assert doc["spans"][0][sp.RID] == [1, None]


def online_pass(lateness_s: list[float], latency_s: list[float] | None = None) -> OnlinePass:
    """A pass of requests due a second apart, by default 10 ms each from due to done."""
    latency_s = latency_s or [0.010] * len(lateness_s)
    exchanges = [
        Exchange(due, due + late, due + late, due + late, due + latency, 200, b"")
        for due, (late, latency) in enumerate(zip(lateness_s, latency_s))
    ]
    return OnlinePass(exchanges, ["x"] * len(exchanges), 0.0, 0.0, [], True)


class TestGeneratorGates:
    def test_pacer_share_of_a_percentile(self):
        run = online_pass([0.002] * 1000)
        assert run.pacer_share(50) == pytest.approx(0.2)
        with pytest.raises(InvalidRun):
            run.check_pacer()

    def test_lateness_that_moves_no_percentile_passes(self):
        run = online_pass([0.0] * 995 + [0.005] * 5)
        assert run.pacer_share(50) == 0.0 and run.pacer_share(99) == 0.0
        assert "0.0% of p99" in run.check_pacer()

    def test_p50_tolerates_more_lateness_than_p99(self):
        latency = [0.010] * 900 + [0.050] * 100
        run = online_pass([0.0012] * 900 + [0.0] * 100, latency)
        assert run.pacer_share(50) == pytest.approx(0.12)
        assert "12.0% of p50" in run.check_pacer()
        run = online_pass([0.0] * 900 + [0.006] * 100, latency)
        assert run.pacer_share(99) == pytest.approx(0.12)
        with pytest.raises(InvalidRun):
            run.check_pacer()

    def test_batching_shift_flags_the_traced_pass(self):
        def samples(batches):
            return [
                ("holistix_server_batches_total", "", batches),
                ("holistix_requests_total", 'model="default"', 1000.0),
            ]

        assert check_batching(samples(950.0), samples(960.0)).startswith("micro-batches")
        assert check_batching(samples(950.0), samples(800.0)).startswith("FLAGGED")


class TestCheckedPass:
    class FakeServer:
        setup_s = 0.5

        def __init__(self, ctx, checkpoint, **options):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    def passes(self, monkeypatch, lateness_per_pass):
        monkeypatch.setattr(workloads, "Server", self.FakeServer)
        runs = iter(lateness_per_pass)
        return workloads.checked_pass(None, None, lambda server: online_pass(next(runs)))

    def test_a_lagged_pass_is_measured_again(self, monkeypatch):
        setup_s, run = self.passes(monkeypatch, [[0.002] * 1000, [0.0] * 1000])
        assert setup_s == 0.5
        assert run.pacer_share(50) == 0.0
        assert run.pacer_note.endswith("(after 1 refused pass)")

    def test_the_run_fails_when_every_pass_lagged(self, monkeypatch):
        with pytest.raises(InvalidRun):
            self.passes(monkeypatch, [[0.002] * 1000] * workloads.MAX_PASSES)


class SlowHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(0.05)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_the_pacer_does_not_wait_for_a_busy_connection():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    pool = KeepAlivePool("127.0.0.1", server.server_address[1], 1, "/")
    try:
        exchanges = pool.run([b"{}"] * 3, [0.0, 0.001, 0.002])
    finally:
        pool.close()
        server.shutdown()
        server.server_close()
        thread.join()
    assert [e.status for e in exchanges] == [200] * 3
    # One connection answers every 50 ms, so the last two requests wait
    # for it; that wait is in their latency, not in the pacer's lateness.
    assert max(e.dispatched - e.due for e in exchanges) < 0.04
    assert exchanges[2].connected - exchanges[2].dispatched > 0.08
    assert exchanges[2].latency > 0.14


def test_poisson_offsets_are_seeded_sorted_and_in_range():
    offsets = poisson_offsets(random.Random(3), 500, 12.5)
    assert offsets == sorted(offsets)
    assert len(offsets) == 500 and 0.0 <= offsets[0] and offsets[-1] < 12.5
    assert offsets == poisson_offsets(random.Random(3), 500, 12.5)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

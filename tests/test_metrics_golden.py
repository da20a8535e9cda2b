"""Golden ``/metrics`` scrapes: :func:`render_metrics` byte-for-byte.

Each fixture under ``tests/fixtures/metrics/`` is the exposition text
one set of fixed inputs renders to.  The fixtures pin every byte an
operator's scraper or dashboard can see: family order, HELP text, label
order and escaping, value formatting, and which families are left out
when there is no process pool, fleet or shadow traffic.
Any change to the exposition fails here and forces a deliberate
fixture update in the same diff.

Three scrapes are pinned:

* ``fleet`` — a three-entry fleet (champion, challenger, and a shadow
  entry that has served nothing), worker processes with one dead slot
  whose pid is unknown, HTTP counts including the ``*`` route, and a
  ``model_id`` holding a quote, a backslash and a newline;
* ``bare`` — a lone server: no fleet, processes or shadow;
* ``idle`` — an empty fleet, so families with no samples still print
  their HELP and TYPE lines.

Regenerate (after an intentional exposition change) with::

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.engine import EngineStats
from repro.engine.server import StatsSnapshot
from repro.serving.metrics import render_metrics

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "metrics"

TRICKY_MODEL_ID = 'LR@ckpt "v1"\\main\nrc'


def make_snapshot(
    latencies_ms: tuple[float, ...],
    per_worker_requests: tuple[int, ...],
    *,
    batches: int,
    shed: int = 0,
    deadline_shed: int = 0,
    worker_thread_deaths: int = 0,
) -> StatsSnapshot:
    """A running server's counters after serving ``latencies_ms``."""
    return StatsSnapshot(
        epoch=1,
        requests=len(latencies_ms),
        batches=batches,
        shed=shed,
        total_latency_ms=sum(latencies_ms),
        max_latency_ms=max(latencies_ms, default=0.0),
        largest_batch=max(per_worker_requests, default=0),
        started_at=100.0,
        stopped_at=None,
        per_worker_requests=per_worker_requests,
        latencies_ms=latencies_ms,
        worker_thread_deaths=worker_thread_deaths,
        deadline_shed=deadline_shed,
    )


CHAMPION = make_snapshot(
    (1.25, 2.5, 0.75, 3.0, 12.125, 1.5),
    (4, 2),
    batches=4,
    shed=3,
    deadline_shed=1,
    worker_thread_deaths=1,
)
CHALLENGER = make_snapshot((2.0, 4.0, 0.5), (3,), batches=2, shed=1)
SHADOW = make_snapshot((), (0,), batches=0)


def fleet_scrape() -> str:
    return render_metrics(
        CHAMPION,
        EngineStats(requests=9, cache_hits=2, cache_misses=7, batches=6),
        {
            ("/v1/predict", 200): 7,
            ("/v1/predict", 429): 3,
            ("/v1/predict_batch", 200): 1,
            ("/metrics", 200): 2,
            ("*", 404): 1,
        },
        ready=True,
        model_id=TRICKY_MODEL_ID,
        processes=[
            {"worker": 0, "pid": 4242, "alive": True, "restarts": 0},
            {"worker": 1, "pid": None, "alive": False, "restarts": 2},
        ],
        models=[
            {
                "name": "champion",
                "snapshot": CHAMPION,
                "traffic_share": 2 / 3,
                "weights_version": 2,
                "shadow": False,
            },
            {
                "name": "challenger",
                "snapshot": CHALLENGER,
                "traffic_share": 1 / 3,
                "weights_version": 0,
                "shadow": False,
            },
            {
                "name": "shadow",
                "snapshot": SHADOW,
                "traffic_share": 0.0,
                "weights_version": 0,
                "shadow": True,
            },
        ],
        shadow={"submitted": 9, "failed": 1},
    )


def bare_scrape() -> str:
    return render_metrics(
        CHALLENGER,
        EngineStats(requests=3, cache_misses=3, batches=2),
        {("/v1/predict", 200): 3},
        ready=False,
        model_id="LR@1",
    )


def idle_scrape() -> str:
    return render_metrics(
        SHADOW,
        EngineStats(),
        {},
        ready=True,
        model_id="LR@1",
        models=[],
    )


SCRAPES = {"fleet": fleet_scrape, "bare": bare_scrape, "idle": idle_scrape}


@pytest.mark.parametrize("name", sorted(SCRAPES))
def test_scrape_matches_golden(name):
    expected = (FIXTURES_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert SCRAPES[name]() == expected


def test_a_render_ranks_each_latency_window_once(monkeypatch):
    # Three quantiles per summary, and the default entry's window feeds
    # both the unlabelled and its {model} summary: one sort per snapshot
    # with samples, none for an empty window (its quantiles are NaN).
    from repro.engine import server

    ranked: list[int] = []

    def counting_sorted(values):
        ranked.append(len(values))
        return sorted(values)

    monkeypatch.setattr(server, "sorted", counting_sorted, raising=False)
    champion = make_snapshot(CHAMPION.latencies_ms, (4, 2), batches=4)
    challenger = make_snapshot(CHALLENGER.latencies_ms, (3,), batches=2)
    shadow = make_snapshot((), (0,), batches=0)
    render_metrics(
        champion,
        EngineStats(),
        {},
        ready=True,
        model_id="LR@1",
        models=[
            {"name": name, "snapshot": snap, "traffic_share": 0.5,
             "weights_version": 0, "shadow": name == "shadow"}
            for name, snap in (
                ("champion", champion), ("challenger", challenger), ("shadow", shadow)
            )
        ],
    )
    assert sorted(ranked) == [len(challenger.latencies_ms), len(champion.latencies_ms)]


def regenerate() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for name, scrape in SCRAPES.items():
        (FIXTURES_DIR / f"{name}.txt").write_text(scrape(), encoding="utf-8")
        print(f"wrote {name}.txt")


if __name__ == "__main__":
    regenerate()

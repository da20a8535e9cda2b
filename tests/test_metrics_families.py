"""The metric-family table: naming rules, declared labels, and the docs.

:data:`repro.serving.metrics.FAMILIES` is the one declaration of what
``/metrics`` exports.  These tests hold it to Prometheus's naming rules
(checked by :class:`~repro.serving.metrics.Family` at import), hold the
golden scrapes to the labels each family declares, and hold the metric
tables in ``docs/SERVING.md`` to the table itself.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.serving.metrics import FAMILIES, Family, parse_metrics
from tests.test_metrics_golden import FIXTURES_DIR, SCRAPES

REPO_ROOT = Path(__file__).resolve().parent.parent
BY_NAME = {family.name: family for family in FAMILIES}


def no_samples(scrape):
    return []


@pytest.mark.parametrize(
    "name, kind, labels, message",
    [
        ("requests_total", "counter", (), "holistix_-prefixed"),
        ("holistix_http_requests", "counter", (), "exactly when"),
        ("holistix_latency_ms_total", "gauge", (), "exactly when"),
        ("holistix_queue_depth", "gauge", ("Worker-ID",), "snake_case"),
        ("holistix_latency_seconds", "histogram", (), "kind 'histogram'"),
    ],
)
def test_family_rejects_a_misnamed_declaration(name, kind, labels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Family(name, kind, "Help.", labels, no_samples)


def test_family_names_are_unique():
    assert len(BY_NAME) == len(FAMILIES)


def test_fleet_scrape_renders_every_family_in_table_order():
    text = (FIXTURES_DIR / "fleet.txt").read_text(encoding="utf-8")
    typed = re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.M)
    assert typed == [(family.name, family.kind) for family in FAMILIES]


@pytest.mark.parametrize("scrape", sorted(SCRAPES))
def test_golden_samples_carry_their_familys_labels(scrape):
    text = (FIXTURES_DIR / f"{scrape}.txt").read_text(encoding="utf-8")
    for name, labels in parse_metrics(text):
        keys = {key for key, _ in labels}
        family = BY_NAME.get(name)
        if family is None:
            base, _, suffix = name.rpartition("_")
            family = BY_NAME[base]
            assert family.kind == "summary" and suffix in ("sum", "count"), name
            assert keys == set(family.labels), name
        elif family.kind == "summary":
            assert keys == {*family.labels, "quantile"}, name
        else:
            assert keys == set(family.labels), name


def test_serving_doc_tables_list_exactly_the_families():
    text = (REPO_ROOT / "docs" / "SERVING.md").read_text(encoding="utf-8")
    section = text.split("### `GET /metrics`", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = []
    for row in rows:
        match = re.match(r"\| `(holistix_\w+)(?:\{([\w,]+)\})?` \| (\w+) \|", row)
        assert match, f"not one family per row: {row}"
        name, labels, kind = match.groups()
        documented.append((name, tuple(labels.split(",")) if labels else (), kind))
    declared = [(family.name, family.labels, family.kind) for family in FAMILIES]
    assert sorted(documented) == sorted(declared)

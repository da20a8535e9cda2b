"""Fleet control-plane tests: routing, shadow mirroring, per-model ops.

Covers the :class:`ModelFleet` routing table (explicit ``model`` >
seeded A/B split > default), shadow entries (scored, counted, never
answering), the redesigned ``/v1`` wire surface over a multi-entry
fleet (``served_by`` envelopes, the fleet status document, per-model
Prometheus families), per-model admin selectors, and the typed client
results.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter

import numpy as np
import pytest

from repro.engine.engine import PredictionEngine
from repro.engine.server import InferenceServer
from repro.serving.client import (
    PredictBatchResult,
    PredictResult,
    ServingClient,
    ServingError,
)
from repro.serving.fleet import ModelEntry, ModelFleet, UnknownModelError
from repro.serving.gateway import ServingGateway


class DeterministicBackend:
    """Probabilities as a pure function of the text — the parity oracle."""

    n_classes = 6

    def proba_batch(self, texts: list[str]) -> np.ndarray:
        rows = np.empty((len(texts), 6), dtype=np.float64)
        for i, text in enumerate(texts):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            vals = np.frombuffer(digest[:6], dtype=np.uint8).astype(np.float64) + 1.0
            rows[i] = vals / vals.sum()
        return rows


def make_server(model_id: str, **kwargs) -> InferenceServer:
    engine = PredictionEngine(DeterministicBackend(), model_id=model_id)
    kwargs.setdefault("workers", 1)
    return InferenceServer(engine, **kwargs)


def make_fleet(**fleet_kwargs) -> ModelFleet:
    """champion 0.9 / challenger 0.1 + one shadow — the canary shape."""
    return ModelFleet(
        [
            ModelEntry("champion", make_server("champ@v1"), weight=0.9),
            ModelEntry("challenger", make_server("chall@v2"), weight=0.1),
            ModelEntry("mirror", make_server("mirror@v1"), shadow=True),
        ],
        **fleet_kwargs,
    )


class TestRouting:
    def test_explicit_model_wins_over_split(self):
        fleet = make_fleet()
        for request_id in ("a", "b", "c"):
            assert fleet.route("challenger", request_id).name == "challenger"
            assert fleet.route("champion", request_id).name == "champion"

    def test_explicit_shadow_selection_is_allowed(self):
        # "Never answers" applies to mirrored traffic; a deliberate
        # operator request naming the shadow entry is served.
        fleet = make_fleet()
        assert fleet.route("mirror", "x").name == "mirror"

    def test_unknown_model_raises_with_known_names(self):
        fleet = make_fleet()
        with pytest.raises(UnknownModelError) as excinfo:
            fleet.route("nope", "x")
        assert excinfo.value.model == "nope"
        assert set(excinfo.value.known) == {"champion", "challenger", "mirror"}

    def test_split_is_deterministic_per_request_id(self):
        fleet = make_fleet()
        for i in range(50):
            request_id = f"req-{i}"
            first = fleet.route(None, request_id).name
            assert all(
                fleet.route(None, request_id).name == first for _ in range(5)
            )

    def test_split_honours_the_90_10_weights(self):
        fleet = make_fleet()
        counts = Counter(fleet.route(None, f"r{i}").name for i in range(4000))
        assert counts["mirror"] == 0
        share = counts["challenger"] / 4000
        assert 0.07 <= share <= 0.13, counts

    def test_split_seed_decorrelates_fleets(self):
        a = make_fleet(split_seed=1)
        b = make_fleet(split_seed=2)
        assignments_a = [a.route(None, f"r{i}").name for i in range(200)]
        assignments_b = [b.route(None, f"r{i}").name for i in range(200)]
        assert assignments_a != assignments_b

    def test_zero_weight_entry_serves_only_explicit_traffic(self):
        fleet = ModelFleet(
            [
                ModelEntry("main", make_server("m@1"), weight=1.0),
                ModelEntry("pinned", make_server("p@1"), weight=0.0),
            ]
        )
        assert all(
            fleet.route(None, f"r{i}").name == "main" for i in range(200)
        )
        assert fleet.route("pinned", "x").name == "pinned"
        assert fleet.traffic_share(fleet.entry("pinned")) == 0.0
        assert fleet.traffic_share(fleet.entry("main")) == 1.0

    def test_all_zero_weights_fall_back_to_default(self):
        fleet = ModelFleet(
            [
                ModelEntry("a", make_server("a@1"), weight=0.0),
                ModelEntry("b", make_server("b@1"), weight=0.0),
            ],
            default="b",
        )
        assert all(fleet.route(None, f"r{i}").name == "b" for i in range(20))

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="at least one model"):
            ModelFleet([])
        with pytest.raises(ValueError, match="duplicate"):
            ModelFleet(
                [
                    ModelEntry("x", make_server("a@1")),
                    ModelEntry("x", make_server("b@1")),
                ]
            )
        with pytest.raises(ValueError, match="non-shadow"):
            ModelFleet([ModelEntry("s", make_server("s@1"), shadow=True)])
        with pytest.raises(ValueError, match="not in the fleet"):
            ModelFleet([ModelEntry("a", make_server("a@1"))], default="missing")
        with pytest.raises(ValueError, match="shadow entry"):
            ModelFleet(
                [
                    ModelEntry("a", make_server("a@1")),
                    ModelEntry("s", make_server("s@1"), shadow=True),
                ],
                default="s",
            )
        with pytest.raises(ValueError, match="weight"):
            ModelEntry("neg", make_server("n@1"), weight=-0.5)

    def test_shadow_weight_is_forced_to_zero(self):
        entry = ModelEntry("s", make_server("s@1"), weight=5.0, shadow=True)
        assert entry.weight == 0.0


class TestFleetGateway:
    @pytest.fixture()
    def gateway(self):
        fleet = make_fleet()
        with ServingGateway(fleet, admin_token="sekrit") as gw:
            yield gw

    def _wait_shadow_requests(self, gateway, minimum: int, timeout_s=5.0) -> int:
        """Mirrored submissions are fire-and-forget; poll until scored."""
        mirror = gateway.fleet.entry("mirror")
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            served = mirror.server.stats.snapshot().requests
            if served >= minimum:
                return served
            time.sleep(0.01)
        raise AssertionError(
            f"shadow served {mirror.server.stats.snapshot().requests} "
            f"< {minimum} within {timeout_s}s"
        )

    def test_served_by_envelope_and_explicit_routing(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        result = client.predict("hello fleet", model="challenger")
        assert result.served_by.model == "challenger"
        assert result.served_by.weights_version == 0
        assert result.model_id == "chall@v2"
        assert result.label
        batch = client.predict_batch(["a", "b"], model="champion")
        assert batch.served_by.model == "champion"
        assert all(p.served_by.model == "champion" for p in batch.predictions)

    def test_request_id_pins_the_split_assignment(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        expected = gateway.fleet.route(None, "pinned-req").name
        for _ in range(5):
            result = client.predict("same request", request_id="pinned-req")
            assert result.served_by.model == expected

    def test_unknown_model_is_404_with_structured_body(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        with pytest.raises(ServingError) as excinfo:
            client.predict("x", model="bogus")
        error = excinfo.value
        assert error.status == 404
        assert error.code == "model_not_found"
        assert error.model == "bogus"
        assert error.retriable is False
        assert error.body["error"]["model"] == "bogus"

    def test_shadow_scores_but_never_answers(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        n = 20
        served_by = [
            client.predict(f"mirrored {i}").served_by.model for i in range(n)
        ]
        assert "mirror" not in served_by
        # Every answered request was also mirrored to the shadow entry.
        self._wait_shadow_requests(gateway, n)
        counts = gateway.fleet.shadow_counts()
        assert counts["submitted"] >= n

    def test_fleet_status_document(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        client.predict("warm", model="champion")
        doc = client.models()
        assert doc["default_model"] == "champion"
        by_name = {m["name"]: m for m in doc["models"]}
        assert set(by_name) == {"champion", "challenger", "mirror"}
        champ = by_name["champion"]
        assert champ["state"] == "serving"
        assert champ["traffic_share"] == 0.9
        assert champ["weights_version"] == 0
        assert champ["pool"] == {"kind": "threads", "workers": 1}
        assert champ["requests"] >= 1
        assert set(champ["latency_ms"]) == {"p50", "p95", "p99"}
        assert by_name["mirror"]["shadow"] is True
        assert by_name["mirror"]["traffic_share"] == 0.0
        assert len(doc["registry"]) == 9
        assert not any(entry["loaded"] for entry in doc["registry"])

    def test_per_model_metrics_families(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        for i in range(6):
            client.predict(f"metrics {i}", model="champion")
        client.predict("one for the challenger", model="challenger")
        self._wait_shadow_requests(gateway, 7)
        samples = client.metrics()

        def value(name: str, **labels: str) -> float:
            return samples[(name, frozenset(labels.items()))]

        assert value("holistix_requests_total", model="champion") == 6
        assert value("holistix_requests_total", model="challenger") == 1
        assert value("holistix_requests_total", model="mirror") == 7
        assert value("holistix_model_traffic_share", model="champion") == 0.9
        assert value("holistix_model_traffic_share", model="mirror") == 0.0
        assert value("holistix_model_shadow", model="mirror") == 1
        assert value("holistix_model_shadow", model="champion") == 0
        assert value("holistix_model_weights_version", model="champion") == 0
        assert value("holistix_shadow_submitted_total") >= 7
        assert value("holistix_shadow_failed_total") == 0
        for q in ("0.5", "0.95", "0.99"):
            assert (
                value("holistix_model_latency_ms", model="champion", quantile=q)
                >= 0.0
            )
        assert value("holistix_model_latency_ms_count", model="champion") == 6

    def test_observed_split_matches_metrics_counters(self, gateway):
        # Deterministic audit: the fleet's own hash decides each
        # request id's entry, so the per-model counters must match the
        # precomputed assignment exactly.
        client = ServingClient(gateway.url, deadline_s=30)
        n = 60
        expected = Counter(
            gateway.fleet.route(None, f"split-{i}").name for i in range(n)
        )
        for i in range(n):
            client.predict(f"text {i}", request_id=f"split-{i}")
        samples = client.metrics()
        for name in ("champion", "challenger"):
            got = samples[
                ("holistix_requests_total", frozenset({("model", name)}))
            ]
            assert got == expected[name], (name, expected)

    def test_admin_reload_requires_model_selector_on_multi_fleet(self, gateway):
        client = ServingClient(gateway.url, deadline_s=10)
        status, payload = _admin_post(
            gateway, "/v1/admin/reload", {"checkpoint": "/nope"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "model" in payload["error"]["message"]
        status, payload = _admin_post(
            gateway,
            "/v1/admin/reload",
            {"checkpoint": "/nope", "model": "ghost"},
        )
        assert status == 404
        assert payload["error"]["code"] == "model_not_found"
        assert payload["error"]["model"] == "ghost"
        # Threaded pools have no shared weights to swap.
        status, payload = _admin_post(
            gateway,
            "/v1/admin/reload",
            {"checkpoint": "/nope", "model": "challenger"},
        )
        assert status == 409
        assert payload["error"]["code"] == "reload_unsupported"
        assert payload["error"]["model"] == "challenger"
        del client

    def test_admin_chaos_takes_a_model_selector(self, gateway):
        from repro.chaos import FaultEvent, FaultPlan

        plan = FaultPlan(
            seed=7,
            events=(
                FaultEvent(at_s=0.0, kind="slow_batch", duration_s=30.0),
            ),
        ).to_dict()
        status, payload = _admin_post(
            gateway, "/v1/admin/chaos", {"model": "challenger", "plan": plan}
        )
        assert status == 200
        assert payload["model"] == "challenger"
        assert gateway.fleet.entry("challenger").server.chaos is not None
        assert gateway.fleet.entry("champion").server.chaos is None
        # A bare plan body is not a chaos request: it arms nothing.
        status, payload = _admin_post(gateway, "/v1/admin/chaos", plan)
        assert status == 400
        assert payload["error"]["code"] == "bad_plan"
        assert gateway.fleet.entry("champion").server.chaos is None
        assert gateway.fleet.entry("challenger").server.chaos is not None
        gateway.disarm_chaos()

    def test_gateway_owns_only_entries_it_started(self):
        running = make_server("pre@1").start()
        try:
            fleet = ModelFleet(
                [
                    ModelEntry("prestarted", running),
                    ModelEntry("fresh", make_server("fresh@1")),
                ]
            )
            with ServingGateway(fleet) as gateway:
                assert gateway.ready
                fresh = fleet.entry("fresh").server
                assert fresh.running
            assert not fresh.running
            assert running.running and running.accepting
        finally:
            running.stop()


class TestSingleServerCompatibility:
    def test_bare_server_maps_onto_one_entry_fleet(self):
        server = make_server("solo@1")
        gateway = ServingGateway(server, baseline="LR")
        assert gateway.fleet.names == ("default",)
        assert gateway.server is server
        assert gateway.model_id == "solo@1"
        assert gateway.baseline == "LR"
        with gateway:
            client = ServingClient(gateway.url, deadline_s=10)
            result = client.predict("compat")
            assert result.served_by.model == "default"
            assert result.model_id == "solo@1"


class TestTypedResults:
    def test_predict_result_fields(self):
        raw = {
            "label": "IA",
            "latency_ms": 1.0,
            "model_id": "m@1",
            "served_by": {"model": "default", "weights_version": 2},
        }
        result = PredictResult.from_raw(raw)
        assert result.label == "IA"
        assert result.served_by.weights_version == 2

    def test_batch_result_copies_envelope_onto_predictions(self):
        raw = {
            "model_id": "m@1",
            "served_by": {"model": "default", "weights_version": 0},
            "predictions": [{"label": "IA", "latency_ms": 0.5}],
        }
        batch = PredictBatchResult.from_raw(raw)
        assert len(batch) == 1
        assert batch.predictions[0].label == "IA"
        assert batch.predictions[0].served_by.model == "default"

    def test_absent_fields_read_as_none(self):
        result = PredictResult.from_raw({"label": "IA", "latency_ms": 1.0})
        assert result.label == "IA"
        assert result.probabilities is None
        assert result.served_by is None
        assert result.raw["label"] == "IA"


def _admin_post(gateway, path: str, payload: dict) -> tuple[int, dict]:
    import json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        gateway.url + path,
        data=json.dumps(payload).encode(),
        headers={
            "Content-Type": "application/json",
            "X-Admin-Token": gateway.admin_token,
        },
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())

"""End-to-end smoke test for ``holistix-serve`` — the CI e2e job driver.

Unlike the loopback tests (which run the gateway in-process), this
drives the real deployment shape: it trains a tiny LR checkpoint, boots
``holistix-serve`` as a subprocess on a free port, and talks to it over
real HTTP — readiness, concurrent traffic, metrics/client-count
consistency, a forced 429 under shed, and graceful SIGTERM drain with
exit code 0.  On any failure the server log is dumped to stdout (inside
``::group::`` markers so Actions folds it) before the non-zero exit.

Run locally from the repo root::

    python scripts/e2e_serving_smoke.py --log-dir /tmp/e2e-logs
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.dataset import HolistixDataset  # noqa: E402
from repro.core.labels import DIMENSIONS  # noqa: E402
from repro.core.pipeline import WellnessClassifier  # noqa: E402
from repro.corpus.generator import GeneratorConfig  # noqa: E402
from repro.serving.client import GatewayOverloaded, ServingClient  # noqa: E402

LABEL_CODES = {d.code for d in DIMENSIONS}

# The machine-readable line holistix-serve prints once the gateway is
# bound; with --port 0 the kernel picks a free port race-free and this
# is how the driver learns it.
READY_LINE = re.compile(r"holistix-serve ready on (http://[0-9.]+:[0-9]+)")


def train_checkpoint(path: Path) -> None:
    print("[e2e] training a tiny LR checkpoint...")
    config = GeneratorConfig(
        class_counts={d: 24 for d in DIMENSIONS},
        seed=13,
        target_total_words=None,
        target_total_sentences=None,
    )
    dataset = HolistixDataset.build(config)
    WellnessClassifier("LR").fit(list(dataset)).save(path)


class ServeProcess:
    """One ``holistix-serve`` subprocess with its log captured to disk."""

    def __init__(self, name: str, args: list[str], log_dir: Path) -> None:
        self.name = name
        self.log_path = log_dir / f"{name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log_file = self.log_path.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.cli", *args],
            stdout=self._log_file,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=REPO_ROOT,
        )

    def wait_ready_url(self, timeout_s: float = 60.0) -> str:
        """Poll the log for the ready line; returns the bound base URL."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise AssertionError(
                    f"[{self.name}] exited early with {self.process.returncode}"
                )
            try:
                text = self.log_path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                text = ""
            match = READY_LINE.search(text)
            if match:
                return match.group(1)
            time.sleep(0.05)
        raise AssertionError(f"[{self.name}] no ready line within {timeout_s}s")

    def terminate_gracefully(self, timeout_s: float = 30.0) -> int:
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired as error:
            self.process.kill()
            self.process.wait(timeout=10)
            raise AssertionError(
                f"[{self.name}] did not drain within {timeout_s}s of SIGTERM"
            ) from error
        finally:
            self._log_file.close()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self._log_file.close()

    def dump_log(self) -> None:
        print(f"::group::server log [{self.name}] ({self.log_path})")
        try:
            print(self.log_path.read_text(encoding="utf-8", errors="replace"))
        except OSError as error:
            print(f"(log unreadable: {error})")
        print("::endgroup::")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def phase_happy_path(checkpoint: Path, log_dir: Path) -> None:
    server = ServeProcess(
        "happy-path",
        [
            "--checkpoint",
            str(checkpoint),
            "--port",
            "0",
            "--workers",
            "2",
            "--max-queue",
            "64",
            "--overload",
            "shed",
        ],
        log_dir,
    )
    try:
        url = server.wait_ready_url()
        client = ServingClient(url, deadline_s=15)
        health = client.wait_ready(deadline_s=30)
        check(health["status"] == "ok", f"unexpected health: {health}")
        check(health["workers"] == 2, f"unexpected worker count: {health}")
        print(f"[e2e] ready at {url}: {health}")

        n_threads, per_thread, batch_size = 8, 5, 6
        errors: list[Exception] = []

        def client_loop(i: int) -> None:
            try:
                for n in range(per_thread):
                    response = client.predict(f"client {i} message {n}")
                    check(
                        response.label in LABEL_CODES,
                        f"bad label: {response.raw}",
                    )
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=False)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        check(not errors, f"concurrent clients failed: {errors[:3]}")

        batch = client.predict_batch(
            [f"batch item {j}" for j in range(batch_size)], top_k=2
        )
        check(
            len(batch.predictions) == batch_size,
            f"batch size mismatch: {batch.raw}",
        )

        n_single = n_threads * per_thread
        samples = client.metrics()

        def metric(name: str, **labels: str) -> float:
            return samples[(name, frozenset(labels.items()))]

        check(
            metric(
                "holistix_http_requests_total",
                endpoint="/v1/predict",
                status="200",
            )
            == n_single,
            "HTTP predict counter != client-side request count",
        )
        check(
            metric(
                "holistix_http_requests_total",
                endpoint="/v1/predict_batch",
                status="200",
            )
            == 1,
            "HTTP batch counter != 1",
        )
        check(
            metric("holistix_server_requests_total") == n_single + batch_size,
            "server text counter != texts sent",
        )
        check(metric("holistix_server_shed_total") == 0, "unexpected sheds")
        print(f"[e2e] metrics consistent after {n_single} + {batch_size} texts")

        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")
        print("[e2e] SIGTERM drain exited 0")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def phase_open_loop(checkpoint: Path, log_dir: Path) -> None:
    """Drive the gateway with the real ``holistix-loadgen`` CLI.

    Exercises the operator path end to end: open-loop Poisson schedule
    against a live server, trace file saved and replayable, JSON report
    written, exit code 0 with zero failures.
    """
    import json

    from repro.loadgen.cli import main as loadgen_main

    server = ServeProcess(
        "open-loop",
        [
            "--checkpoint",
            str(checkpoint),
            "--port",
            "0",
            "--workers",
            "2",
            "--max-queue",
            "256",
            "--overload",
            "block",
        ],
        log_dir,
    )
    try:
        url = server.wait_ready_url()
        trace = log_dir / "loadgen-trace.json"
        report_path = log_dir / "loadgen-report.json"
        code = loadgen_main(
            [
                "--url",
                url,
                "--rate",
                "40",
                "--duration",
                "2",
                "--seed",
                "5",
                "--save-trace",
                str(trace),
                "--out",
                str(report_path),
            ]
        )
        check(code == 0, f"holistix-loadgen exited {code}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        summary = report["summary"]
        check(summary["mode"] == "open", f"unexpected mode: {summary}")
        check(
            summary["scheduled"] == summary["completed"]
            and summary["failed"] == 0
            and summary["dropped"] == 0,
            f"open-loop run lost requests: {summary}",
        )
        check(summary["p99_ms"] > 0, f"empty histogram: {summary}")
        check(trace.is_file(), "trace file was not written")
        # Replaying the saved trace must offer the same schedule.
        code = loadgen_main(
            ["--url", url, "--trace", str(trace), "--corpus-size", "100"]
        )
        check(code == 0, f"trace replay exited {code}")
        print(
            f"[e2e] open-loop {summary['offered_rate_rps']:.0f} rps: "
            f"p99 {summary['p99_ms']:.1f} ms over {summary['completed']} reqs"
        )
        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def phase_forced_shed(checkpoint: Path, log_dir: Path) -> None:
    server = ServeProcess(
        "forced-shed",
        [
            "--checkpoint",
            str(checkpoint),
            "--port",
            "0",
            "--workers",
            "1",
            "--max-batch-size",
            "1",
            "--max-queue",
            "1",
            "--overload",
            "shed",
            "--inject-latency-ms",
            "300",
        ],
        log_dir,
    )
    try:
        client = ServingClient(server.wait_ready_url(), deadline_s=30)
        client.wait_ready(deadline_s=30)
        statuses: list[int] = []
        lock = threading.Lock()

        def fire(i: int) -> None:
            try:
                client.predict(f"burst {i}", retry_on_overload=False)
                status = 200
            except GatewayOverloaded:
                status = 429
            with lock:
                statuses.append(status)

        threads = [
            threading.Thread(target=fire, args=(i,), daemon=False) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shed, served = statuses.count(429), statuses.count(200)
        print(f"[e2e] burst of 12: {served} served, {shed} shed")
        check(shed >= 1, f"expected at least one 429, got statuses {statuses}")
        check(served >= 1, f"expected at least one 200, got {statuses}")
        check(
            client.metrics()[("holistix_server_shed_total", frozenset())]
            == shed,
            "shed counter != client-observed 429s",
        )
        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def shm_segments() -> list[str] | None:
    """Names of live ``hx_*`` shared-memory segments (None off-Linux)."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return None
    return sorted(p.name for p in root.glob("hx_*"))


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def phase_multiprocess(checkpoint: Path, log_dir: Path) -> None:
    """The ``--worker-processes`` deployment shape, end to end.

    Byte-identical predictions vs the threaded server (sequential
    single requests pin batch composition to singletons — probabilities
    are only bit-reproducible under identical batch shapes), per-process
    health reporting, and the cleanup contract: SIGTERM drains with exit
    0, every worker process dies, and no ``/dev/shm`` segment survives.
    """
    texts = [f"parity text {i} about sleep and worry" for i in range(10)]
    segments_before = shm_segments()

    threaded = ServeProcess(
        "mp-parity-threads",
        ["--checkpoint", str(checkpoint), "--port", "0", "--workers", "2"],
        log_dir,
    )
    try:
        client = ServingClient(threaded.wait_ready_url(), deadline_s=30)
        client.wait_ready(deadline_s=30)
        thread_probs = [client.predict(t).probabilities for t in texts]
        code = threaded.terminate_gracefully()
        check(code == 0, f"threaded reference exited {code}, expected 0")
    except BaseException:
        threaded.dump_log()
        threaded.kill()
        raise

    server = ServeProcess(
        "mp-workers",
        [
            "--checkpoint",
            str(checkpoint),
            "--port",
            "0",
            "--worker-processes",
            "2",
            "--max-queue",
            "64",
            "--overload",
            "shed",
        ],
        log_dir,
    )
    try:
        url = server.wait_ready_url(timeout_s=120)
        client = ServingClient(url, deadline_s=30)
        health = client.wait_ready(deadline_s=60)
        check(health["status"] == "ok", f"unexpected health: {health}")
        processes = health.get("processes")
        check(
            isinstance(processes, list) and len(processes) == 2,
            f"healthz did not report 2 worker processes: {health}",
        )
        check(
            all(p["alive"] and isinstance(p["pid"], int) for p in processes),
            f"worker processes not all alive: {processes}",
        )
        pids = [p["pid"] for p in processes]
        print(f"[e2e] multi-process server ready at {url}, worker pids {pids}")

        mp_probs = [client.predict(t).probabilities for t in texts]
        check(
            mp_probs == thread_probs,
            "process-served probabilities differ from the threaded server",
        )
        print(f"[e2e] {len(texts)} predictions byte-identical to threaded serving")

        batch = client.predict_batch(texts[:4])
        check(len(batch.predictions) == 4, f"batch mismatch: {batch.raw}")
        metrics_text = client.metrics_text()
        check(
            "holistix_worker_process_alive" in metrics_text
            and "holistix_worker_process_restarts_total" in metrics_text,
            "per-process metric families missing from /metrics",
        )

        segments_during = shm_segments()
        if segments_during is not None and segments_before is not None:
            new = set(segments_during) - set(segments_before)
            check(
                len(new) == 1,
                f"expected exactly one new shm segment, saw {sorted(new)}",
            )

        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")

        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(pid_alive(p) for p in pids):
            time.sleep(0.1)
        orphans = [p for p in pids if pid_alive(p)]
        check(not orphans, f"worker processes survived SIGTERM: {orphans}")

        segments_after = shm_segments()
        if segments_after is not None and segments_before is not None:
            leaked = set(segments_after) - set(segments_before)
            check(not leaked, f"leaked shm segments: {sorted(leaked)}")
        print("[e2e] SIGTERM drained: exit 0, zero orphans, shm clean")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def admin_post(
    url: str, path: str, token: str | None, payload: dict
) -> tuple[int, dict]:
    """POST to an admin endpoint; returns (status, parsed JSON body)."""
    import json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    if token is not None:
        request.add_header("X-Admin-Token", token)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def phase_chaos_admin(checkpoint: Path, log_dir: Path) -> None:
    """Admin surface + supervised crash recovery on the real deployment.

    Boots ``holistix-serve --worker-processes 2 --admin-token``, then:
    a bad token gets 403 (and so does a missing one), reloading the
    same checkpoint over HTTP bumps ``weights_version`` without
    changing predictions, arming a one-crash fault plan through
    ``POST /v1/admin/chaos`` SIGKILLs a live worker and the background
    supervisor replaces it (observed via the ``/metrics`` restart
    counter — no health probe is allowed to do the reviving), and the
    usual cleanup contract holds: SIGTERM drain exits 0, no worker
    survives, no shm segment leaks.
    """
    token = "e2e-admin-secret"
    segments_before = shm_segments()
    server = ServeProcess(
        "chaos-admin",
        [
            "--checkpoint",
            str(checkpoint),
            "--port",
            "0",
            "--worker-processes",
            "2",
            "--max-queue",
            "256",
            "--overload",
            "block",
            "--admin-token",
            token,
        ],
        log_dir,
    )
    try:
        url = server.wait_ready_url(timeout_s=120)
        client = ServingClient(url, deadline_s=30)
        health = client.wait_ready(deadline_s=60)
        pids = [p["pid"] for p in health["processes"]]
        print(f"[e2e] chaos-admin server ready at {url}, worker pids {pids}")

        status, body = admin_post(
            url, "/v1/admin/reload", "wrong-token", {"checkpoint": str(checkpoint)}
        )
        check(status == 403, f"bad admin token got {status}: {body}")
        status, body = admin_post(
            url, "/v1/admin/reload", None, {"checkpoint": str(checkpoint)}
        )
        check(status == 403, f"missing admin token got {status}: {body}")

        probe_text = "admin reload probe about sleep and worry"
        before = client.predict(probe_text).probabilities
        status, body = admin_post(
            url, "/v1/admin/reload", token, {"checkpoint": str(checkpoint)}
        )
        check(
            status == 200 and body.get("status") == "ok",
            f"reload failed: {status} {body}",
        )
        check(
            body.get("weights_version", 0) >= 2,
            f"reload did not bump weights_version: {body}",
        )
        after = client.predict(probe_text).probabilities
        check(
            after == before,
            "reloading the identical checkpoint changed predictions",
        )
        print(f"[e2e] hot reload ok: weights_version {body['weights_version']}")

        # Arm a minimal plan: one SIGKILL against worker slot 0, 0.2s in.
        plan = {
            "plan_version": 1,
            "seed": 0,
            "events": [
                {"at_s": 0.2, "kind": "worker_crash", "target": 0},
            ],
        }
        status, body = admin_post(url, "/v1/admin/chaos", token, {"plan": plan})
        check(
            status == 200 and body.get("status") == "armed",
            f"chaos arm failed: {status} {body}",
        )

        def restart_count() -> float:
            total = 0.0
            for (name, _labels), value in client.metrics().items():
                if name == "holistix_worker_process_restarts_total":
                    total += value
            return total

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and restart_count() < 1:
            time.sleep(0.2)
        check(
            restart_count() >= 1,
            "supervisor never respawned the SIGKILLed worker "
            "(holistix_worker_process_restarts_total stayed 0)",
        )
        # The replacement must actually serve.
        response = client.predict("post-crash probe")
        check(
            response.label in LABEL_CODES, f"bad post-crash label: {response.raw}"
        )
        # A freshly respawned worker reports ``pid: None`` until its
        # ready handshake is consumed; wait for concrete pids so the
        # orphan sweep below has real targets.
        deadline = time.monotonic() + 30
        while True:
            health = client.wait_ready(deadline_s=30)
            replacement_pids = [p["pid"] for p in health["processes"]]
            if all(
                p["alive"] and p["pid"] is not None
                for p in health["processes"]
            ):
                break
            check(
                time.monotonic() < deadline,
                f"replacement worker never reported a pid: {health}",
            )
            time.sleep(0.2)
        print(
            "[e2e] supervisor recovered from SIGKILL: "
            f"pids {pids} -> {replacement_pids}"
        )
        all_pids = set(pids) | set(replacement_pids)

        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")

        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(
            pid_alive(p) for p in all_pids
        ):
            time.sleep(0.1)
        orphans = [p for p in all_pids if pid_alive(p)]
        check(not orphans, f"worker processes survived SIGTERM: {orphans}")

        segments_after = shm_segments()
        if segments_after is not None and segments_before is not None:
            leaked = set(segments_after) - set(segments_before)
            check(not leaked, f"leaked shm segments: {sorted(leaked)}")
        print("[e2e] chaos-admin drained: exit 0, zero orphans, shm clean")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def phase_fleet(checkpoint: Path, log_dir: Path) -> None:
    """Two resident models behind one gateway, 90/10 A/B plus a shadow.

    Boots the repeatable ``--model`` form over worker processes, then
    verifies the control-plane contract end to end: the A/B split shows
    up in the per-model Prometheus counters, the shadow entry scores
    every answered request without ever answering one, a per-model
    reload hot-swaps only the selected entry's weights, and a reload
    pointed at a missing checkpoint leaves the fleet serving untouched.
    """
    token = "e2e-fleet-secret"
    segments_before = shm_segments()
    server = ServeProcess(
        "fleet",
        [
            "--model",
            f"champion={checkpoint}:weight=0.9",
            "--model",
            f"challenger={checkpoint}:weight=0.1",
            "--model",
            f"mirror={checkpoint}:shadow",
            "--port",
            "0",
            "--worker-processes",
            "1",
            "--max-queue",
            "256",
            "--overload",
            "block",
            "--admin-token",
            token,
        ],
        log_dir,
    )
    try:
        url = server.wait_ready_url(timeout_s=180)
        client = ServingClient(url, deadline_s=30)
        health = client.wait_ready(deadline_s=120)
        names = {m["name"] for m in health["models"]}
        check(
            names == {"champion", "challenger", "mirror"},
            f"healthz fleet roster wrong: {health}",
        )
        print(f"[e2e] fleet ready at {url}: {sorted(names)}")

        n = 200
        served_by_counts: dict[str, int] = {}
        for i in range(n):
            result = client.predict(f"fleet traffic {i}", request_id=f"e2e-{i}")
            name = result.served_by.model
            served_by_counts[name] = served_by_counts.get(name, 0) + 1
        check(
            "mirror" not in served_by_counts,
            f"shadow answered live traffic: {served_by_counts}",
        )
        explicit = client.predict("explicit route", model="challenger")
        check(
            explicit.served_by.model == "challenger",
            f"explicit routing failed: {explicit.raw}",
        )

        def model_requests(name: str) -> float:
            return client.metrics().get(
                ("holistix_requests_total", frozenset({("model", name)})), 0.0
            )

        champ, chall = model_requests("champion"), model_requests("challenger")
        check(
            champ + chall == n + 1,
            f"per-model counters do not cover the traffic: {champ} + {chall}",
        )
        share = (chall - 1) / n  # discount the explicit request
        check(
            0.02 <= share <= 0.25,
            f"challenger share {share:.2%} outside the 10% band",
        )
        check(
            served_by_counts.get("challenger", 0) == chall - 1,
            "served_by envelopes disagree with the Prometheus counters",
        )
        print(
            f"[e2e] A/B split over {n} requests: champion {champ:.0f}, "
            f"challenger {chall:.0f} ({share:.1%} measured share)"
        )

        # Shadow mirroring is fire-and-forget; wait for it to catch up.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and model_requests("mirror") < n + 1:
            time.sleep(0.2)
        mirrored = model_requests("mirror")
        check(
            mirrored >= n + 1,
            f"shadow scored {mirrored:.0f} of {n + 1} answered requests",
        )
        print(f"[e2e] shadow scored {mirrored:.0f} mirrored requests, answered 0")

        models_doc = client.models()
        versions = {
            m["name"]: m["weights_version"] for m in models_doc["models"]
        }
        status, body = admin_post(
            url,
            "/v1/admin/reload",
            token,
            {"model": "challenger", "checkpoint": str(checkpoint)},
        )
        check(
            status == 200 and body.get("model") == "challenger",
            f"per-model reload failed: {status} {body}",
        )
        check(
            body["weights_version"] > versions["challenger"],
            f"reload did not bump challenger weights: {body} vs {versions}",
        )
        after = {
            m["name"]: m["weights_version"]
            for m in client.models()["models"]
        }
        check(
            after["champion"] == versions["champion"]
            and after["mirror"] == versions["mirror"],
            f"reload touched unselected entries: {versions} -> {after}",
        )
        print(
            f"[e2e] per-model reload: challenger weights_version "
            f"{versions['challenger']} -> {after['challenger']}, others pinned"
        )

        status, body = admin_post(
            url,
            "/v1/admin/reload",
            token,
            {"model": "champion", "checkpoint": str(checkpoint / "missing")},
        )
        check(
            status == 400 and body["error"]["model"] == "champion",
            f"bad-checkpoint reload not rejected cleanly: {status} {body}",
        )
        unchanged = {
            m["name"]: m["weights_version"]
            for m in client.models()["models"]
        }
        check(
            unchanged == after,
            f"failed reload moved weights: {after} -> {unchanged}",
        )
        probe = client.predict("post-failed-reload probe")
        check(
            probe.label in LABEL_CODES,
            f"fleet stopped serving after rejected reload: {probe.raw}",
        )
        print("[e2e] rejected reload left every entry serving on old weights")

        code = server.terminate_gracefully()
        check(code == 0, f"graceful drain exited {code}, expected 0")
        segments_after = shm_segments()
        if segments_after is not None and segments_before is not None:
            leaked = set(segments_after) - set(segments_before)
            check(not leaked, f"leaked shm segments: {sorted(leaked)}")
        print("[e2e] fleet drained: exit 0, shm clean")
    except BaseException:
        server.dump_log()
        server.kill()
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-dir",
        type=Path,
        default=REPO_ROOT / "e2e-logs",
        help="where server logs and the scratch checkpoint go",
    )
    parser.add_argument(
        "--mode",
        choices=("threads", "processes", "both"),
        default="both",
        help="which serving backends to exercise (CI matrixes over these)",
    )
    args = parser.parse_args(argv)
    args.log_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    checkpoint = args.log_dir / "checkpoint"
    train_checkpoint(checkpoint)
    if args.mode in ("threads", "both"):
        phase_happy_path(checkpoint, args.log_dir)
        phase_open_loop(checkpoint, args.log_dir)
        phase_forced_shed(checkpoint, args.log_dir)
    if args.mode in ("processes", "both"):
        phase_multiprocess(checkpoint, args.log_dir)
        phase_chaos_admin(checkpoint, args.log_dir)
        phase_fleet(checkpoint, args.log_dir)
    print(f"[e2e] OK in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

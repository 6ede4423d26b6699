"""``malware_serve``: ``python -m repro serve`` driven by a closed loop.

``CONNECTIONS`` keep-alive clients each POST one script per ``/classify``
request with ``"deob": true`` and send the next when the answer arrives.
Two warm-up requests (one per connection) build the lazy deob engine and
are checked but not timed.  A request answered 429/503, or with an error
record, counts as failed and as missing every latency limit.  Each client
runs the host-speed probe (``calibrate``) before sending and after the
answer; latencies are scaled by the probes of neighbouring requests, and
``files_per_s`` is the
closed loop's throughput at the scaled latencies, ``CONNECTIONS`` over their
mean (Little's law, with the probes' own time left out).

The verdict on a sample is the service's view of the *input*: transformed
when its normal form is still classified transformed, or when
normalisation removed at least one technique; the reported techniques are
the normal form's plus those removed.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus as corpora
import layers
import stats
import tracing
from calibrate import kernel, local_probe, scaled
from common import (
    BENCH,
    CHILD_TIMEOUT,
    ROOT,
    CheckFailed,
    Checks,
    child_env,
    peak_rss_mb,
    start_processes,
    stop,
)

#: closed-loop connections (at most ``nproc`` on the two-core reference host).
CONNECTIONS = 2


class Server:
    """``python -m repro serve`` (or the tracing launcher); ready at ``/healthz`` 200."""

    def __init__(self, model: Path, trace: Path | None) -> None:
        if trace is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(BENCH / "serve_launcher.py"), str(trace)]
        command += ["serve", "--model", str(model), "--port", "0"]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.log: list[str] = []
        self._drain: threading.Thread | None = None
        try:
            self.port = self._read_port()
            self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
            self._drain.start()
            while not self._healthy():
                if self.process.poll() is not None:
                    raise CheckFailed("server exited before it became healthy")
                if time.perf_counter() - started > CHILD_TIMEOUT:
                    raise CheckFailed("server never became healthy")
                time.sleep(0.005)
        except CheckFailed:
            self.close()
            raise
        #: spawn to ready, unscaled (``calibrate.start_times`` scales it).
        self.spawn_s = time.perf_counter() - started

    def _read_port(self) -> int:
        for line in self.process.stderr:
            self.log.append(line)
            if " on http://" in line:
                return int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        raise CheckFailed(f"server exited before listening: {''.join(self.log)[-500:]}")

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def close(self) -> None:
        stop(self.process)
        if self._drain is not None:
            self._drain.join(timeout=30)
        self.process.stderr.close()


def closed_loop(port, units, start, seconds, min_samples, limit=0):
    """Each client sends its next script when the last one returns.

    Runs ``seconds``, extended (up to 4x) until ``min_samples`` requests are
    done, or sends exactly ``limit`` requests when that is set.  Returns
    ``(records, window_s)``; records are in completion order, each
    ``(unit index, pass, status, latency_s, payload | None, probe_s)``.
    """
    lock = threading.Lock()
    probing = threading.Lock()  # one probe at a time: concurrent probes share the GIL
    cursor = [start]
    records: list[tuple] = []
    began = time.perf_counter()
    last_done = [began]

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT)
        try:
            while True:
                elapsed = time.perf_counter() - began
                with lock:
                    if limit:
                        if cursor[0] - start >= limit:
                            return
                    elif elapsed >= 4 * seconds or (
                        elapsed >= seconds and len(records) >= min_samples
                    ):
                        return
                    pass_no, index = divmod(cursor[0], len(units))
                    cursor[0] += 1
                body = json.dumps(
                    {"script": corpora.variant(units[index].source, pass_no), "deob": True}
                )
                with probing:
                    probe = kernel()
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/classify", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, raw = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    connection.close()
                    status, raw = 0, b""
                done = time.perf_counter()
                with probing:
                    probe = (probe + kernel()) / 2
                try:
                    payload = json.loads(raw) if status == 200 else None
                except ValueError:
                    status, payload = -1, None
                with lock:
                    records.append((index, pass_no, status, done - sent, payload, probe))
                    last_done[0] = max(last_done[0], done)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, last_done[0] - began


def serve_phase(units, model, seconds, min_samples, trace, setups):
    server, setup_times = start_processes(
        lambda last: Server(model, trace if last else None), setups
    )
    try:
        warm, _ = closed_loop(server.port, units, 0, 0.0, 0, limit=CONNECTIONS)
        timed, window = closed_loop(server.port, units, CONNECTIONS, seconds, min_samples)
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.close()
    return warm, timed, window, setup_times, rss


def _answer(payload: dict | None) -> dict | None:
    """The single result of a 200 answer, or ``None``."""
    if payload is None or len(payload.get("results", [])) != 1:
        return None
    result = payload["results"][0]
    return result if result.get("ok") else None


def scaled_records(records: list[tuple]) -> list[tuple]:
    """Records with their latency at reference host speed (probe dropped)."""
    probes = [record[5] for record in records]
    return [
        (*record[:3], scaled(record[3], local_probe(probes, position)), record[4])
        for position, record in enumerate(records)
    ]


def check_records(units: list, records: list[tuple], checks: Checks) -> dict:
    from repro.js.parser import parse

    ok = correct = planted = removed = bailouts = 0
    pairs = []
    for index, _pass, status, _latency, payload, _probe in records:
        unit = units[index]
        planted += unit.transformed
        checks.expect(status == 200, f"request for {unit.name} answered {status}")
        if payload is not None:
            checks.expect(
                len(payload.get("results", [])) == 1, f"{unit.name}: not one result per script"
            )
        result = _answer(payload)
        if result is None or result.get("deob") is None:
            checks.expect(False, f"{unit.name}: no verdict with a deob report")
            continue
        deob = result["deob"]
        try:
            parse(deob["source"])
        except (SyntaxError, ValueError, RecursionError) as error:
            checks.expect(False, f"{unit.name}: deob output does not re-parse: {error}")
            continue
        ok += 1
        report = deob["report"]
        bailouts += report["bailed"] is not None
        removed_now = set(report["techniques_removed"])
        correct += (result["transformed"] or bool(removed_now)) == unit.transformed
        removed += unit.transformed and bool(removed_now)
        reported = {entry["technique"] for entry in result["techniques"]} | removed_now
        pairs.append((set(unit.labels), reported))
    return {
        "attempted": len(records),
        "ok": ok,
        "verdict_accuracy": correct / len(records) if records else 0.0,
        "technique_f1": stats.micro_f1(pairs),
        "removal_rate": removed / planted if planted else 0.0,
        "bailouts": bailouts,
    }


def run(corpus, model, seconds, trace, run_dir, checks, setups) -> dict:
    units = corpus.units
    warm, timed, window, setup_times, rss = serve_phase(
        units, model, seconds / 2 if trace else seconds,
        0 if trace else stats.samples_needed(95), None, 1 if trace else setups,
    )
    quality = check_records(units, warm + timed, checks)
    latencies = [
        latency * 1000.0 if status == 200 and _answer(payload) else math.inf
        for _index, _pass, status, latency, payload in scaled_records(timed)
    ]
    good = [latency for latency in latencies if latency != math.inf]
    files_per_s = (
        CONNECTIONS * 1000.0 / statistics.mean(good) * len(good) / len(latencies)
        if good else 0.0
    )
    result = {
        "attempted": quality["attempted"],
        "failed": quality["attempted"] - quality["ok"],
        "info": {
            "requests_timed": len(timed),
            "window_s": window,
            "removal_rate": quality["removal_rate"],
            "deob_bailouts": quality["bailouts"],
        },
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "files_per_s": files_per_s,
            "peak_rss_mb": rss,
            "ok_share": quality["ok"] / max(1, quality["attempted"]),
            "verdict_accuracy": quality["verdict_accuracy"],
            "technique_f1": quality["technique_f1"],
        }
        try:
            metrics["p50_ms"] = stats.percentile(latencies, 50)
            metrics["p95_ms"] = stats.percentile(latencies, 95)
        except stats.TooFewSamples as error:
            checks.expect(False, f"latency: {error}")
        result["metrics"] = metrics
        return result

    trace_path = run_dir / "trace.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    traced_warm, traced, _window, _setups, _rss = serve_phase(
        units, model, seconds / 2, 0, trace_path, 1
    )
    traced_quality = check_records(units, traced_warm + traced, checks)
    result["attempted"] += traced_quality["attempted"]
    result["failed"] += traced_quality["attempted"] - traced_quality["ok"]
    metrics = layers.from_trace(
        corpus.workload, trace_path, len(traced_warm) + len(traced), checks.failures
    )
    traced_good = [record[3] for record in scaled_records(traced) if record[2] == 200]
    traced_rate = (
        CONNECTIONS / statistics.mean(traced_good) * len(traced_good) / len(traced)
        if traced_good else 0.0
    )
    metrics["trace.overhead"] = 1.0 - traced_rate / files_per_s if files_per_s else 0.0
    metrics["deob.removal_rate"] = traced_quality["removal_rate"]
    # Request wall time minus the engine time of the batch that carried it.
    carried = layers.batch_items(trace_path)
    waits, overheads = [], []
    for index, pass_no, status, latency, _payload, _probe in traced:
        key = tracing.source_digest(corpora.variant(units[index].source, pass_no))
        if status == 200 and key in carried:
            wait, engine = carried[key]
            waits.append(wait * 1000.0)
            overheads.append((latency - engine) * 1000.0)
    metrics["serve.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    metrics["serve.overhead_ms"] = statistics.median(overheads) if overheads else 0.0
    metrics["serve.rejections"] = sum(1 for record in traced if record[2] in (429, 503))
    result["metrics"] = metrics
    return result

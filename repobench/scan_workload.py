"""``npm_scan`` and ``alexa_scan``: ``ScanCoordinator.run`` over crawled containers.

A run feeds the process under test (``scan_child.py``) one round at a
time: a fresh directory of containers (gzip tarballs or HTML pages) and a
fresh store.  A warm-up round loads lazy imports and is not timed.  An
untraced run gives each half of the population its own round kind.
*Batch* rounds use the CLI's default shard size, so each round is one
shard, as ``repro scan`` runs it; ``files_per_s`` is their units over their
time.  *Streamed* rounds put one unit in each shard, so every unit's
verdict is durable on its own; ``p50_ms``/``p95_ms`` are the per-unit times
to a durable verdict in them.  The streamed rounds' throughput and what
one-unit shards cost over the default are printed on the ``info`` line.
Untraced metrics cover whole passes over the population, so every run
measures the same units.  A traced run uses batch rounds only.  All times
are scaled to reference host speed by the probes around each round or unit
(``calibrate``).
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus as corpora
import layers
import stats
from calibrate import REFERENCE_S, local_probe, scaled
from common import (
    BENCH,
    CHILD_TIMEOUT,
    ROOT,
    CheckFailed,
    Checks,
    child_env,
    peak_rss_mb,
    read_json_line,
    start_processes,
    stop,
)


class ScanChild:
    """One ``scan_child.py`` process; ``spawn_s`` is spawn to ready."""

    def __init__(self, model: Path, scratch: Path, trace: Path | None) -> None:
        command = [
            sys.executable, str(BENCH / "scan_child.py"),
            "--model", str(model), "--scratch", str(scratch),
        ]
        if trace is not None:
            command += ["--trace", str(trace)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            read_json_line(self.process.stdout, "scan child")
        except CheckFailed:
            self.close()
            raise
        #: spawn to ready, unscaled (``calibrate.start_times`` scales it).
        self.spawn_s = time.perf_counter() - started

    def send(self, command: dict) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return read_json_line(self.process.stdout, "scan child")

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.send({"op": "exit"})
            except (BrokenPipeError, CheckFailed):
                pass
            try:
                self.process.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                stop(self.process)
        self.process.stdin.close()
        self.process.stdout.close()


#: ``shard_size`` of a batch round (the CLI default) and of a streamed round.
BATCH, STREAMED = None, 1


@dataclass
class Round:
    truth: dict  #: sha256 -> corpus.Unit
    store: Path
    reply: dict
    timed: bool
    streamed: bool
    start: int  #: position of the round's first container in the corpus stream


def write_round(corpus, start: int, count: int, directory: Path) -> dict:
    """Materialise ``count`` containers from ``start``, wrapping into later passes."""
    directory.mkdir(parents=True)
    truth: dict = {}
    containers = corpus.containers
    for offset in range(count):
        pass_no, index = divmod(start + offset, len(containers))
        if corpus.workload == "npm_scan":
            path = directory / f"pkg{start + offset:05d}.tgz"
            truth.update(corpora.write_package(path, containers[index], pass_no))
        else:
            path = directory / f"site{start + offset:05d}.html"
            truth.update(corpora.write_page(path, containers[index], pass_no))
    return truth


def whole_passes(rounds: list[Round], chunk: int, size: int) -> list[Round]:
    """The timed rounds that lie in passes over the population already completed."""
    done = max((item.start + chunk for item in rounds if item.timed), default=0)
    complete = done // size * size
    return [item for item in rounds if item.timed and item.start + chunk <= complete]


def scan_phase(corpus, chunk, model, seconds, min_units, run_dir, trace, setups, kinds):
    """Start ``setups`` children (the last one works), then scan rounds for ``seconds``.

    A warm-up round (the last group, emitted as pass -1) loads lazy imports
    and is not timed.  Timed rounds then scan the corpus order from its
    start, one group of ``chunk`` containers each; group ``k`` gets shard
    size ``kinds[k % len(kinds)]``, so with two kinds each half of the
    population (``Corpus.ordered`` with ``halves``) keeps its kind.  With
    ``min_units``, the phase runs on past ``seconds`` (up to 4x) until it
    has completed a pass over the population and the streamed rounds of its
    whole passes hold ``min_units`` units.
    """
    size = len(corpus.containers)
    rounds: list[Round] = []
    child, setup_times = start_processes(
        lambda last: ScanChild(model, run_dir / "scratch", trace if last else None), setups
    )

    def scan(position: int, timed: bool) -> None:
        number = len(rounds)
        directory = run_dir / f"in-{number}"
        shard_size = kinds[(position % size) // chunk % len(kinds)] if timed else BATCH
        truth = write_round(corpus, position, chunk, directory)
        store = run_dir / f"store-{number}"
        reply = child.send(
            {"op": "scan", "roots": [str(directory)], "store": str(store),
             "shard_size": shard_size}
        )
        rounds.append(Round(truth, store, reply, timed, shard_size is not None, position))

    def enough(elapsed: float) -> bool:
        if elapsed >= 4 * seconds:
            return True
        if elapsed < seconds:
            return False
        measured = whole_passes(rounds, chunk, size)
        return not min_units or (
            bool(measured)
            and sum(item.reply["scanned"] for item in measured if item.streamed) >= min_units
        )

    try:
        scan(-chunk, timed=False)
        started = time.perf_counter()
        position = 0
        while not enough(time.perf_counter() - started):
            scan(position, timed=True)
            position += chunk
        rss = peak_rss_mb(child.process.pid)
    finally:
        child.close()
    return rounds, setup_times, rss


def read_store(store: Path) -> tuple[dict, list[dict], list[Path]]:
    records, strays = {}, []
    for path in sorted((store / "objects").glob("*/*")):
        if path.suffix != ".json" or ".tmp" in path.name:
            strays.append(path)
            continue
        with open(path, encoding="utf-8") as handle:
            records[path.stem] = json.load(handle)
    with open(store / "manifest.jsonl", encoding="utf-8") as handle:
        manifest = [json.loads(line) for line in handle if line.strip()]
    return records, manifest, strays


def check_rounds(rounds: list[Round], checks: Checks) -> dict:
    """Store, manifest and verdict checks; quality over every unit attempted."""
    attempted = ok = correct = flow_timeouts = 0
    pairs = []
    for number, item in enumerate(rounds):
        records, manifest, strays = read_store(item.store)
        expected = set(item.truth)
        listed = [line["sha256"] for line in manifest if line["type"] == "unit"]
        checks.expect(not strays, f"round {number}: stray store files {strays[:3]}")
        checks.expect(
            set(records) == expected,
            f"round {number}: store holds {len(records)} records for {len(expected)} units",
        )
        checks.expect(
            sorted(listed) == sorted(expected),
            f"round {number}: manifest lists {len(listed)} units for {len(expected)}",
        )
        checks.expect(
            not any(line["type"] == "error" for line in manifest),
            f"round {number}: ingest errors in the manifest",
        )
        checks.expect(
            item.reply["scanned"] == len(expected),
            f"round {number}: scanned {item.reply['scanned']} of {len(expected)} units",
        )
        for sha, unit in item.truth.items():
            attempted += 1
            record = records.get(sha)
            if record is None or not record.get("ok"):
                checks.expect(False, f"round {number}: no verdict for {unit.name}")
                continue
            ok += 1
            flow_timeouts += bool(record.get("flow_timeout"))
            correct += record["transformed"] == unit.transformed
            reported = {entry["technique"] for entry in record["techniques"]}
            pairs.append((set(unit.labels), reported))
    return {
        "attempted": attempted,
        "ok": ok,
        "verdict_accuracy": correct / attempted if attempted else 0.0,
        "technique_f1": stats.micro_f1(pairs),
        "flow_timeouts": flow_timeouts,
    }


def unit_times(reply: dict) -> list[float]:
    """Streamed round: per-unit times at reference host speed (gap ``i`` ends at probe ``i + 1``)."""
    probes = reply["probes_s"]
    return [scaled(gap, local_probe(probes, i + 1)) for i, gap in enumerate(reply["gaps_s"])]


def round_time(item: Round) -> float:
    """Seconds one round took at reference host speed, probes left out."""
    reply = item.reply
    probes = reply["probes_s"]
    if not item.streamed:
        return scaled(reply["wall_s"] - sum(probes), statistics.median(probes))
    return sum(unit_times(reply)) + scaled(reply["tail_s"], local_probe(probes, len(probes) - 1))


def raw_time(item: Round) -> float:
    """Seconds one round took as measured, probes left out."""
    reply = item.reply
    if item.streamed:
        return sum(reply["gaps_s"]) + reply["tail_s"]
    return reply["wall_s"] - sum(reply["probes_s"])


def throughput(rounds: list[Round], streamed: bool = False, timer=round_time) -> float:
    """Units per second over the rounds of one kind: all their units over all their time."""
    chosen = [item for item in rounds if item.streamed == streamed]
    busy = sum(timer(item) for item in chosen)
    return sum(item.reply["scanned"] for item in chosen) / busy if busy else 0.0


def run(corpus, chunk, model, seconds, trace, run_dir, checks, setups) -> dict:
    plain_seconds = seconds / 2 if trace else seconds
    rounds, setup_times, rss = scan_phase(
        corpus, chunk, model, plain_seconds, 0 if trace else stats.samples_needed(95),
        run_dir / "plain", None, 1 if trace else setups,
        (BATCH,) if trace else (BATCH, STREAMED),
    )
    quality = check_rounds(rounds, checks)
    timed = [item for item in rounds if item.timed]
    # Untraced metrics cover whole passes only: the same units every run.
    measured = timed if trace else whole_passes(rounds, chunk, len(corpus.containers))
    checks.expect(
        any(not item.streamed for item in measured), "no batch round in a whole pass"
    )
    files_per_s = throughput(measured)
    result = {
        "attempted": quality["attempted"],
        "failed": quality["attempted"] - quality["ok"],
        "info": {
            "rounds_timed": len(timed),
            "rounds_measured": len(measured),
            "units_measured": sum(item.reply["scanned"] for item in measured),
            "triaged_share": sum(item.reply["triaged"] for item in measured)
            / max(1, sum(item.reply["scanned"] for item in measured)),
            "flow_timeouts": quality["flow_timeouts"],
            "host_speed": statistics.median(
                REFERENCE_S / probe for item in timed for probe in item.reply["probes_s"]
            ) if timed else 0.0,
        },
    }
    if not trace:
        # What one-unit shards cost over the default, on unscaled times (the
        # two kinds alternate, so they meet the same host on average).
        batch_raw = throughput(measured, timer=raw_time)
        streamed_raw = throughput(measured, streamed=True, timer=raw_time)
        result["info"]["streamed_files_per_s"] = throughput(measured, streamed=True)
        result["info"]["streamed_cost"] = 1.0 - streamed_raw / batch_raw if batch_raw else 0.0
        gaps = [
            math.inf if failed else unit_s * 1000.0
            for item in measured
            if item.streamed
            for unit_s, failed in zip(unit_times(item.reply), item.reply["failed"])
        ]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "files_per_s": files_per_s,
            "peak_rss_mb": rss,
            "ok_share": quality["ok"] / max(1, quality["attempted"]),
            "verdict_accuracy": quality["verdict_accuracy"],
            "technique_f1": quality["technique_f1"],
        }
        try:
            metrics["p50_ms"] = stats.percentile(gaps, 50)
            metrics["p95_ms"] = stats.percentile(gaps, 95)
        except stats.TooFewSamples as error:
            checks.expect(False, f"latency: {error}")
        result["metrics"] = metrics
        return result

    trace_path = run_dir / "trace.json"
    traced_rounds, _setups, _rss = scan_phase(
        corpus, chunk, model, seconds / 2, 0, run_dir / "traced", trace_path, 1, (BATCH,)
    )
    traced_quality = check_rounds(traced_rounds, checks)
    result["attempted"] += traced_quality["attempted"]
    result["failed"] += traced_quality["attempted"] - traced_quality["ok"]
    metrics = layers.from_trace(
        corpus.workload, trace_path, sum(item.reply["scanned"] for item in traced_rounds),
        checks.failures,
    )
    traced_rate = throughput([item for item in traced_rounds if item.timed])
    metrics["trace.overhead"] = 1.0 - traced_rate / files_per_s if files_per_s else 0.0
    result["metrics"] = metrics
    return result

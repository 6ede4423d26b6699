"""Paths, process handling, the build step and output checks shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus as corpora
from calibrate import start_probe, start_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: build outputs and per-run scratch, inside the checkout (git-ignored).
WORK = ROOT / ".repobench"

#: every input and every process under test hashes strings the same way.
HASH_SEED = "0"
#: detector trained once per source tree; the scale only has to give sane verdicts.
TRAIN_ARGS = ("--n-regular", "30", "--estimators", "12", "--seed", "0")
#: each process under test must answer within this many seconds.
CHILD_TIMEOUT = 120.0


class CheckFailed(Exception):
    """An output of the program is wrong, or a process under test failed."""


@dataclass
class Checks:
    """Correctness failures collected during a run (any one fails the run)."""

    failures: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.failures) < 50:
            self.failures.append(message)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def stop(process: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Signal a child and wait for it; kill it if it does not end."""
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def start_processes(start, setups: int):
    """Start ``setups`` processes under test one after another and keep the last.

    ``start(last)`` returns an object with ``spawn_s`` and ``close()``.  With
    more than one start, a start probe runs before the first start and after
    each one, so every start is scaled by the probes on either side.  Returns
    the last process and the scaled start times (empty for a single start).
    """
    probes = [start_probe()] if setups > 1 else []
    spawns: list[float] = []
    process = None
    for index in range(setups):
        if process is not None:
            process.close()
        process = start(index == setups - 1)
        spawns.append(process.spawn_s)
        if setups > 1:
            try:
                probes.append(start_probe())
            except BaseException:
                process.close()
                raise
    return process, start_times(spawns, probes) if probes else []


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("VmHWM missing from /proc status")


def source_tree_digest() -> str:
    """Key for build outputs: the program source and the build settings."""
    digest = hashlib.sha256(" ".join(TRAIN_ARGS).encode())
    digest.update(str(corpora.POPULATION_SEED).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_model(key: str) -> Path:
    """Train the detector once per source tree (the benchmark's build step)."""
    model = WORK / f"model-{key}.pkl"
    if model.exists():
        return model
    WORK.mkdir(parents=True, exist_ok=True)
    partial = model.with_suffix(f".tmp{os.getpid()}")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "train", "--out", str(partial), *TRAIN_ARGS],
        cwd=ROOT,
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=800,
    )
    os.replace(partial, model)
    print(f"build: trained detector in {time.perf_counter() - started:.1f}s -> {model.name}")
    return model


def ensure_population(workload: str, size: int, key: str) -> corpora.Corpus:
    """Generate a workload's population once per source tree; later runs reload it."""
    path = WORK / f"population-{workload}-{size}-{key}.json"
    if path.exists():
        return corpora.Corpus.from_json(path.read_text(encoding="utf-8"))
    started = time.perf_counter()
    population = corpora.POPULATIONS[workload](corpora.POPULATION_SEED, size)
    WORK.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".tmp{os.getpid()}")
    partial.write_text(population.to_json(), encoding="utf-8")
    os.replace(partial, path)
    print(f"build: generated {workload} population in {time.perf_counter() - started:.1f}s")
    return population


def read_json_line(stream, what: str) -> dict:
    line = stream.readline()
    if not line:
        raise CheckFailed(f"{what} closed its output")
    return json.loads(line)

"""Steadiness report: repeat a workload and compare each metric's spread with its bound.

Usage (from the root of a checkout)::

    python3 repobench/steadiness.py --workload npm_scan [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (``--first-seed`` onwards) for
``run_seconds`` from ``BENCHMARK.json``, then prints for every end-to-end
metric its median, the quartile spread ``(Q3 - Q1) / median`` as
``statistics.quantiles(values, n=4)`` gives it, the metric's bound, and a
verdict: ``steady`` under a third of the bound, ``within`` under the bound,
``NOISY`` beyond it.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    values: dict[str, list[float]] = {}
    failed = False
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if completed.returncode != 0 or result is None or not result["correct"]:
            failed = True
            print(f"seed {seed}: FAILED (exit {completed.returncode})\n{completed.stderr[-2000:]}")
            continue
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(f"{name}={value:.5g}" for name, value in row.items()))

    print(f"\n{args.workload}: {len(values.get('setup_s', []))} runs of {seconds:g} s")
    print(f"{'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values.get(name, [])
        if len(series) < 2:
            print(f"{name:18} {'-':>12}")
            continue
        median, _spread, share = stats.quartile_spread(series)
        verdict = "steady" if share < bound / 3 else "within" if share <= bound else "NOISY"
        print(f"{name:18} {median:12.5g} {share:8.3f} {bound:6.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

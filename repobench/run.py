"""Repository benchmark: crawl scans and deobfuscation serving, end to end.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload npm_scan --seed 1 --seconds 25 --trace 0

Workloads (``repobench/README.md`` says why each exists and what it loads):

``npm_scan``       ``ScanCoordinator.run`` over gzip tarballs of npm-like packages
``alexa_scan``     the same scan over crawled Alexa-like HTML pages
``malware_serve``  ``python -m repro serve``, closed loop over 2 keep-alive
                   connections, one malicious-like script per ``/classify``
                   request with ``"deob": true``

The process under test is always a separate process started from this
checkout's ``src``.  The first run in a checkout builds: it trains the
detector and generates the workload populations into ``.repobench/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced and prints the per-layer metrics, with
``trace.overhead`` comparing the halves.  Every run checks the program's
outputs against the planted truth and exits 1 when a check fails.  The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import scan_workload  # noqa: E402
import serve_workload  # noqa: E402
import tracing  # noqa: E402
from common import (  # noqa: E402
    HASH_SEED,
    ROOT,
    WORK,
    CheckFailed,
    Checks,
    ensure_model,
    ensure_population,
    source_tree_digest,
)

#: workload -> (population size, containers per group): a scan round is one
#: group; serve sizes are per origin.  Scan populations hold an even number of
#: groups (one half per round kind), and a pass over one takes about 25 s at
#: the reference host's speed, so a run completes one.
SIZES = {"npm_scan": (600, 6), "alexa_scan": (1680, 15), "malware_serve": (100, 10)}
#: ``--size smoke``: the same code paths on minimal populations (self-tests).
SMOKE_SIZES = {"npm_scan": (20, 2), "alexa_scan": (16, 2), "malware_serve": (4, 2)}
#: process starts per untraced run; ``setup_s`` is their median.
SETUPS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("files_per_s", "files/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "fraction"),
    ("verdict_accuracy", "fraction"),
    ("technique_f1", "fraction"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Corpus generation hashes tuples of strings: pin the hash seed, start over.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        command = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        return subprocess.run(command, env=env).returncode
    sys.path.insert(0, str(ROOT / "src"))

    key = source_tree_digest()
    model = ensure_model(key)
    size, chunk = (SMOKE_SIZES if args.size == "smoke" else SIZES)[args.workload]
    # Scans give each half of the population its own round kind (scan_workload).
    halves = args.workload != "malware_serve"
    corpus = ensure_population(args.workload, size, key).ordered(args.seed, chunk, halves)
    print(
        f"corpus {args.workload} seed={args.seed} sha256={corpus.digest} "
        f"containers={len(corpus.containers)} units={len(corpus.units)} bytes={corpus.n_bytes}"
    )

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    checks = Checks()
    trace = bool(args.trace)
    try:
        if args.workload == "malware_serve":
            result = serve_workload.run(
                corpus, model, args.seconds, trace, run_dir, checks, SETUPS
            )
        else:
            result = scan_workload.run(
                corpus, chunk, model, args.seconds, trace, run_dir, checks, SETUPS
            )
    except (CheckFailed, tracing.TraceInstallError, subprocess.SubprocessError, OSError) as error:
        print(f"FAILED: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("info " + json.dumps(result["info"], sort_keys=True))
    units = dict(layers.PER_LAYER if trace else END_TO_END)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"check failed: metrics not measured: {missing}", file=sys.stderr)
    unbounded = sorted(name for name, value in result["metrics"].items() if not math.isfinite(value))
    if unbounded:
        # Failed units make a percentile infinite; JSON has no infinity.
        print(f"check failed: metrics not finite: {unbounded}", file=sys.stderr)
        result["metrics"] = {
            name: value if math.isfinite(value) else sys.float_info.max
            for name, value in result["metrics"].items()
        }
    correct = not checks.failures and not missing and not unbounded
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                    if name in result["metrics"]
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Process under test for the scan workloads.

Runs ``ScanCoordinator.run`` — the entry point behind ``repro scan`` — with
a model, ``triage="prefilter"`` and ``n_workers=1``, once per command read
from stdin, and answers with one JSON line per command on stdout.

A command's ``shard_size`` picks one of two round kinds.  ``null`` keeps
the CLI default (256 units per shard, so a round is one shard): the round's
wall time gives throughput, and the host-speed probe runs on a thread every
30 ms during the round (``calibrate.Sampler``), its time taken off the
round's.  ``1`` streams
one unit per shard: the gaps between consecutive ``on_shard`` callbacks are
the per-unit times to a durable verdict, and one probe
(``calibrate.kernel``) runs at the start and in each callback, outside the
gaps.

Usage (driven by ``run.py``)::

    python repobench/scan_child.py --model M --scratch DIR [--trace OUT]

Commands: ``{"op": "scan", "roots": [...], "store": "...", "shard_size": N | null}``
and ``{"op": "exit"}``.  With ``--trace`` the layer wrappers and GC
callbacks are installed before anything else and the spans are written to
``OUT`` on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: modules the scan path imports, loaded before wrappers rebind globals.
SCAN_MODULES = (
    "repro.scan.coordinator",
    "repro.scan.worker",
    "repro.scan.manifest",
    "repro.detector.pipeline",
    "repro.detector.batch",
    "repro.features.extractor",
    "repro.features.fastpath",
    "repro.flows.graph",
    "repro.rules.context",
    "repro.analysis.waves",
)


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import TARGETS, Tracer, install

        tracer = Tracer()
        install(
            tracer,
            targets=tuple(t for t in TARGETS if not t.layer.startswith("serve.")),
            preload=SCAN_MODULES,
        )
        tracer.watch_gc()

    from calibrate import Sampler, kernel
    from repro.scan.coordinator import ScanConfig, ScanCoordinator
    from repro.scan.worker import ShardWorker

    def config(roots: list[str], store: str, shard_size=None, on_shard=None) -> ScanConfig:
        sizing = {} if shard_size is None else {"shard_size": shard_size}
        return ScanConfig(
            roots=roots,
            store=store,
            model_path=args.model,
            triage="prefilter",
            n_workers=1,
            on_shard=on_shard,
            **sizing,
        )

    # Model load and engine build: the set-up a scan pays before its first unit.
    ShardWorker(ScanCoordinator(config([], args.scratch)).worker_config)
    _reply({"ready": True})

    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            break
        streamed = command["shard_size"] is not None
        gaps: list[float] = []
        failed: list[bool] = []
        probes = [kernel()] if streamed else []
        resumed = [time.perf_counter()]

        def on_shard(outcome, _metrics) -> None:
            mark = time.perf_counter()
            gaps.append(mark - resumed[0])
            failed.append(bool(outcome.errors))
            if streamed:
                probes.append(kernel())
            resumed[0] = time.perf_counter()

        started = resumed[0] = time.perf_counter()
        scan = config(command["roots"], command["store"], command["shard_size"], on_shard)
        if streamed:
            stats = ScanCoordinator(scan).run()
        else:
            with Sampler() as sampler:
                stats = ScanCoordinator(scan).run()
            probes = sampler.probes
        ended = time.perf_counter()
        _reply(
            {
                "wall_s": ended - started,
                "gaps_s": gaps,
                "failed": failed,
                "probes_s": probes,
                "tail_s": ended - resumed[0],
                "scanned": stats.scanned,
                "ok": stats.ok,
                "errors": stats.errors,
                "triaged": stats.triaged,
                "unique": stats.unique,
                "ingest_errors": stats.ingest_errors,
            }
        )
    if tracer is not None:
        tracer.dump(args.trace)
    _reply({"bye": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

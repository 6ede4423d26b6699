"""Per-layer metrics of a traced run: what each layer costs on each workload.

Which end-to-end metric each layer should move, and on which workload,
is tabulated in ``repobench/README.md``.  :data:`REQUIRED_LAYERS` holds
the layers that do most of a workload's work: a traced run in which one
of them records no span fails, because its wrappers no longer see the
calls the program makes.
"""

from __future__ import annotations

import json
from pathlib import Path

import tracing

_SELF_TIME = (
    "js.lexer", "js.parser", "js.flat", "js.scope", "flows.cfg", "flows.dfg",
    "flows.interproc", "rules.triage", "rules.analyze", "rules.analyze_source",
    "features.static", "features.ngrams", "ml.predict", "deob.run", "deob.passes",
    "js.codegen", "scan.coordinator", "scan.ingest", "scan.store", "scan.fingerprint",
    "corpus.html_extract", "serve.batch",
)

#: every per-layer metric and its unit, in output order.
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    (f"{layer}.self_s", "s") for layer in _SELF_TIME
) + (
    ("js.lexer.calls_per_unit", "calls/unit"),
    ("js.parser.calls_per_unit", "calls/unit"),
    ("flows.dfg.timeouts", "count"),
    ("flows.interproc.calls", "count"),
    ("flows.interproc.decoder_share", "fraction"),
    ("flows.interproc.degraded", "count"),
    ("rules.triage.calls", "count"),
    ("rules.triage.decided_share", "fraction"),
    ("rules.analyze_source.calls_per_unit", "calls/unit"),
    ("ml.predict.rows_per_call", "rows/call"),
    ("deob.iterations_per_file", "iter/file"),
    ("deob.bailouts", "count"),
    ("deob.removal_rate", "fraction"),
    ("js.codegen.calls_per_unit", "calls/unit"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size_mean", "items/batch"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejections", "count"),
    ("scan.ingest.errors", "count"),
    ("scan.store.puts", "count"),
    ("gc.pause_s", "s"),
    ("gc.gen0.pause_s", "s"),
    ("gc.gen1.pause_s", "s"),
    ("gc.gen2.pause_s", "s"),
    ("gc.gen2_collections", "count"),
    ("share.analysis", "fraction"),
    ("share.triage_ingest", "fraction"),
    ("share.deob", "fraction"),
    ("trace.units", "count"),
    ("trace.overhead", "fraction"),
)

#: layers that must record spans on a workload, or the traced run fails.
REQUIRED_LAYERS = {
    "npm_scan": (
        "js.lexer", "js.parser", "js.flat", "js.scope", "flows.cfg", "flows.dfg",
        "flows.interproc", "rules.analyze", "features.static", "features.ngrams",
        "ml.predict", "scan.ingest", "scan.store",
    ),
    "alexa_scan": (
        "js.lexer", "rules.triage", "scan.ingest", "scan.store", "corpus.html_extract",
    ),
    "malware_serve": (
        "js.parser", "js.codegen", "deob.run", "deob.passes", "rules.analyze_source",
        "serve.batch", "ml.predict",
    ),
}

#: self-time groups whose share of all traced self time a workload was chosen for:
#: analysis on npm_scan (> 1/2), triage and ingest on alexa_scan (above its
#: npm_scan share), the deob path on malware_serve (> 1/2).
SHARE_GROUPS = {
    "share.analysis": (
        "js.parser", "js.scope", "flows.cfg", "flows.dfg", "flows.interproc",
        "rules.analyze", "features.static", "features.ngrams",
    ),
    "share.triage_ingest": (
        "rules.triage", "js.lexer", "scan.ingest", "corpus.html_extract", "scan.store",
    ),
    "share.deob": ("deob.run", "deob.passes", "js.codegen", "rules.analyze_source"),
}


def from_trace(workload: str, trace_path: Path, units: int, failures: list[str]) -> dict:
    """Per-layer metrics of one trace dump; missing required layers go to ``failures``."""
    with open(trace_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    totals = tracing.layer_totals(dump["spans"])
    counters = dump["counters"]
    for layer in REQUIRED_LAYERS[workload]:
        if not totals.get(layer, {}).get("calls"):
            failures.append(f"traced run: layer {layer} recorded no spans on {workload}")

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return totals.get(layer, {}).get("calls", 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    total_self = sum(entry["self_s"] for entry in totals.values())
    metrics = {f"{layer}.self_s": self_s(layer) for layer in _SELF_TIME}
    metrics.update(
        {
            "js.lexer.calls_per_unit": ratio(calls("js.lexer"), units),
            "js.parser.calls_per_unit": ratio(calls("js.parser"), units),
            "flows.dfg.timeouts": counters.get("flows.dfg.timeouts", 0),
            "flows.interproc.calls": calls("flows.interproc"),
            "flows.interproc.decoder_share": ratio(
                counters.get("flows.interproc.with_decoder", 0), calls("flows.interproc")
            ),
            "flows.interproc.degraded": counters.get("flows.interproc.degraded", 0),
            "rules.triage.calls": calls("rules.triage"),
            "rules.triage.decided_share": ratio(
                counters.get("rules.triage.decided", 0), calls("rules.triage")
            ),
            "rules.analyze_source.calls_per_unit": ratio(calls("rules.analyze_source"), units),
            "ml.predict.rows_per_call": ratio(
                counters.get("ml.predict.rows", 0), calls("ml.predict")
            ),
            "deob.iterations_per_file": ratio(
                counters.get("deob.iterations", 0), calls("deob.run")
            ),
            "deob.bailouts": counters.get("deob.bailouts", 0),
            "js.codegen.calls_per_unit": ratio(calls("js.codegen"), units),
            "serve.batch_size_mean": ratio(
                counters.get("serve.batch_items", 0), counters.get("serve.batches", 0)
            ),
            "scan.ingest.errors": counters.get("scan.ingest.errors", 0),
            "scan.store.puts": calls("scan.store"),
            "gc.pause_s": sum(dump["gc_pause"].values()),
            "gc.gen0.pause_s": dump["gc_pause"].get("gen0", 0.0),
            "gc.gen1.pause_s": dump["gc_pause"].get("gen1", 0.0),
            "gc.gen2.pause_s": dump["gc_pause"].get("gen2", 0.0),
            "gc.gen2_collections": dump["gc_collections"].get("gen2", 0),
            "trace.units": units,
        }
    )
    for name, layers in SHARE_GROUPS.items():
        metrics[name] = ratio(sum(self_s(layer) for layer in layers), total_self)
    # Serve-side figures that need the client's view; the serve workload fills them.
    for name in ("deob.removal_rate", "serve.queue_wait_ms", "serve.overhead_ms",
                 "serve.rejections", "trace.overhead"):
        metrics.setdefault(name, 0.0)
    return metrics


def batch_items(trace_path: Path) -> dict[str, tuple[float, float]]:
    """Serve: source digest -> (queue wait s, engine s of the batch that carried it)."""
    with open(trace_path, encoding="utf-8") as handle:
        items = json.load(handle)["batch_items"]
    return {digest: (wait, engine) for digest, wait, engine in items}

"""Span tracing of the program's layers, installed from outside the program.

The benchmark times each layer from outside: :func:`install` replaces the
public functions named in :data:`TARGETS` with wrappers that record one
span per call (layer, start, end, parent span, root span) and a few
counters read off the call's arguments or result.  Nothing inside
``src/`` changes.  Spans stay in memory and are written once, by
:meth:`Tracer.dump`, when the process under test exits.

Coverage rules (a silent gap would misattribute time):

- every ``repro.*`` module global bound to a wrapped function is rebound
  to the wrapper, so ``from x import f`` copies are traced too;
- a target that no longer resolves raises :class:`TraceInstallError` at
  install time instead of recording nothing.

:func:`layer_totals` turns the spans into per-layer self time (span duration
minus the part of it covered by child spans) and call counts.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


class TraceInstallError(RuntimeError):
    """A traced target is missing: the layer map no longer matches the code."""


@dataclass(frozen=True)
class Target:
    """One traced callable: ``qualname`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    qualname: str
    kind: str = "call"  #: "call" | "generator" | "subclass_method" | "serve_batch"
    hook: str | None = None  #: name of a counter hook in :data:`_HOOKS`


TARGETS: tuple[Target, ...] = (
    Target("js.lexer", "repro.js.lexer", "Lexer.scan_all"),
    Target("js.parser", "repro.js.parser", "Parser.parse_program"),
    Target("js.flat", "repro.js.flat", "build_flat_index"),
    Target("js.scope", "repro.js.scope", "analyze_scopes"),
    Target("flows.cfg", "repro.flows.cfg", "build_control_flow"),
    Target("flows.dfg", "repro.flows.dfg", "build_data_flow", hook="dfg"),
    Target("flows.interproc", "repro.flows.interproc", "analyze_program", hook="interproc"),
    Target("rules.triage", "repro.rules.engine", "RuleEngine.triage", hook="triage"),
    Target("rules.analyze", "repro.rules.engine", "RuleEngine.analyze"),
    Target("rules.analyze_source", "repro.rules.engine", "RuleEngine.analyze_source"),
    Target("features.static", "repro.features.static_features", "compute_static_features"),
    Target("features.ngrams", "repro.features.ngrams", "hashed_ngram_vector"),
    Target("features.ngrams", "repro.features.ngrams", "ast_ngram_vector"),
    Target("features.ngrams", "repro.features.ngrams", "token_ngram_vector"),
    Target("ml.predict", "repro.detector.level1", "Level1Detector.predict_proba_features", hook="rows"),
    Target("ml.predict", "repro.detector.level2", "Level2Detector.predict_proba_features", hook="rows"),
    Target("deob.run", "repro.deob.engine", "DeobEngine.run", hook="deob"),
    Target("deob.passes", "repro.deob.base", "DeobPass.rewrite", kind="subclass_method"),
    Target("js.codegen", "repro.js.codegen", "generate"),
    Target("scan.coordinator", "repro.scan.coordinator", "ScanCoordinator.run"),
    Target("scan.ingest", "repro.scan.manifest", "iter_ingest", kind="generator", hook="ingest"),
    Target("scan.store", "repro.scan.store", "ResultStore.put"),
    Target("scan.fingerprint", "repro.analysis.waves", "structural_fingerprint"),
    Target("corpus.html_extract", "repro.corpus.html_extract", "extract_units"),
    Target("serve.batch", "repro.serve.batcher", "_classify_split", kind="serve_batch"),
)


class Tracer:
    """In-memory span recorder plus layer counters and GC pause totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  #: [layer, start, end, parent, root]
        self.counters: dict[str, float] = {}
        self.batch_items: list[list] = []  #: serve: [source digest, wait_s, engine_s]
        self.gc_pause: dict[str, float] = {}
        self.gc_collections: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._gc_started = 0.0

    # -- spans -----------------------------------------------------------------

    def open(self, layer: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            root = self.spans[stack[0]][4] if stack else index
            self.spans.append([layer, time.perf_counter(), 0.0, parent, root])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- garbage collector -------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        generation = f"gen{info['generation']}"
        pause = time.perf_counter() - self._gc_started
        self.gc_pause[generation] = self.gc_pause.get(generation, 0.0) + pause
        self.gc_collections[generation] = self.gc_collections.get(generation, 0) + 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": self.counters,
                    "batch_items": self.batch_items,
                    "gc_pause": self.gc_pause,
                    "gc_collections": self.gc_collections,
                },
                handle,
            )


# -- counter hooks: (tracer, args, result) ------------------------------------


def _hook_dfg(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is None:  # the DFG deadline tripped
        tracer.count("flows.dfg.timeouts")


def _hook_interproc(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.degraded:
        tracer.count("flows.interproc.degraded")
    if result.decoders:
        tracer.count("flows.interproc.with_decoder")


def _hook_triage(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.decided:
        tracer.count("rules.triage.decided")


def _hook_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("ml.predict.rows", len(args[1]))


def _hook_deob(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("deob.iterations", result.report.iterations)
    if result.report.bailed is not None:
        tracer.count("deob.bailouts")


def _hook_ingest(tracer: Tracer, args: tuple, event: Any) -> None:
    if event[0] == "error":
        tracer.count("scan.ingest.errors")


_HOOKS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "dfg": _hook_dfg,
    "interproc": _hook_interproc,
    "triage": _hook_triage,
    "rows": _hook_rows,
    "deob": _hook_deob,
    "ingest": _hook_ingest,
}


def source_digest(source: str) -> str:
    """Short key that matches a served script to its batch record."""
    return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()[:16]


# -- wrappers -----------------------------------------------------------------


def _wrap_call(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    hook = _HOOKS.get(target.hook) if target.hook else None
    layer = target.layer

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    """One span per ``next()`` into the generator (the consumer's time is excluded)."""
    hook = _HOOKS.get(target.hook) if target.hook else None
    layer = target.layer

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            index = tracer.open(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, args, item)
            yield item

    return traced


def _wrap_serve_batch(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    """``_classify_split(engine, plain, deob, k, threshold)``: queue wait and batch size."""

    @functools.wraps(fn)
    def traced(engine, plain, deob, *args, **kwargs):
        started_loop_clock = time.monotonic()  # the event loop's clock
        items = list(plain) + list(deob)
        index = tracer.open(target.layer)
        try:
            result = fn(engine, plain, deob, *args, **kwargs)
        finally:
            tracer.close(index)
        span = tracer.spans[index]
        engine_s = span[2] - span[1]
        tracer.count("serve.batches")
        tracer.count("serve.batch_items", len(items))
        for item in items:
            tracer.batch_items.append(
                [
                    source_digest(item.source),
                    max(0.0, started_loop_clock - item.enqueued_at),
                    engine_s,
                ]
            )
        return result

    return traced


def _wrapper_for(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.kind == "serve_batch":
        return _wrap_serve_batch(tracer, target, fn)
    if target.kind == "generator":
        return _wrap_generator(tracer, target, fn)
    return _wrap_call(tracer, target, fn)


class Installation:
    """What :func:`install` replaced, so :meth:`remove` can restore it."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


def _resolve(module: Any, target: Target) -> tuple[Any, str, Any]:
    """(owner, attribute name, original callable) for one target."""
    owner_name, _, attr = target.qualname.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None:
            raise TraceInstallError(f"{target.module}.{owner_name} does not resolve")
        if attr not in vars(owner):
            raise TraceInstallError(f"{target.module}.{target.qualname} does not resolve")
        return owner, attr, vars(owner)[attr]
    original = getattr(module, attr, None)
    if not callable(original):
        raise TraceInstallError(f"{target.module}.{target.qualname} does not resolve")
    return owner, attr, original


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(
    tracer: Tracer, targets: tuple[Target, ...] = TARGETS, preload: tuple[str, ...] = ()
) -> Installation:
    """Wrap every target; raise :class:`TraceInstallError` if one is missing.

    ``preload`` names modules the traced entry point imports, so their
    by-name copies of wrapped functions exist when globals are rebound.
    """
    for name in preload:
        importlib.import_module(name)
    installation = Installation()
    functions: dict[int, tuple[Any, Any]] = {}  #: id(original) -> (original, wrapper)
    for target in targets:
        module = importlib.import_module(target.module)
        owner, attr, original = _resolve(module, target)
        if target.kind == "subclass_method":
            classes = [sub for sub in _subclasses(owner) if attr in vars(sub)]
            if not classes:
                raise TraceInstallError(f"no subclass of {target.qualname} defines {attr}")
            for sub in classes:
                installation.replace(sub, attr, _wrapper_for(tracer, target, vars(sub)[attr]))
            continue
        wrapper = _wrapper_for(tracer, target, original)
        installation.replace(owner, attr, wrapper)
        if owner is module:
            functions[id(original)] = (original, wrapper)
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            pair = functions.get(id(value))
            if pair is not None and value is pair[0]:
                installation.replace(module, name, pair[1])
    return installation


# -- analysis of a dump -------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result: list[float] = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(max(0.0, (end - start) - covered))
    return result


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` over a span list."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return totals

"""Shard workers: per-process engine setup, durable per-unit results.

Each worker process builds one :class:`BatchInferenceEngine` at pool
startup (model loaded from disk, or model-free rules-only triage) and
then processes whole shards: classify the shard as one batch, persist
every verdict into the content-addressed store *as it is produced*, and
append progress records to an append-only shard log.

Durability contract: a unit is "done" exactly when its record hits the
store (atomic put).  A worker — or the whole coordinator — killed
mid-shard loses only the units after the last put; everything before it
is skipped on resume.  The shard log is forensics and progress, not the
source of truth.

Shard log line types (JSONL)::

    {"type": "result", "sha256": ..., "ok": ..., "triaged": ...}
    {"type": "checkpoint", "shard": i, "done": n, "total": m}
    {"type": "shard_done", "shard": i, "ok": ..., "errors": ..., "wall_s": ...}

``REPRO_SCAN_CRASH_AFTER_UNITS=N`` is a test hook: the worker hard-exits
(``os._exit``) after persisting N units, simulating a mid-scan kill
without cooperation from signal handlers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.corpus.filters import MAX_BYTES
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.scan.manifest import ScanUnit
from repro.scan.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detector.pipeline import DetectionResult


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its engine."""

    store_root: str
    model_path: str | None = None  #: ``None`` => model-free rules-only triage
    model_digest: str = ""  #: short content digest of the model artifact
    triage: str = "off"
    deob: bool = False
    fingerprint: bool = True
    k: int = DEFAULT_K
    threshold: float = DEFAULT_THRESHOLD
    max_source_bytes: int | None = MAX_BYTES
    checkpoint_every: int = 32

    @property
    def engine_key(self) -> str:
        """Identity of the verdict-producing configuration.

        Stored on every record; a re-scan only skips a hash when its
        persisted record was produced by an identical configuration, so
        swapping models or toggling deob invalidates stale results.
        """
        mode = f"model={self.model_digest}" if self.model_path else "rules-only"
        return (
            f"{mode}|triage={self.triage}|deob={int(self.deob)}"
            f"|k={self.k}|t={self.threshold}"
        )


@dataclass(frozen=True)
class ShardTask:
    """One shard of pre-deduplicated units plus its log destination."""

    index: int
    units: tuple[ScanUnit, ...]
    log_path: str


@dataclass
class ShardOutcome:
    """What one shard did (the coordinator folds these into ScanStats)."""

    index: int
    units: int = 0
    ok: int = 0
    errors: int = 0
    triaged: int = 0
    deob_changed: int = 0
    wall_time: float = 0.0
    error_kinds: dict[str, int] = field(default_factory=dict)


def _crash_hook() -> None:
    """Test hook: hard-exit after N persisted units (simulated kill)."""
    limit = os.environ.get("REPRO_SCAN_CRASH_AFTER_UNITS")
    if not limit:
        return
    global _UNITS_PERSISTED
    _UNITS_PERSISTED += 1
    if _UNITS_PERSISTED >= int(limit):
        os._exit(17)


_UNITS_PERSISTED = 0


def build_record(
    unit: ScanUnit,
    result: "DetectionResult",
    engine_key: str,
    fingerprint: str | None,
) -> dict:
    """JSON record persisted per unit (content-addressed, deterministic).

    Provenance stays in the manifest (the same content can appear at
    many origins); wall-clock fields are deliberately excluded so a
    resumed run merges byte-identically to an uninterrupted one.
    """
    record: dict = {
        "sha256": unit.sha256,
        "bytes": unit.size,
        "engine_key": engine_key,
        "ok": result.ok,
        "triaged": result.triaged,
    }
    if result.error is not None:
        record["error"] = {
            "kind": result.error.kind,
            "message": result.error.message,
        }
    else:
        record["level1"] = (
            sorted(result.level1) if result.transformed else ["regular"]
        )
        record["transformed"] = result.transformed
        if result.flow_timeout:
            record["flow_timeout"] = True
        record["techniques"] = [
            {"technique": technique, "confidence": round(confidence, 4)}
            for technique, confidence in result.techniques
        ]
    record["findings"] = [
        {
            "rule_id": finding.rule_id,
            "technique": finding.technique,
            "confidence": round(finding.confidence, 4),
        }
        for finding in result.findings
    ]
    if fingerprint is not None:
        record["fingerprint"] = fingerprint
    if result.deob is not None:
        report = result.deob.report
        record["deob"] = {
            "changed": result.deob.changed,
            "passes_applied": report.passes_applied,
            "techniques_removed": report.techniques_removed,
            "total_rewrites": report.total_rewrites,
        }
    return record


class ShardWorker:
    """One process's scanning engine plus its store handle."""

    def __init__(self, config: WorkerConfig) -> None:
        from repro.detector.batch import BatchInferenceEngine

        self.config = config
        self.store = ResultStore(config.store_root)
        if config.model_path is None:
            self.engine = BatchInferenceEngine(
                None,
                triage="only",
                cache_size=0,
                max_source_bytes=config.max_source_bytes,
            )
        else:
            from repro.detector.pipeline import TransformationDetector

            detector = TransformationDetector.load(config.model_path)
            self.engine = BatchInferenceEngine(
                detector,
                n_workers=1,  # parallelism lives at the shard level
                triage=config.triage,
                cache_size=0,  # shards arrive globally deduplicated
                max_source_bytes=config.max_source_bytes,
            )

    def _fingerprint(self, unit: ScanUnit, result: "DetectionResult") -> str | None:
        """The unit's structural fingerprint, parsing only when it must.

        Feature extraction already digested the classified source's flat
        index; that is the unit's own fingerprint unless deob rewrote the
        source.  Triaged units (never extracted) and deob-rewritten units
        are parsed here.
        """
        if not self.config.fingerprint or not result.ok:
            return None
        if result.fingerprint is not None and (
            result.deob is None or not result.deob.changed
        ):
            return result.fingerprint
        from repro.analysis import waves

        try:
            return waves.structural_fingerprint(unit.source)
        except (SyntaxError, ValueError, RecursionError):
            return None

    def process(self, task: ShardTask) -> ShardOutcome:
        """Classify one shard, persisting each verdict as it lands."""
        t0 = time.perf_counter()
        units = list(task.units)
        outcome = ShardOutcome(index=task.index, units=len(units))
        batch = self.engine.classify(
            [unit.source for unit in units],
            k=self.config.k,
            threshold=self.config.threshold,
            deob=self.config.deob,
        )
        engine_key = self.config.engine_key
        every = max(1, self.config.checkpoint_every)
        with open(task.log_path, "a", encoding="utf-8") as log:
            for done, (unit, result) in enumerate(zip(units, batch.results), 1):
                record = build_record(
                    unit, result, engine_key, self._fingerprint(unit, result)
                )
                self.store.put(unit.sha256, record)
                _crash_hook()
                if result.ok:
                    outcome.ok += 1
                else:
                    outcome.errors += 1
                    kind = result.error.kind
                    outcome.error_kinds[kind] = outcome.error_kinds.get(kind, 0) + 1
                if result.triaged:
                    outcome.triaged += 1
                if result.deob is not None and result.deob.changed:
                    outcome.deob_changed += 1
                log.write(
                    json.dumps(
                        {
                            "type": "result",
                            "sha256": unit.sha256,
                            "ok": result.ok,
                            "triaged": result.triaged,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                if done % every == 0:
                    log.write(
                        json.dumps(
                            {
                                "type": "checkpoint",
                                "shard": task.index,
                                "done": done,
                                "total": len(units),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                    log.flush()
            outcome.wall_time = time.perf_counter() - t0
            log.write(
                json.dumps(
                    {
                        "type": "shard_done",
                        "shard": task.index,
                        "ok": outcome.ok,
                        "errors": outcome.errors,
                        "wall_s": round(outcome.wall_time, 3),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        return outcome


_WORKER: ShardWorker | None = None


def _init_worker(config: WorkerConfig) -> None:
    """Process-pool initializer: build the engine once per worker."""
    global _WORKER
    _WORKER = ShardWorker(config)


def _process_shard(task: ShardTask) -> ShardOutcome:
    """Pool entry point (module-level, picklable)."""
    assert _WORKER is not None, "_init_worker must run first"
    return _WORKER.process(task)

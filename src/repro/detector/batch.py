"""Single-pass, parallel, fault-isolated batch inference engine.

The paper's measurement study (§IV) classifies hundreds of thousands of
scripts; this module provides the substrate for that scale:

- **one-pass extraction** — each source is parsed and flow-enhanced exactly
  once, then projected into both the level-1 and level-2 vector spaces via
  :class:`~repro.features.extractor.PairedFeatureExtractor`; the same pass
  yields the script's structural fingerprint (§IV-C waves) from the flat
  index, so no consumer parses the script again to cluster it;
- **parallel extraction** — feature extraction (the dominant cost) fans out
  across a ``ProcessPoolExecutor``; ``n_workers=1`` is an in-process serial
  fallback with bit-identical output;
- **per-file fault isolation** — parse errors, ``RecursionError``, and
  oversize inputs become per-file :class:`DetectionError` results instead of
  aborting the batch;
- **LRU feature cache** — keyed by source hash, so repeated scripts (the
  §IV-C malicious "waves" are near-duplicates) skip extraction entirely;
- **rules-only triage** — the signature engine (``repro.rules``) can
  pre-empt extraction: in ``prefilter`` mode a decisive text/token-stage
  finding short-circuits the full pipeline for that file, and in ``only``
  mode every verdict comes from staged rule evaluation with no model at
  all (the engine then works without a detector).
"""

from __future__ import annotations

import hashlib
import logging
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.corpus.filters import MAX_BYTES
from repro.detector.level1 import Level1Detector
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD, Level2Detector
from repro.features.extractor import PairedFeatureExtractor
from repro.features.ngrams import unit_sequence_fingerprint
from repro.flows.graph import enhance
from repro.rules.engine import RuleEngine, TriageResult, default_engine
from repro.rules.findings import Finding, max_confidence_by_technique
from repro.transform.base import OBFUSCATION_TECHNIQUES, Technique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.detector.pipeline import DetectionResult, TransformationDetector

#: outcome tuples:
#: ("ok", vec1, vec2, df_available, flow_timeout, findings, fingerprint)
#: | ("err", kind, message)
_Outcome = tuple

logger = logging.getLogger(__name__)

#: Triage modes accepted by :class:`BatchInferenceEngine`.
TRIAGE_MODES = ("off", "prefilter", "only")


@dataclass(frozen=True)
class DetectionError:
    """Why one file of a batch could not be classified."""

    kind: str  #: "oversize" | "parse" | "recursion" | "internal"
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class BatchStats:
    """Summary counters for one batch run."""

    files: int = 0
    ok: int = 0
    errors: int = 0
    cache_hits: int = 0
    df_timeouts: int = 0
    #: files whose flow analysis (DFG timeout or interproc budget) degraded
    flow_timeouts: int = 0
    wall_time: float = 0.0
    extract_time: float = 0.0
    predict_time: float = 0.0
    n_workers: int = 1
    #: files whose verdict came from the rules-only triage path
    triage_hits: int = 0
    #: wall time spent inside staged rule evaluation
    rules_time: float = 0.0
    #: findings per rule id across the whole batch
    rule_hits: dict[str, int] = field(default_factory=dict)
    #: files normalized through the deobfuscation pipeline (``deob=True``)
    deob_files: int = 0
    #: deob pass applications across the batch (pass fired and changed code)
    deob_passes: int = 0
    #: technique signatures removed by normalization across the batch
    deob_removals: int = 0
    #: wall time spent inside the deobfuscation engine
    deob_time: float = 0.0

    @property
    def triage_rate(self) -> float:
        """Fraction of the batch short-circuited by triage."""
        return self.triage_hits / self.files if self.files else 0.0

    def count_findings(self, findings: list[Finding]) -> None:
        for finding in findings:
            self.rule_hits[finding.rule_id] = self.rule_hits.get(finding.rule_id, 0) + 1

    def __str__(self) -> str:
        extra = ""
        if self.triage_hits:
            extra = f", {self.triage_hits} triaged"
        return (
            f"{self.files} files ({self.ok} ok, {self.errors} errors, "
            f"{self.cache_hits} cache hits, {self.df_timeouts} DF timeouts"
            f"{extra}) in {self.wall_time:.2f}s with {self.n_workers} worker(s)"
        )


@dataclass
class BatchFeatures:
    """Both feature matrices for a batch, plus per-file error records.

    ``X1``/``X2`` rows are aligned with ``ok_indices`` (positions into the
    original source list); files that failed extraction appear in ``errors``
    instead and have no feature rows.  ``findings`` (aligned with
    ``ok_indices``) carries the signature-engine evidence computed during
    the same pass.
    """

    X1: np.ndarray
    X2: np.ndarray
    ok_indices: list[int]
    errors: dict[int, DetectionError]
    df_available: list[bool]
    stats: BatchStats
    findings: list[list[Finding]] = field(default_factory=list)
    #: per-ok-file flag: some flow analysis degraded (aligned with ok_indices)
    flow_timeout: list[bool] = field(default_factory=list)
    #: per-ok-file structural fingerprint (aligned with ok_indices)
    fingerprint: list[str] = field(default_factory=list)


@dataclass
class TokenBatchFeatures:
    """Token-level fast-path features for a batch (no AST built).

    ``X`` rows align with ``ok_indices`` exactly like
    :class:`BatchFeatures`; files the lexer rejected appear in
    ``errors``.
    """

    X: np.ndarray
    ok_indices: list[int]
    errors: dict[int, DetectionError]
    stats: BatchStats


@dataclass
class BatchResult:
    """Per-file detection results (input order) plus batch statistics."""

    results: list["DetectionResult"]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["DetectionResult"]:
        return iter(self.results)

    def __getitem__(self, index: int) -> "DetectionResult":
        return self.results[index]


def _extract_one(
    paired: PairedFeatureExtractor, max_bytes: int | None, source: str
) -> _Outcome:
    """Extract both vectors for one source; never raises (fault isolation)."""
    if max_bytes is not None:
        size = len(source.encode("utf-8", errors="replace"))
        if size > max_bytes:
            return ("err", "oversize", f"{size} bytes exceeds limit of {max_bytes}")
    try:
        enhanced = enhance(source, data_flow_timeout=paired.data_flow_timeout)
        v1, v2, findings = paired.extract_pair_from_enhanced(enhanced)
        fingerprint = unit_sequence_fingerprint(enhanced.flat.type_names)
    except RecursionError:
        return ("err", "recursion", "AST nesting exceeds the recursion limit")
    except (SyntaxError, ValueError) as error:  # ParseError / LexerError
        return ("err", "parse", str(error) or type(error).__name__)
    except Exception as error:  # noqa: BLE001 - one file must not kill a batch
        return ("err", "internal", f"{type(error).__name__}: {error}")
    return (
        "ok",
        v1,
        v2,
        enhanced.data_flow_available,
        enhanced.flow_timeout,
        findings,
        fingerprint,
    )


def _extract_chunk(
    paired: PairedFeatureExtractor, max_bytes: int | None, chunk: list[str]
) -> list[_Outcome]:
    """Worker entry point: extract a chunk of sources (module-level, picklable)."""
    return [_extract_one(paired, max_bytes, source) for source in chunk]


#: per-process deob engine for pool workers (built once, reused per chunk).
_POOL_DEOB_ENGINE = None


def _deob_chunk(chunk: list[str]) -> list:
    """Worker entry point: normalize a chunk through a process-local engine.

    The engine is constructed lazily inside the worker (the default
    catalog engine — custom rule engines keep the serial path) so the
    expensive pass pipeline never crosses the pickle boundary.
    """
    global _POOL_DEOB_ENGINE
    if _POOL_DEOB_ENGINE is None:
        from repro.deob import DeobEngine

        _POOL_DEOB_ENGINE = DeobEngine()
    return [_POOL_DEOB_ENGINE.run(source) for source in chunk]


class BatchInferenceEngine:
    """Classify many scripts through both detector levels, at corpus scale.

    Parameters
    ----------
    detector:
        A trained :class:`~repro.detector.pipeline.TransformationDetector`,
        or ``None`` for a model-free engine (requires ``triage="only"``).
    n_workers:
        Process-pool width for feature extraction.  ``1`` (the default)
        runs serially in-process and produces bit-identical output.
    cache_size:
        Maximum number of per-source extraction outcomes kept in the LRU
        cache (``0`` disables caching).
    max_source_bytes:
        Inputs larger than this become ``oversize`` error results instead
        of being parsed (defaults to the paper's 2 MB admission bound);
        ``None`` disables the check.
    chunk_size:
        Sources per worker dispatch; ``None`` auto-sizes to roughly four
        chunks per worker.
    observer:
        Optional callable invoked with the final :class:`BatchStats` after
        every :meth:`classify` run (the serving stack wires the metrics
        registry here).  Observer failures never fail a batch.
    triage:
        ``"off"`` (default) runs the full pipeline for every file;
        ``"prefilter"`` runs the cheap text/token rule stages first and
        short-circuits extraction when a decisive signature fires;
        ``"only"`` classifies every file from staged rule evaluation
        alone — no feature extraction, no model inference.
    rule_engine:
        The :class:`~repro.rules.engine.RuleEngine` used for triage
        (defaults to the shared catalog engine).
    """

    def __init__(
        self,
        detector: "TransformationDetector | None",
        n_workers: int = 1,
        cache_size: int = 1024,
        max_source_bytes: int | None = MAX_BYTES,
        chunk_size: int | None = None,
        observer: Any | None = None,
        triage: str = "off",
        rule_engine: RuleEngine | None = None,
    ) -> None:
        if triage not in TRIAGE_MODES:
            raise ValueError(f"triage must be one of {TRIAGE_MODES}, not {triage!r}")
        if detector is None and triage != "only":
            raise ValueError("a model-free engine requires triage='only'")
        self.detector = detector
        self.paired = (
            PairedFeatureExtractor(detector.level1.extractor, detector.level2.extractor)
            if detector is not None
            else None
        )
        self.n_workers = max(1, int(n_workers))
        self.cache_size = max(0, int(cache_size))
        self.max_source_bytes = max_source_bytes
        self.chunk_size = chunk_size
        self.observer = observer
        self.triage = triage
        self._default_rules = rule_engine is None
        self.rules = rule_engine or default_engine()
        self._cache: OrderedDict[str, _Outcome] = OrderedDict()
        self._token_extractor = None
        self._deob_engine = None

    @property
    def token_extractor(self):
        """Lazily-built :class:`~repro.features.fastpath.TokenFeatureExtractor`."""
        if self._token_extractor is None:
            from repro.features.fastpath import TokenFeatureExtractor

            self._token_extractor = TokenFeatureExtractor()
        return self._token_extractor

    @property
    def deob_engine(self):
        """Lazily-built shared :class:`~repro.deob.engine.DeobEngine`."""
        if self._deob_engine is None:
            from repro.deob import DeobEngine

            self._deob_engine = DeobEngine(rules=self.rules)
        return self._deob_engine

    # -- cache ---------------------------------------------------------------

    @staticmethod
    def _key(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()

    def _cache_get(self, key: str) -> _Outcome | None:
        outcome = self._cache.get(key)
        if outcome is not None:
            self._cache.move_to_end(key)
        return outcome

    def _cache_put(self, key: str, outcome: _Outcome) -> None:
        if self.cache_size <= 0:
            return
        self._cache[key] = outcome
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_clear(self) -> None:
        self._cache.clear()

    # -- extraction ----------------------------------------------------------

    def _run_extraction(self, sources: list[str]) -> list[_Outcome]:
        """Extract unique cache-miss sources, serially or across workers."""
        if self.n_workers == 1 or len(sources) < 2:
            return [
                _extract_one(self.paired, self.max_source_bytes, source)
                for source in sources
            ]
        chunk_size = self.chunk_size or max(
            1, -(-len(sources) // (self.n_workers * 4))
        )
        chunks = [
            sources[i : i + chunk_size] for i in range(0, len(sources), chunk_size)
        ]
        worker = partial(_extract_chunk, self.paired, self.max_source_bytes)
        outcomes: list[_Outcome] = []
        with ProcessPoolExecutor(max_workers=self.n_workers) as executor:
            for chunk_outcomes in executor.map(worker, chunks):
                outcomes.extend(chunk_outcomes)
        return outcomes

    def extract(self, sources: list[str]) -> BatchFeatures:
        """One-pass feature extraction for a batch (both vector spaces)."""
        if self.paired is None:
            raise ValueError("model-free engine (triage='only') cannot extract features")
        t0 = time.perf_counter()
        stats = BatchStats(files=len(sources), n_workers=self.n_workers)
        outcomes: list[_Outcome | None] = [None] * len(sources)

        # Dedupe by source hash: each distinct script is extracted at most
        # once per batch, and cached outcomes skip extraction entirely.
        pending: dict[str, list[int]] = {}
        miss_order: list[tuple[str, str]] = []
        for index, source in enumerate(sources):
            key = self._key(source)
            cached = self._cache_get(key)
            if cached is not None:
                outcomes[index] = cached
                stats.cache_hits += 1
                continue
            if key in pending:
                stats.cache_hits += 1  # in-batch duplicate: extracted once
            else:
                miss_order.append((key, source))
            pending.setdefault(key, []).append(index)

        fresh = self._run_extraction([source for _key, source in miss_order])
        for (key, _source), outcome in zip(miss_order, fresh):
            self._cache_put(key, outcome)
            for index in pending[key]:
                outcomes[index] = outcome

        ok_indices: list[int] = []
        errors: dict[int, DetectionError] = {}
        df_available: list[bool] = []
        flow_timeout: list[bool] = []
        findings: list[list[Finding]] = []
        fingerprints: list[str] = []
        rows1: list[np.ndarray] = []
        rows2: list[np.ndarray] = []
        for index, outcome in enumerate(outcomes):
            if outcome[0] == "ok":
                ok_indices.append(index)
                rows1.append(outcome[1])
                rows2.append(outcome[2])
                df_available.append(outcome[3])
                flow_timeout.append(outcome[4])
                findings.append(outcome[5])
                fingerprints.append(outcome[6])
                if not outcome[3]:
                    stats.df_timeouts += 1
                if outcome[4]:
                    stats.flow_timeouts += 1
            else:
                errors[index] = DetectionError(kind=outcome[1], message=outcome[2])
        stats.ok = len(ok_indices)
        stats.errors = len(errors)

        X1 = (
            np.vstack(rows1)
            if rows1
            else np.zeros((0, self.paired.level1.n_features), dtype=np.float64)
        )
        X2 = (
            np.vstack(rows2)
            if rows2
            else np.zeros((0, self.paired.level2.n_features), dtype=np.float64)
        )
        stats.wall_time = time.perf_counter() - t0
        stats.extract_time = stats.wall_time
        return BatchFeatures(
            X1=X1,
            X2=X2,
            ok_indices=ok_indices,
            errors=errors,
            df_available=df_available,
            stats=stats,
            findings=findings,
            flow_timeout=flow_timeout,
            fingerprint=fingerprints,
        )

    def extract_token_features(self, sources: list[str]) -> TokenBatchFeatures:
        """Token-level fast path: one lexer scan per file, no AST.

        Produces the :data:`~repro.features.fastpath.TOKEN_STATIC_FEATURES`
        space (plus the hashed n-gram head) with the same per-file fault
        isolation and oversize policy as :meth:`extract`, at a fraction of
        the cost — the intended front end for crawl-scale pre-ranking and
        triage-adjacent workloads.  Works on model-free engines too.
        """
        t0 = time.perf_counter()
        extractor = self.token_extractor
        stats = BatchStats(files=len(sources), n_workers=1)
        ok_indices: list[int] = []
        errors: dict[int, DetectionError] = {}
        rows: list[np.ndarray] = []
        for index, source in enumerate(sources):
            if self.max_source_bytes is not None:
                size = len(source.encode("utf-8", errors="replace"))
                if size > self.max_source_bytes:
                    errors[index] = DetectionError(
                        "oversize",
                        f"{size} bytes exceeds limit of {self.max_source_bytes}",
                    )
                    continue
            try:
                rows.append(extractor.extract(source))
            except RecursionError:
                errors[index] = DetectionError(
                    "recursion", "token stream exceeds the recursion limit"
                )
            except (SyntaxError, ValueError) as error:  # LexerError
                errors[index] = DetectionError(
                    "parse", str(error) or type(error).__name__
                )
            except Exception as error:  # noqa: BLE001 - fault isolation
                errors[index] = DetectionError(
                    "internal", f"{type(error).__name__}: {error}"
                )
            else:
                ok_indices.append(index)
        stats.ok = len(ok_indices)
        stats.errors = len(errors)
        X = (
            np.vstack(rows)
            if rows
            else np.zeros((0, extractor.n_features), dtype=np.float64)
        )
        stats.wall_time = time.perf_counter() - t0
        stats.extract_time = stats.wall_time
        return TokenBatchFeatures(X=X, ok_indices=ok_indices, errors=errors, stats=stats)

    def _run_deob(self, sources: list[str]) -> list:
        """Normalize a batch, fanning out across the worker pool when it pays.

        Deobfuscation used to serialize on the calling (inference)
        thread; with ``n_workers > 1`` it now runs inside the same
        process-pool workers as feature extraction, with bit-identical
        results to the serial path (gated in tests).  Engines built with
        a custom rule engine keep the serial path — pool workers use the
        shared default catalog.
        """
        if self.n_workers == 1 or len(sources) < 2 or not self._default_rules:
            return [self.deob_engine.run(source) for source in sources]
        chunk_size = self.chunk_size or max(1, -(-len(sources) // (self.n_workers * 4)))
        chunks = [
            sources[i : i + chunk_size] for i in range(0, len(sources), chunk_size)
        ]
        results: list = []
        with ProcessPoolExecutor(max_workers=self.n_workers) as executor:
            for chunk_results in executor.map(_deob_chunk, chunks):
                results.extend(chunk_results)
        return results

    # -- rules-only triage ------------------------------------------------------

    def _result_from_triage(
        self, triage: TriageResult, k: int, threshold: float
    ) -> "DetectionResult":
        """Synthesise a :class:`DetectionResult` from rule findings alone."""
        from repro.detector.pipeline import DetectionResult

        if triage.error is not None:
            kind, message = triage.error
            return DetectionResult(
                level1=set(),
                transformed=False,
                error=DetectionError(kind=kind, message=message),
                findings=triage.findings,
                triaged=True,
            )
        best = max_confidence_by_technique(triage.findings)
        ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
        techniques = [(name, conf) for name, conf in ranked[:k] if conf >= threshold]
        level1 = {
            "obfuscated" if Technique(name) in OBFUSCATION_TECHNIQUES else "minified"
            for name, _conf in techniques
        }
        return DetectionResult(
            level1=level1,
            transformed=bool(level1),
            techniques=techniques,
            findings=triage.findings,
            triaged=True,
        )

    # -- classification --------------------------------------------------------

    def classify(
        self,
        sources: list[str],
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
        deob: bool = False,
    ) -> BatchResult:
        """Two-level classification of a batch with per-file fault isolation.

        ``deob=True`` first normalizes every script through the
        :class:`~repro.deob.engine.DeobEngine` (never raises; a script the
        deobfuscator cannot improve passes through unchanged), classifies
        the normal forms, and attaches each
        :class:`~repro.deob.engine.DeobResult` to its
        :class:`DetectionResult`.  With ``n_workers > 1`` normalization
        fans out across the process pool instead of serializing on the
        calling thread (bit-identical to the serial path).
        """
        from repro.detector.pipeline import DetectionResult

        t0 = time.perf_counter()
        stats = BatchStats(files=len(sources), n_workers=self.n_workers)
        results: list[Any] = [None] * len(sources)

        deob_results = None
        if deob:
            t_deob = time.perf_counter()
            deob_results = self._run_deob(sources)
            sources = [outcome.source for outcome in deob_results]
            stats.deob_files = len(sources)
            stats.deob_passes = sum(
                len(outcome.report.passes_applied) for outcome in deob_results
            )
            stats.deob_removals = sum(
                len(outcome.report.techniques_removed) for outcome in deob_results
            )
            stats.deob_time = time.perf_counter() - t_deob

        if self.triage != "off":
            t_rules = time.perf_counter()
            deep = "auto" if self.triage == "only" else False
            for index, source in enumerate(sources):
                triage = self.rules.triage(source, deep=deep)
                if self.triage == "only" or triage.decided:
                    results[index] = self._result_from_triage(triage, k, threshold)
                    if triage.decided:
                        stats.triage_hits += 1
            stats.rules_time = time.perf_counter() - t_rules

        remaining = [index for index, result in enumerate(results) if result is None]
        if remaining:
            features = self.extract([sources[index] for index in remaining])
            sub = features.stats
            stats.cache_hits += sub.cache_hits
            stats.df_timeouts += sub.df_timeouts
            stats.flow_timeouts += sub.flow_timeouts
            stats.extract_time += sub.extract_time
            for position, error in features.errors.items():
                results[remaining[position]] = DetectionResult(
                    level1=set(), transformed=False, techniques=[], error=error
                )

            t_predict = time.perf_counter()
            if features.ok_indices:
                proba1 = self.detector.level1.predict_proba_features(features.X1)
                label_sets = Level1Detector.labels_from_proba(proba1)
                transformed_mask = np.array(
                    [bool(ls & {"minified", "obfuscated"}) for ls in label_sets],
                    dtype=bool,
                )
                technique_lists: list[list[tuple[str, float]]] = []
                if transformed_mask.any():
                    proba2 = self.detector.level2.predict_proba_features(
                        features.X2[transformed_mask]
                    )
                    technique_lists = Level2Detector.techniques_from_proba(
                        proba2, k=k, threshold=threshold
                    )
                techniques_iter = iter(technique_lists)
                for position, labels, transformed, findings, flow_timeout, fingerprint in zip(
                    features.ok_indices,
                    label_sets,
                    transformed_mask,
                    features.findings,
                    features.flow_timeout,
                    features.fingerprint,
                ):
                    techniques = next(techniques_iter) if transformed else []
                    results[remaining[position]] = DetectionResult(
                        level1=labels,
                        transformed=bool(transformed),
                        techniques=techniques,
                        findings=findings,
                        flow_timeout=flow_timeout,
                        fingerprint=fingerprint,
                    )
            stats.predict_time = time.perf_counter() - t_predict

        if deob_results is not None:
            for result, outcome in zip(results, deob_results):
                result.deob = outcome

        for result in results:
            if result.ok:
                stats.ok += 1
            else:
                stats.errors += 1
            stats.count_findings(result.findings)
        stats.wall_time = time.perf_counter() - t0
        if self.observer is not None:
            try:
                self.observer(stats)
            except Exception:  # noqa: BLE001 - observability must not fail a batch
                logger.exception("batch observer %r failed", self.observer)
        return BatchResult(results=results, stats=stats)

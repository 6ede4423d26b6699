"""Merge step: fold store records into the corpus-prevalence report.

``repro scan --merge`` closes the loop to the paper's measurement
figures: walk the latest manifest, pull each unique hash's record out
of the content-addressed store, and fold everything into one
deterministic prevalence report — level-1 label prevalence (the paper's
Fig. 2/3 axis), per-technique counts (Fig. 7/8), rule-hit counts, error
taxonomy, and malware-wave statistics recovered from the persisted
structural fingerprints via :mod:`repro.analysis.waves`.

Determinism contract: the report contains *only* counts and sorted
keys — no wall-clock, no host paths beyond the manifest's own relative
origins — so a run that crashed and resumed merges byte-identically to
one that never crashed (this is asserted in tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.scan.store import ResultStore

#: bump when the report shape changes.
REPORT_VERSION = 1


def _count(table: dict[str, int], key: str, amount: int = 1) -> None:
    table[key] = table.get(key, 0) + amount


def merge_scan(store: ResultStore, manifest: Iterable[dict] | None = None) -> dict:
    """Fold the latest scan into one JSON-ready prevalence report.

    ``manifest`` defaults to the store's persisted ``manifest.jsonl``.
    Classification tables count *unique hashes* (content prevalence);
    ``units.total`` and ``by_kind`` count manifest occurrences, so the
    duplication factor — how often the same script ships — is visible.
    """
    # Imported here, not at module level: repro.analysis imports the
    # detector layer, so a module-level import from repro.scan risks an
    # import cycle (scripts/lint.sh bars it).
    from repro.analysis.waves import wave_statistics_from_fingerprints

    if manifest is None:
        manifest = store.read_manifest()

    by_kind: dict[str, int] = {}
    ingest_errors: dict[str, int] = {}
    unique: dict[str, int] = {}  # sha256 -> occurrence count
    total_units = 0
    external_refs = 0
    for line in manifest:
        line_type = line.get("type")
        if line_type == "unit":
            total_units += 1
            _count(by_kind, line.get("kind", "unknown"))
            sha = line.get("sha256", "")
            unique[sha] = unique.get(sha, 0) + 1
        elif line_type == "external":
            external_refs += 1
        elif line_type == "error":
            _count(ingest_errors, line.get("kind", "unknown"))

    level1: dict[str, int] = {}
    techniques: dict[str, int] = {}
    rules: dict[str, int] = {}
    scan_errors: dict[str, int] = {}
    deob = {"changed": 0, "techniques_removed": {}}
    fingerprints: list[str | None] = []
    ok = triaged = transformed = missing = 0
    for sha in sorted(unique):
        record = store.get(sha)
        if record is None:
            missing += 1
            continue
        fingerprints.append(record.get("fingerprint"))
        if record.get("triaged"):
            triaged += 1
        if not record.get("ok"):
            _count(scan_errors, record.get("error", {}).get("kind", "unknown"))
            continue
        ok += 1
        if record.get("transformed"):
            transformed += 1
        for label in record.get("level1", []):
            _count(level1, label)
        for entry in record.get("techniques", []):
            _count(techniques, entry.get("technique", "unknown"))
        for finding in record.get("findings", []):
            _count(rules, finding.get("rule_id", "unknown"))
        deob_summary = record.get("deob")
        if deob_summary is not None and deob_summary.get("changed"):
            deob["changed"] += 1
            for technique in deob_summary.get("techniques_removed", []):
                _count(deob["techniques_removed"], technique)

    waves = wave_statistics_from_fingerprints(fingerprints)
    waves["wave_fraction"] = round(waves["wave_fraction"], 6)

    return {
        "version": REPORT_VERSION,
        "units": {
            "total": total_units,
            "unique": len(unique),
            "duplicates": total_units - len(unique),
            "external_refs": external_refs,
            "missing_records": missing,
        },
        "by_kind": dict(sorted(by_kind.items())),
        "ingest_errors": dict(sorted(ingest_errors.items())),
        "classification": {
            "ok": ok,
            "transformed": transformed,
            "triaged": triaged,
            "errors": dict(sorted(scan_errors.items())),
            "level1": dict(sorted(level1.items())),
            "techniques": dict(sorted(techniques.items())),
        },
        "rules": dict(sorted(rules.items())),
        "deob": {
            "changed": deob["changed"],
            "techniques_removed": dict(sorted(deob["techniques_removed"].items())),
        },
        "waves": waves,
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Serialize one report deterministically (sorted keys, stable layout)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path

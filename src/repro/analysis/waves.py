"""Malware-wave clustering (§IV-C).

The paper observes that malicious actors broadcast *waves*: syntactically
identical but SHA-1-unique instances produced by re-rolling identifier
obfuscation, one unique script per victim, to defeat signature matching.
Because renaming does not change the AST shape, such variants share an
exact structural fingerprint; clustering by that fingerprint recovers the
waves, which the paper uses to explain the month-to-month variance of its
malicious corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.features.ngrams import ast_unit_sequence, unit_sequence_fingerprint
from repro.js.parser import parse


def structural_fingerprint(source: str) -> str:
    """SHA-1 over the node-type sequence: renaming-invariant identity.

    Two scripts that differ only in identifier names, string contents or
    literal values map to the same fingerprint; any structural edit (added
    statement, different operator nesting) changes it.

    This parses ``source``.  Scripts that go through feature extraction
    already carry the same digest (``DetectionResult.fingerprint``, taken
    from the extraction's flat index), so a scan calls this only for units
    decided by triage or rewritten by deob.
    """
    return unit_sequence_fingerprint(ast_unit_sequence(parse(source)))


@dataclass
class WaveCluster:
    """One group of structurally identical scripts."""

    fingerprint: str
    indices: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_wave(self) -> bool:
        """A wave needs more than one unique instance."""
        return self.size > 1


def cluster_waves_from_fingerprints(
    fingerprints: list[str | None], min_size: int = 2
) -> list[WaveCluster]:
    """Cluster precomputed fingerprints; largest clusters first.

    This is the substrate the crawl-scale scan pipeline merges on: scan
    workers record each script's structural fingerprint next to its
    verdict, so wave recovery over millions of files never re-parses —
    it folds the persisted fingerprint column.  The workers take that
    fingerprint from feature extraction's flat index, which parsed the
    script anyway; only units decided by triage or rewritten by deob are
    parsed once more, by :func:`structural_fingerprint`.  ``None`` entries
    (unparseable scripts) are skipped, exactly as the paper's static
    pipeline skips unparseable malware.
    """
    clusters: dict[str, WaveCluster] = {}
    for index, fingerprint in enumerate(fingerprints):
        if fingerprint is None:
            continue
        cluster = clusters.get(fingerprint)
        if cluster is None:
            cluster = WaveCluster(fingerprint=fingerprint)
            clusters[fingerprint] = cluster
        cluster.indices.append(index)
    waves = [cluster for cluster in clusters.values() if cluster.size >= min_size]
    waves.sort(key=lambda cluster: (-cluster.size, cluster.fingerprint))
    return waves


def _fingerprints(sources: list[str]) -> list[str | None]:
    fingerprints: list[str | None] = []
    for source in sources:
        try:
            fingerprints.append(structural_fingerprint(source))
        except (SyntaxError, ValueError, RecursionError):
            fingerprints.append(None)
    return fingerprints


def cluster_waves(sources: list[str], min_size: int = 2) -> list[WaveCluster]:
    """Cluster scripts by structural fingerprint; largest clusters first."""
    return cluster_waves_from_fingerprints(_fingerprints(sources), min_size=min_size)


def wave_statistics_from_fingerprints(fingerprints: list[str | None]) -> dict:
    """Summary statistics over a precomputed fingerprint column."""
    waves = cluster_waves_from_fingerprints(fingerprints)
    in_waves = sum(cluster.size for cluster in waves)
    return {
        "n_scripts": len(fingerprints),
        "n_waves": len(waves),
        "scripts_in_waves": in_waves,
        "wave_fraction": in_waves / len(fingerprints) if fingerprints else 0.0,
        "largest_wave": waves[0].size if waves else 0,
    }


def wave_statistics(sources: list[str]) -> dict:
    """Summary statistics: how much of a corpus is wave-generated."""
    return wave_statistics_from_fingerprints(_fingerprints(sources))

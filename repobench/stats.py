"""Small statistics helpers shared by the runner, the self-tests and the steadiness report."""

from __future__ import annotations

import math
import statistics


class TooFewSamples(ValueError):
    """Fewer than ``min_tail`` samples lie beyond the requested percentile."""


def percentile(values: list[float], pct: float, min_tail: int = 10) -> float:
    """Nearest-rank percentile that has at least ``min_tail`` samples above it.

    Failed requests enter as ``math.inf`` so they miss every limit.
    """
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < min_tail:
        raise TooFewSamples(
            f"p{pct:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it"
            f" (need {min_tail})"
        )
    return ordered[rank - 1]


def samples_needed(pct: float, min_tail: int = 10) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``pct``."""
    count = min_tail + 1
    while count - max(1, math.ceil(pct / 100.0 * count)) < min_tail:
        count += 1
    return count


def quartile_spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q3 - Q1, (Q3 - Q1) / median) as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = q3 - q1
    return median, spread, (spread / median if median else math.inf)


def micro_f1(pairs: list[tuple[set, set]]) -> float:
    """Micro-averaged F1 over (truth, reported) label sets; 1.0 when both are empty."""
    tp = fp = fn = 0
    for truth, reported in pairs:
        tp += len(truth & reported)
        fp += len(reported - truth)
        fn += len(truth - reported)
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

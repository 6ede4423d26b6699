"""Self-tests of the benchmark: run with ``python3 -m pytest repobench -q``.

The smoke tests start the real processes under test on minimal inputs;
the first one in a fresh checkout also trains the detector (~40 s).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus as corpora  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

# -- span arithmetic --------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_subtracts_siblings_once():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 3.0, 0, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["c", 20.0, 21.0, -1, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["b"] == {"self_s": pytest.approx(3.0), "calls": 2}


def test_self_time_clips_overlapping_children():
    spans = [["a", 0.0, 4.0, -1, 0], ["b", 1.0, 3.0, 0, 0], ["b", 2.0, 5.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


# -- percentile rule ------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(50) == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile([float(v) for v in range(1, 201)], 95) == 190.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)


def test_failures_miss_every_latency_limit():
    values = [1.0] * 200 + [float("inf")] * 20
    assert stats.percentile(values, 95) == float("inf")
    assert stats.percentile(values, 50) == 1.0


def test_quartile_spread_matches_statistics_quantiles():
    median, spread, share = stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, spread, share) == (3.0, 3.0, 1.0)


def test_micro_f1():
    assert stats.micro_f1([({"a"}, {"a"}), (set(), set())]) == 1.0
    assert stats.micro_f1([({"a", "b"}, {"a", "c"})]) == pytest.approx(0.5)


# -- host-speed scaling ------------------------------------------------------------


def test_scaling_maps_probe_time_to_reference_speed():
    import calibrate

    slow = calibrate.REFERENCE_S * 2
    assert calibrate.scaled(1.0, slow) == pytest.approx(0.5)
    assert calibrate.scaled(1.0, slow, slow / 2) == pytest.approx(1.0 / 1.5)
    assert calibrate.kernel() > 0


def test_start_times_use_the_start_probes_on_either_side():
    import calibrate

    reference = calibrate.REFERENCE_START_S
    probes = [reference, reference, 3 * reference]
    assert calibrate.start_times([1.0, 2.0], probes) == pytest.approx([1.0, 1.0])
    assert calibrate.start_probe() > 0


def test_local_probe_ignores_one_outlier():
    import calibrate

    probes = [1.0] * 5 + [9.0] + [1.0] * 5
    assert calibrate.local_probe(probes, 5) == 1.0
    assert calibrate.local_probe(probes, 0, radius=2) == 1.0


# -- corpus purity ------------------------------------------------------------------


def _digest_in_subprocess(workload: str, seed: int, hash_seed: str) -> str:
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import corpus as c; "
        f"print(c.{workload}_corpus({seed}, 6).digest)"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()


@pytest.mark.parametrize("workload", ["npm", "alexa", "malware"])
def test_corpus_digest_is_stable_for_a_seed(workload):
    first = _digest_in_subprocess(workload, 3, "0")
    assert first == _digest_in_subprocess(workload, 3, "0")
    assert first != _digest_in_subprocess(workload, 4, "0")


def test_units_are_byte_distinct_and_passes_stay_distinct(tmp_path):
    corpus = corpora.npm_corpus(2, 20)
    keys = {corpora.sha256_text(unit.source) for unit in corpus.units}
    assert len(keys) == len(corpus.units)
    ordered = corpus.ordered(7, 2)
    assert ordered.digest == corpus.ordered(7, 2).digest != corpus.ordered(8, 2).digest
    assert sorted(u.name for u in ordered.units) == sorted(u.name for u in corpus.units)
    first = corpora.write_package(tmp_path / "a.tgz", corpus.containers[0], 0)
    again = corpora.write_package(tmp_path / "b.tgz", corpus.containers[0], 0)
    later = corpora.write_package(tmp_path / "c.tgz", corpus.containers[0], 1)
    assert (tmp_path / "a.tgz").read_bytes() == (tmp_path / "b.tgz").read_bytes()
    assert set(first) == set(again) and not set(first) & set(later)


def test_halves_keep_their_containers_whatever_the_seed():
    corpus = corpora.npm_corpus(2, 40)

    def half(seed: int, kind: int) -> list[str]:
        ordered = corpus.ordered(seed, 2, halves=True).containers
        return sorted(c[0].name for i, c in enumerate(ordered) if i // 2 % 2 == kind)

    assert half(1, 0) == half(2, 0) and half(1, 1) == half(2, 1)
    assert half(1, 0) != half(1, 1)
    assert corpus.ordered(1, 2, halves=True).digest != corpus.ordered(2, 2, halves=True).digest


def test_whole_passes_keep_completed_passes_only():
    import scan_workload

    rounds = [
        scan_workload.Round({}, Path("."), {}, start >= 0, False, start)
        for start in (-2, 0, 2, 4, 6)
    ]
    kept = scan_workload.whole_passes(rounds, chunk=2, size=6)
    assert [item.start for item in kept] == [0, 2, 4]


def test_pages_plant_exactly_the_extracted_bytes(tmp_path):
    from repro.corpus.html_extract import extract_units

    corpus = corpora.alexa_corpus(2, 12)
    truth = corpora.write_page(tmp_path / "p.html", corpus.containers[0], 1)
    page = extract_units((tmp_path / "p.html").read_text(encoding="utf-8"))
    assert {corpora.sha256_text(unit.code) for unit in page.units} == set(truth)
    assert len(page.external) == 2


# -- layer coverage ------------------------------------------------------------------


def test_install_rebinds_by_name_copies_and_restores():
    import repro.deob.engine
    import repro.flows.cfg
    import repro.flows.graph

    original = repro.flows.cfg.build_control_flow
    installation = tracing.install(tracing.Tracer(), preload=("repro.deob.engine",))
    try:
        assert repro.flows.graph.build_control_flow is repro.flows.cfg.build_control_flow
        assert repro.flows.graph.build_control_flow is not original
        assert repro.deob.engine.generate.__wrapped__ is not None
    finally:
        installation.remove()
    assert repro.flows.graph.build_control_flow is original


def test_install_counts_spans_on_real_calls():
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        from repro.flows.graph import enhance

        enhance("function f(a) { return a + 1; }\nf(2);")
    finally:
        installation.remove()
    layers = tracing.layer_totals(tracer.spans)
    for layer in ("js.lexer", "js.parser", "js.flat", "js.scope", "flows.cfg", "flows.dfg"):
        assert layers[layer]["calls"] == 1


def test_missing_target_fails_at_install():
    missing = (tracing.Target("x", "repro.js.parser", "Parser.no_such_method"),)
    with pytest.raises(tracing.TraceInstallError):
        tracing.install(tracing.Tracer(), targets=missing)
    missing = (tracing.Target("x", "repro.js.parser", "no_such_function"),)
    with pytest.raises(tracing.TraceInstallError):
        tracing.install(tracing.Tracer(), targets=missing)


# -- smoke runs of every workload -------------------------------------------------------


def _run(workload: str, trace: int) -> tuple[int, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "8", "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["npm_scan", "alexa_scan", "malware_serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    code, result = _run(workload, trace)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)

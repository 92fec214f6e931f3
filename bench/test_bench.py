"""Tests of the benchmark itself: inputs, expected values, checks, isolation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import texmathc  # noqa: E402
from texmathc import default_registry  # noqa: E402
from texmathc import pipeline, similarity  # noqa: E402


def _signature(workload) -> list[str]:
    return [op.id for op in workload.ops]


def test_generators_are_deterministic_per_seed(tmp_path):
    assert _signature(workloads.CorpusConvert(7)) == _signature(workloads.CorpusConvert(7))
    assert _signature(workloads.CorpusConvert(7)) != _signature(workloads.CorpusConvert(8))
    first = workloads.CacheMixed(7, tmp_path / "a")
    second = workloads.CacheMixed(7, tmp_path / "b")
    assert _signature(first) == _signature(second)
    assert first.expected_hits == second.expected_hits
    assert 0 < first.distinct < first.STREAM / 2  # misses are a minority
    assert _signature(workloads.CacheMixed(8, tmp_path / "c")) != _signature(first)
    pairs = [(p.id, p.a, p.b) for p in workloads.compare_pairs(7)]
    assert pairs == [(p.id, p.a, p.b) for p in workloads.compare_pairs(7)]
    assert pairs != [(p.id, p.a, p.b) for p in workloads.compare_pairs(8)]


def test_seeded_tree_sizes_are_exact_and_seed_independent():
    for seed in (1, 2):
        seeded = [p for p in workloads.compare_pairs(seed) if p.kind != "manifest"]
        sizes = sorted(p.size for p in seeded)
        assert sizes[0] == 10 and sizes[-1] == 400
        for pair in seeded:
            assert texmathc.from_xml(pair.a) is not None
            assert sum(1 for _ in texmathc.from_xml(pair.a).iter()) == pair.size


@pytest.fixture
def forbid_code_under_test(monkeypatch):
    """Any call to the converter or the production TED raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError("expected values must not call the code under test")

    for owner in (texmathc, pipeline):
        monkeypatch.setattr(owner, "convert_formula", forbidden)
        monkeypatch.setattr(owner, "check_formula", forbidden)
    for owner in (texmathc, similarity):
        monkeypatch.setattr(owner, "tree_edit_distance", forbidden)
        monkeypatch.setattr(owner, "batch_compare", forbidden)


def test_expected_values_come_from_outside_the_code_under_test(
        forbid_code_under_test, tmp_path):
    corpus = workloads.CorpusConvert(3)
    assert len(corpus.ops) == 3 * 552
    for formula in workloads.load_formulas():
        variant, (start, end) = workloads.with_unknown_command(formula.source)
        assert variant.encode("utf-8")[start:end] == workloads.UNKNOWN_COMMAND.encode("utf-8")
        if formula.ref:
            assert workloads.expected_variant(formula.ref, formula.display, False, False) \
                == formula.ref
    workloads.CacheMixed(3, tmp_path / "cache")
    pairs = workloads.compare_pairs(3, sizes=workloads.log_grid(9, 10, 40))
    for pair in pairs:
        expected = workloads.oracle_ted(pair)
        if pair.kind in ("identical", "rewrite"):
            assert expected == 0
        if pair.kind == "relabel":
            assert 0 < expected <= max(1, pair.size // 15)


def test_reference_normalizer_agrees_with_construction():
    for pair in workloads.compare_pairs(5, sizes=workloads.log_grid(12, 10, 120)):
        if pair.kind == "rewrite":
            assert workloads.ref_normalize(pair.a).key() == workloads.ref_normalize(pair.b).key()
            assert pair.a != pair.b


def test_appended_command_is_not_whitelisted():
    name = workloads.UNKNOWN_COMMAND.lstrip("\\")
    assert default_registry().lookup(name) is None
    assert name not in ("ce", "pu")


def _small_corpus(count: int = 60):
    workload = workloads.CorpusConvert(1)
    workload.ops = [op for op in workload.ops if ":unknown" not in op.id][:count]
    return workload


def test_corrupted_output_is_counted_as_failed():
    workload = _small_corpus()
    with_ref = {f.id for f in workloads.load_formulas() if f.ref}
    convert = next(op for op in workload.ops
                   if op.id.endswith(":convert") and op.id.split(":")[0] in with_ref)
    original = convert.call
    convert.call = lambda: original().replace("</math>", "<mi>x</mi></math>")
    raising = next(op for op in workload.ops if op.id.endswith(":check"))
    raising.call = lambda: 1 / 0
    loop = bench_run.Loop(workload)
    loop.run_pass([])
    assert dict(loop.failures) == {convert.id: 1, raising.id: 1}
    assert loop.attempted == len(workload.ops)
    assert "frozen reference" in loop.messages[convert.id]
    assert "ZeroDivisionError" in loop.messages[raising.id]


def test_clean_pass_has_no_failures_and_steady_counts():
    loop = bench_run.Loop(_small_corpus())
    loop.run_pass([])
    loop.run_pass([])
    assert not loop.failures and not loop.problems
    assert loop.pass_counts[0] == loop.pass_counts[1]
    assert loop.pass_counts[0]["mathml_bytes"] > 0


def test_speed_scale_scales_latencies_by_the_probes_around_them(monkeypatch):
    probes = iter([4_000_000, 8_000_000, 12_000_000])
    monkeypatch.setattr(bench_run, "probe_kernel", lambda: next(probes))
    monkeypatch.setattr(bench_run, "PROBE_REF_NS", 6_000_000)
    scale = bench_run.SpeedScale(every_ns=10**15)
    scale.append(1000)
    scale.append(3000)
    scale.probe()  # probes 4 and 8 ms around them: at the reference speed
    scale.append(600)
    scale.probe()  # probes 8 and 12 ms: the machine ran slow, so scale down
    assert list(scale.scaled) == pytest.approx([1000, 3000, 360])
    assert scale.raw_ns == 4600


def test_cache_workload_uses_only_its_private_directory(tmp_path, monkeypatch):
    ambient = tmp_path / "ambient"
    home = tmp_path / "home"
    ambient.mkdir()
    home.mkdir()
    monkeypatch.setenv("TEXMATHC_CACHE_DIR", str(ambient))
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    workdir = tmp_path / "private"
    workload = workloads.CacheMixed(2, workdir)
    workload.ops = workload.ops[:300]
    loop = bench_run.Loop(workload)
    loop.run_pass([])
    assert not loop.failures
    assert list(ambient.iterdir()) == [] and list(home.iterdir()) == []
    workload.close()
    assert not workdir.exists()


def test_cache_run_creates_and_removes_its_directory(tmp_path):
    ambient = tmp_path / "ambient"
    ambient.mkdir()
    env = dict(os.environ, TEXMATHC_CACHE_DIR=str(ambient), HOME=str(tmp_path),
               XDG_CACHE_HOME=str(tmp_path / "xdg"))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cache_mixed", "--seed", "4",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert list(ambient.iterdir()) == []
    assert not (tmp_path / "xdg").exists()
    assert not (ROOT / ".bench_tmp").exists() or not any((ROOT / ".bench_tmp").iterdir())


def test_trace_reports_missing_targets_and_restores_originals(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("parser.folded_away", "texmathc.parser", "no_such_stage", None),
        ("gone.module", "texmathc.no_such_module", "anything", None),
    ))
    original = pipeline.parse
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.parse is not original
        texmathc.convert_formula(r"\frac{a}{b}")
    finally:
        tracer.uninstall()
    assert pipeline.parse is original
    assert tracer.absent == ["parser.folded_away", "gone.module"]
    assert tracer.calls["parser.parse"] == 1 and tracer.calls["parser.tokenize"] == 1
    # tokenize runs inside parse, so parse's self time excludes it
    assert tracer.self_ns["parser.parse"] > 0 and tracer.self_ns["parser.tokenize"] > 0
    assert tracer.counts["mathml.bytes_out"] == len(texmathc.convert_formula(r"\frac{a}{b}"))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench_run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, bench_run.unit_of(name)) for name in bench_run.PER_LAYER]

"""Tests of the benchmark itself: its correctness gate can fail, and its
per-layer counts are exact and pinned.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

import dlforge  # noqa: E402


def exact_counts(summary):
    return {
        k: v for k, v in summary.items() if k.endswith(("_calls", "_entries")) or k == "polynomial.terms_out"
    }


# Per-op counts of the seed commit.  A change in algorithmic work moves
# them; update them only together with a change that explains the move.
PINNED = {
    "battery": {
        "formal_groups.pipeline_calls": 10,
        "homology.map_p_calls": 2202,
        "homology.mono_cache_entries": 1838,
        "homology.q_calls": 2480,
        "hopf_ring.chain_calls": 4,
        "polynomial.mul_gf2_calls": 79131,
        "polynomial.mul_qq_calls": 12698,
        "polynomial.terms_out": 66389,
        "rewriting.adem_step_calls": 10,
        "rewriting.mono_cache_entries": 70,
        "rewriting.word_cache_entries": 52,
        "series.mul_calls": 4446,
    },
    "battery-cap128": {
        "formal_groups.pipeline_calls": 10,
        "homology.map_p_calls": 2202,
        "homology.mono_cache_entries": 1838,
        "homology.q_calls": 2480,
        "hopf_ring.chain_calls": 4,
        "polynomial.mul_gf2_calls": 83365,
        "polynomial.mul_qq_calls": 12698,
        "polynomial.terms_out": 414233,
        "rewriting.adem_step_calls": 10,
        "rewriting.mono_cache_entries": 70,
        "rewriting.word_cache_entries": 52,
        "series.mul_calls": 4446,
    },
    # one session over make_corpus(1, corpus.CORPUS_SIZE)
    "rewrite-corpus": {
        "formal_groups.pipeline_calls": 0,
        "homology.map_p_calls": 0,
        "homology.mono_cache_entries": 0,
        "homology.q_calls": 0,
        "hopf_ring.chain_calls": 0,
        "polynomial.mul_gf2_calls": 0,
        "polynomial.mul_qq_calls": 0,
        "polynomial.terms_out": 0,
        "rewriting.adem_step_calls": 196230,
        "rewriting.mono_cache_entries": 34917,
        "rewriting.word_cache_entries": 32894,
        "series.mul_calls": 0,
    },
}


def traced_counts(workload, hash_seed):
    env = run.child_env(hash_seed)
    if workload == "rewrite-corpus":
        record = run.corpus_session(1, env, traced=True)
        assert record is not None and record["failed"] == 0
        return exact_counts(record["trace"])
    passed, _, _, summary = run.battery_op(workload, env, traced=True)
    assert passed
    return exact_counts(summary)


# -- negative controls ------------------------------------------------------------


def test_battery_op_with_injected_fault_fails(tmp_path, monkeypatch):
    config = tmp_path / "fault.cfg"
    config.write_text("inject-fault = true\n")
    env = run.child_env(0)
    argv = [sys.executable, "-m", "dlforge", "run", "--suite", "all", "--no-timing", "--config", str(config)]
    code, out, *_ = run.run_child(argv, env)
    assert code == 1
    assert hashlib.sha256(out).hexdigest() != run.BATTERIES["battery"][1]
    extra, want = run.BATTERIES["battery"]
    monkeypatch.setitem(run.BATTERIES, "battery", (extra + ("--config", str(config)), want))
    passed, *_ = run.battery_op("battery", env, traced=False)
    assert not passed


def test_battery_op_passes_on_the_seed_report():
    passed, wall, rss, _ = run.battery_op("battery", run.child_env(0), traced=False)
    assert passed and wall > 0 and rss > 0


def _product_item():
    return next(item for item in corpus.make_corpus(1, 40) if item.factors)


@pytest.mark.parametrize("route", ["normalize", "top-down", "rightmost", "reparsed"])
def test_corpus_op_fails_on_a_perturbed_route(route):
    ctx = dlforge.parse_context(corpus.CONTEXT_TEXT)
    routes, printed = corpus.compute_routes(_product_item(), ctx, dlforge)
    assert corpus.routes_agree(routes, printed)
    extra = dlforge.normalize("x^3", ctx)
    routes[route] = routes[route] + extra
    assert not corpus.routes_agree(routes, printed)


def test_corpus_op_fails_on_a_perturbed_printed_form():
    ctx = dlforge.parse_context(corpus.CONTEXT_TEXT)
    routes, printed = corpus.compute_routes(corpus.make_corpus(1, 1)[0], ctx, dlforge)
    assert not corpus.routes_agree(routes, printed + " + x^3")


def test_corpus_op_counts_an_exception_as_failed():
    class Broken:
        def __getattr__(self, name):
            raise RuntimeError("broken %s" % name)

    ctx = dlforge.parse_context(corpus.CONTEXT_TEXT)
    assert not corpus.run_item(corpus.make_corpus(1, 1)[0], ctx, Broken())


# -- the corpus -----------------------------------------------------------------------


def test_corpus_is_seeded_and_well_formed():
    a = corpus.make_corpus(7, 400)
    assert a == corpus.make_corpus(7, 400)
    assert a != corpus.make_corpus(8, 400)
    products = [item for item in a if item.factors]
    assert len(products) == 400 // corpus.PRODUCT_EVERY
    for item in a:
        words = item.factors if item.factors else (item.ops,)
        for ops in words:
            degree = corpus.GENERATOR_DEGREE
            for s, inner in zip(reversed(ops), (None,) + tuple(reversed(ops))):
                assert s >= degree
                assert inner is None or s > 2 * inner
                degree += s
        if not item.factors:
            assert 2 <= len(item.ops) <= 4
        else:
            assert item.ops[0] >= sum(corpus._degree(w) for w in item.factors)
        assert dlforge.parse_expression(item.text, dlforge.parse_context(corpus.CONTEXT_TEXT))


def test_every_corpus_item_passes():
    ctx = dlforge.parse_context(corpus.CONTEXT_TEXT)
    assert all(corpus.run_item(item, ctx, dlforge) for item in corpus.make_corpus(3, 200))


# -- determinism of the per-layer counts -----------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_across_hash_seeds(workload):
    first = traced_counts(workload, 0)
    second = traced_counts(workload, 12345)
    assert first == second
    assert first == PINNED[workload]


# -- calibration ------------------------------------------------------------------------


def test_calibration_scales_by_the_speed_around_each_op(monkeypatch):
    speeds = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(calibrate, "measure", lambda: next(speeds))
    calibration = calibrate.Calibration()
    assert calibration.scale() == pytest.approx(calibrate.REFERENCE_S / 0.020)
    assert calibration.scale() == pytest.approx(calibrate.REFERENCE_S / 0.025)


def test_reference_work_is_fixed():
    assert calibrate.reference_work() == calibrate.reference_work()
    assert calibrate.measure() > 0


# -- the benchmark command ---------------------------------------------------------


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_prints_every_declared_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "battery",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        result = _last_json(out.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

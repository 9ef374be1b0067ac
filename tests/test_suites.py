"""Report construction, suite registry, and serialization."""

import hashlib
import json
from fractions import Fraction

import pytest

from dlforge import formal_groups, hopf_ring, suites
from dlforge.relations import x_context
from dlforge.rewriting import normalize
from dlforge.suites import SUITE_NAMES, SuiteError, build_suite, emit_report, run_suite


def test_registry_covers_every_suite_name():
    for name in SUITE_NAMES:
        checks = build_suite(name)
        assert checks, name
        ids = [c["id"] for c in checks]
        assert len(ids) == len(set(ids)), name


def test_unknown_suite_raises():
    with pytest.raises(SuiteError):
        build_suite("does-not-exist")


def test_all_namespaces_check_ids():
    checks = build_suite("all")
    assert len(checks) == sum(len(build_suite(n)) for n in SUITE_NAMES)
    for check in checks:
        suite, _, rest = check["id"].partition("/")
        assert suite in SUITE_NAMES and rest


def test_report_shape_and_ordering():
    report = run_suite("en-level", {"scrub_timing": True})
    assert report["suite"] == "en-level"
    assert report["overall"] == "pass"
    ids = [row["id"] for row in report["checks"]]
    assert ids == sorted(ids)
    assert all(row["elapsed_ms"] == 0 for row in report["checks"])


def test_imported_flags_are_surfaced():
    report = run_suite("xi5-chain", {"scrub_timing": True})
    flags = {row["id"]: row["imported"] for row in report["checks"]}
    assert flags["04-indeterminacy"] and flags["05-hopf-endpoint"]
    assert not flags["01-second-juggle"]


def test_injected_fault_appends_a_failing_check():
    report = run_suite("en-level", {"inject_fault": True, "scrub_timing": True})
    assert report["overall"] == "fail"
    last = report["checks"][-1]
    assert last["id"] == "zz-injected-fault"
    assert last["status"] == "fail"


def test_json_report_round_trips():
    report = run_suite("big-relation", {"scrub_timing": True})
    text = emit_report(report, fmt="json")
    assert json.loads(text) == report
    assert text.endswith("\n")


def test_text_report_mentions_every_check(tmp_path):
    report = run_suite("big-relation", {"scrub_timing": True})
    path = tmp_path / "report.txt"
    text = emit_report(report, path=str(path), fmt="text")
    assert path.read_text() == text
    for row in report["checks"]:
        assert row["id"] in text


def test_unknown_format_rejected():
    report = run_suite("en-level", {"scrub_timing": True})
    with pytest.raises(ValueError):
        emit_report(report, fmt="yaml")


def test_errors_are_reported_not_raised():
    # max_degree too small for the Steinberger table: checks error, report survives
    report = run_suite("steinberger", {"max_degree": 8, "scrub_timing": True})
    statuses = {row["status"] for row in report["checks"]}
    assert report["overall"] == "fail"
    assert "error" in statuses


def test_scrubbed_all_report_is_byte_stable():
    # a refactor must leave the report unchanged; only a deliberate schema
    # change may move these hashes.  Cap 128 gives the packed monomials 64
    # generator fields; at cap 2048 H_*MU has 1,024 generators, and every
    # row passes.
    for config, want in (
        ({}, "e5ee6ccea1976761e1586b8dc46b20e013a5c7ed50262a1c0a6e7881b0a7c2aa"),
        ({"max_degree": 128}, "624e7c801dcae6d16d2788ae32c0abb3b1c0bb6ebdb914009a9c6ab2ff6b1e85"),
        ({"max_degree": 256}, "994a109f8ca9293353aaa621e921c26296ca251ad18eb1695c9b2ab2f672f280"),
        ({"max_degree": 512}, "fdae00b0f34a0cb9883bbe5a90d4d166158d64ab991360cebe0d488362eb6fed"),
        ({"max_degree": 1024}, "fd46ece915457216a3a3bf16da96d542edd106f4a4bfba847937e5bc0ba7692b"),
        ({"max_degree": 2048}, "d38a62c47329d0d096fbea004a514dc1b737b6291139912563a9df4fb2530e35"),
    ):
        text = emit_report(run_suite("all", {"scrub_timing": True, **config}))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == want, config


PIPELINE_ROWS = (
    "appendix/01-bracket2",
    "appendix/02-g-cubic",
    "appendix/03-kinv",
    "appendix/04-f2",
    "appendix/05-h2",
    "appendix/06-raw",
    "appendix/07-reduced",
    "appendix/08-internal",
    "appendix/09-additive-oracle",
    "appendix/10-isogeny-derivative",
    "hopf-chain/01-chain-k5",
    "hopf-chain/02-chain-k4",
    "hopf-chain/03-raw-surfaced",
    "xi5-chain/05-hopf-endpoint",
)


def test_a_scaled_raw_value_fails_both_raw_rows(monkeypatch):
    # 1375 v3 alpha^3 still contains the text "375 v3", so only a comparison
    # of the series tells it from the paper's value
    real = formal_groups.appendix_pipeline

    def scaled(*args, **kwargs):
        r = real(*args, **kwargs)
        return formal_groups.PowerOpResult(**{**vars(r), "raw": r.raw.scale(Fraction(1375, 375))})

    monkeypatch.setattr(suites, "appendix_pipeline", scaled)
    monkeypatch.setattr(hopf_ring, "appendix_pipeline", scaled)
    report = run_suite("all", {"scrub_timing": True})
    rows = {row["id"]: row for row in report["checks"]}
    failed = sorted(i for i, row in rows.items() if row["status"] != "pass")
    assert failed == ["appendix/06-raw", "hopf-chain/03-raw-surfaced"]
    assert "1375 v3" in rows["hopf-chain/03-raw-surfaced"]["witness"]


def test_an_exhausted_reduction_budget_errors_exactly_the_pipeline_rows(monkeypatch):
    # the pipeline memo is cleared so that no earlier result hides the budget
    monkeypatch.setattr(formal_groups, "REDUCTION_PASS_BUDGET", 0)
    formal_groups._appendix_pipeline.cache_clear()
    report = run_suite("all", {"scrub_timing": True})
    statuses = {row["id"]: row["status"] for row in report["checks"]}
    assert sorted(i for i, status in statuses.items() if status == "error") == list(PIPELINE_ROWS)
    assert all(status == "pass" for i, status in statuses.items() if i not in PIPELINE_ROWS)
    witnesses = {row["witness"] for row in report["checks"] if row["status"] == "error"}
    assert witnesses == {"ArithmeticError: mod-2 series reduction did not terminate"}


# -- the per-run fact table -------------------------------------------------


def _failed_rows():
    report = run_suite("all", {"scrub_timing": True})
    return sorted(row["id"] for row in report["checks"] if row["status"] != "pass")


def test_a_scan_that_finds_an_indecomposable_fails_every_row_that_reads_it(monkeypatch):
    real = suites.indeterminacy_scan
    monkeypatch.setattr(suites, "indeterminacy_scan", lambda *a: {**real(*a), "all_decomposable": False})
    assert _failed_rows() == [
        "firstjuggle-algebra/05-degree5-scan",
        "indeterminacy/03-relation-scan",
        "indeterminacy/04-firstjuggle-scan",
        "xi5-chain/04-indeterminacy",
    ]


def test_a_nonzero_juggling_residual_fails_both_rows_that_read_it(monkeypatch):
    monkeypatch.setattr(suites, "juggling_residual", lambda: normalize("x^2", x_context()))
    assert _failed_rows() == ["secondjuggle/01-composite-equality", "xi5-chain/01-second-juggle"]


def test_a_suite_gives_the_same_rows_alone_and_inside_all():
    # each run has its own facts, so no value depends on which suite read it first
    inside = run_suite("all", {"scrub_timing": True})["checks"]
    for name in SUITE_NAMES:
        alone = run_suite(name, {"scrub_timing": True})["checks"]
        namespaced = [dict(row, id="%s/%s" % (name, row["id"])) for row in alone]
        assert namespaced == [row for row in inside if row["id"].startswith(name + "/")], name


def _count_calls(monkeypatch, name):
    """Record the keyword arguments of every call to a ``suites`` global."""
    calls = []
    real = getattr(suites, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return calls


@pytest.mark.parametrize("name, scans, chains, residuals", [
    ("all", 2, [{"k": 5}, {"k": 4}, {"identify": False}], 1),
    ("xi5-chain", 2, [{"k": 5}], 1),
])
def test_each_shared_fact_is_computed_once_per_run(monkeypatch, name, scans, chains, residuals):
    # the facts call these through the module's globals, so the wrappers see every call
    scan_calls = _count_calls(monkeypatch, "indeterminacy_scan")
    chain_calls = _count_calls(monkeypatch, "verify_gotcha_chain")
    residual_calls = _count_calls(monkeypatch, "juggling_residual")
    assert run_suite(name, {"scrub_timing": True})["overall"] == "pass"
    assert (len(scan_calls), chain_calls, len(residual_calls)) == (scans, chains, residuals)

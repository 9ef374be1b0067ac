"""Report construction, suite registry, and serialization."""

import hashlib
import json
import subprocess
import sys
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
        ({"max_degree": 64}, "3bf86c8f1ae77443f8e5549beddf54b74d76917b07ca5e07580b88cfba2cd2a9"),
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


# each value a row compares against -> a wrong value, and the rows that state it
WRONG_VALUES = {
    "EN_LEVEL": (11, ["en-level/01-displayed-level", "en-level/03-substituted-level"]),
    "EN_WITNESS": ((20, 12), ["en-level/02-witness"]),
    "SPOT_VALUE": ("xi2^2", ["model-compat/02-spot-value"]),
    "SUSPENDED_QBAR_IMAGE": ("Q10 y'5", ["firstjuggle-algebra/03-suspended-qbar"]),
    "EMPTY_DEGREES": ((5, 7, 11, 13, 14), ["indeterminacy/01-low-degrees", "xi5-chain/04-indeterminacy"]),
    "LINE_DEGREE": (
        30,
        ["indeterminacy/02-degree-31", "indeterminacy/03-relation-scan", "xi5-chain/04-indeterminacy"],
    ),
    "BRACKET2": ("2 - 126 v3 alpha^7", ["appendix/01-bracket2"]),
    "G_CUBIC": ("-14 v3 alpha^5", ["appendix/02-g-cubic"]),
    "KINV_Y2": ("-1 + 3 v3 alpha^7", ["appendix/03-kinv"]),
    "KINV_Y3": ("2 - 2 v3 alpha^6", ["appendix/03-kinv"]),
    "F2": ("6 - 6 v3 alpha^8", ["appendix/04-f2"]),
    "H2": ("2", ["appendix/05-h2"]),
    "RAW_VALUE": ("376 v3 alpha^3", ["appendix/06-raw", "hopf-chain/03-raw-surfaced"]),
    "REDUCED_VALUE": ("v3 alpha^2", ["appendix/07-reduced"]),
    "ADDITIVE_H1": ("1", ["appendix/09-additive-oracle"]),
    "ADDITIVE_VALUE": ("1", ["appendix/09-additive-oracle"]),
    "ENDPOINT": ("sigma x5", ["hopf-chain/01-chain-k5", "xi5-chain/05-hopf-endpoint"]),
}


@pytest.mark.parametrize("name", sorted(WRONG_VALUES))
def test_a_wrong_value_fails_exactly_the_rows_that_compare_against_it(monkeypatch, name):
    wrong, rows = WRONG_VALUES[name]
    monkeypatch.setattr(suites, name, wrong)
    assert _failed_rows() == rows
    # each of those rows states the wrong text, except kinv's y^2 coefficient,
    # which its statement writes in another order
    if isinstance(wrong, str) and name != "KINV_Y2":
        statements = {check["id"]: check["statement"] for check in build_suite("all")}
        assert all(wrong in statements[row] for row in rows)


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


def _scan_with(monkeypatch, generator, **fields):
    """Patch the scan of the suspended map from ``generator`` so that its first
    term's row holds ``fields``."""
    real = suites.indeterminacy_scan

    def patched(*args):
        scan = real(*args)
        if scan["generator"] != generator:
            return scan
        first, *rest = scan["terms"]
        return {**scan, "terms": [{**first, **fields}, *rest]}

    monkeypatch.setattr(suites, "indeterminacy_scan", patched)


def test_a_relation_value_outside_the_line_degree_fails_the_relation_scan_row(monkeypatch):
    # every value is decomposable still; only the row that states the
    # values' degree reads it
    _scan_with(monkeypatch, "z'31", value_degrees=[suites.LINE_DEGREE, 33])
    report = run_suite("all", {"scrub_timing": True})
    failed = {row["id"]: row["witness"] for row in report["checks"] if row["status"] != "pass"}
    assert failed == {"indeterminacy/03-relation-scan": "values in degrees [33]"}


def test_the_chain_witness_reads_the_first_juggle_slot_degree_from_its_scan(monkeypatch):
    _scan_with(monkeypatch, "z'15", source_degree=6)
    rows = {row["id"]: row for row in run_suite("xi5-chain", {"scrub_timing": True})["checks"]}
    assert "and 5, 6 all land" in rows["04-indeterminacy"]["witness"]


# each sweep bound -> a smaller bound, and the row that sweeps to it
SMALLER_BOUNDS = {
    "SWEEP_OPERATIONS": (20, "model-compat", "01-commute-sweep", "s <= 20 on"),
    "SWEEP_DEGREE": (12, "model-compat", "01-commute-sweep", "degree <= 12"),
    "SQUARES_UP_TO": (7, "model-compat", "03-squares", "k <= 7"),
    "CONJUGATE_DEGREE": (30, "steinberger", "01-generating-function", "through degree 30"),
    "ASSOCIATIVITY_DEGREE": (10, "appendix", "11-associativity", "total degree 10"),
}


@pytest.mark.parametrize("name", sorted(SMALLER_BOUNDS))
def test_a_sweep_bound_is_printed_by_the_row_that_sweeps_to_it(monkeypatch, name):
    bound, suite, row_id, text = SMALLER_BOUNDS[name]
    monkeypatch.setattr(suites, name, bound)
    row = {r["id"]: r for r in run_suite(suite, {"scrub_timing": True})["checks"]}[row_id]
    assert row["status"] == "pass" and text in row["witness"]
    if suite == "appendix":  # the one row whose statement states its bound too
        assert text in row["statement"]


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


# a fresh interpreter, so that no memo holds a value from another test
COLD_RUN_COUNTS = """\
import json
from dlforge import formal_groups, polynomial
from dlforge.suites import run_suite

packs = []
pack = polynomial.PolynomialRing.pack
polynomial.PolynomialRing.pack = lambda ring, mono: packs.append(None) or pack(ring, mono)
series = []
build = formal_groups._build_n_series
formal_groups._build_n_series = lambda p, *args: series.append([p.name, args[1]]) or build(p, *args)
overall = run_suite("all", {"scrub_timing": True})["overall"]
print(json.dumps([overall, formal_groups.isogeny_g.cache_info().misses, series, len(packs)]))
"""


def test_a_cold_run_builds_each_series_and_priddy_numerator_once():
    # 4 isogenies, as the four alpha-order-24 pipelines share one; 3 builds
    # of a 2-series (preset, order): the run asks for 7, appendix-z-v3 at
    # 21, 15, 25, 19 and 17 and additive at 19 and 15, and each lower order
    # truncates the highest built so far; and 881 packed monomials, as each
    # Priddy numerator is packed once, not each time an action reads it
    # (2,269 then), a truncation packs nothing (957 with 7 builds), rows
    # compare texts rather than build their expected series, and a mod-2
    # reduction trades all its excess terms in one product per pass (904
    # with both undone)
    proc = subprocess.run([sys.executable, "-c", COLD_RUN_COUNTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "pass", 4, [["appendix-z-v3", 21], ["additive", 19], ["appendix-z-v3", 25]], 881,
    ]

"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import dlforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(dlforge.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("dlforge." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# the 65 names the package re-exported when it imported every module eagerly
REEXPORTS = {
    "expressions": "DegreeMismatchError ExpressionSyntaxError GeneratorContext UnknownGeneratorError"
    " en_level_witness expression_degrees format_expression homogeneous_degree min_en_level"
    " parse_context parse_expression",
    "polynomial": "GF2 QQ Generator GradedPolynomial PolynomialRing binomial_mod2 graded_inverse",
    "rewriting": "DLPolynomial RewriteBudgetExceeded adem_step normalize normalize_word verify_identity",
    "series": "SeriesSignature TruncatedSeries signature",
    "substitutions": "SubstitutionMap compose_maps suspend",
    "homology": "DLModel DualSteenrodAlgebra MUHomology ModelInconsistencyError check_dl_compatibility"
    " dual_steenrod evaluate_in_model indecomposable_dimension indeterminacy_scan map_p mu_homology",
    "formal_groups": "LogarithmPreset PowerOpResult ReductionResult appendix_pipeline bracket2_series"
    " check_associativity fgl_from_log isogeny_g n_series preset reduce_mod_two_series"
    " verify_isogeny_derivative",
    "hopf_ring": "IdentificationError ImportedRule import_pseries qhat_b1 qhat_on_hurewicz"
    " suspend_to_dual verify_gotcha_chain",
    "suites": "SUITE_NAMES SuiteError build_suite emit_report run_suite",
}
PINNED = {name: module for module, names in REEXPORTS.items() for name in names.split()}


def test_every_package_reexport_resolves():
    assert len(PINNED) == 65
    # every lazy name maps to its defining module; SUITE_NAMES lives in the
    # package itself, so the CLI can list the suites without importing them
    assert dict(dlforge._EXPORTS, SUITE_NAMES="suites") == PINNED
    assert set(dlforge.__all__) == set(PINNED)
    for name, module in PINNED.items():
        source = importlib.import_module("dlforge." + module)
        assert getattr(dlforge, name) is getattr(source, name), name


def fresh(code):
    """What ``code`` prints in a fresh interpreter, which has loaded no module yet."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout


def test_star_import_and_dir_give_every_reexport():
    listed = fresh("import dlforge; print(*dir(dlforge))").split()
    assert set(PINNED) <= set(listed)
    starred = fresh("from dlforge import *; print(*globals())").split()
    assert set(PINNED) <= set(starred)


def test_submodules_resolve_through_the_package():
    assert dlforge._SUBMODULES == set(MODULES)
    assert fresh("import dlforge; print(dlforge.homology.__name__)") == "dlforge.homology\n"
    for name in MODULES:
        assert getattr(dlforge, name) is importlib.import_module("dlforge." + name), name
    with pytest.raises(AttributeError):
        dlforge.no_such_name

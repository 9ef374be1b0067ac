"""Exact-arithmetic tools for mod-2 operation algebra calculations.

The names below are re-exported from their modules, each of which is
imported on first use (PEP 562), so a process that only rewrites never
loads the models, the series or the suites.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

SUITE_NAMES = (
    "big-relation",
    "en-level",
    "priddy",
    "steinberger",
    "model-compat",
    "secondjuggle",
    "firstjuggle-algebra",
    "indeterminacy",
    "appendix",
    "hopf-chain",
    "xi5-chain",
)

# re-exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("expressions", "DegreeMismatchError ExpressionSyntaxError GeneratorContext UnknownGeneratorError"
         " en_level_witness expression_degrees format_expression homogeneous_degree min_en_level"
         " parse_context parse_expression"),
        ("polynomial", "GF2 QQ Generator GradedPolynomial PolynomialRing binomial_mod2 graded_inverse"),
        ("rewriting", "DLPolynomial RewriteBudgetExceeded adem_step normalize normalize_word verify_identity"),
        ("series", "SeriesSignature TruncatedSeries signature"),
        ("substitutions", "SubstitutionMap compose_maps suspend"),
        ("homology", "DLModel DualSteenrodAlgebra MUHomology ModelInconsistencyError check_dl_compatibility"
         " dual_steenrod evaluate_in_model indecomposable_dimension indeterminacy_scan map_p mu_homology"),
        ("formal_groups", "LogarithmPreset PowerOpResult ReductionResult appendix_pipeline bracket2_series"
         " check_associativity fgl_from_log isogeny_g n_series preset reduce_mod_two_series"
         " verify_isogeny_derivative"),
        ("hopf_ring", "IdentificationError ImportedRule import_pseries qhat_b1 qhat_on_hurewicz"
         " suspend_to_dual verify_gotcha_chain"),
        ("suites", "SuiteError build_suite emit_report run_suite"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "relations"}

__all__ = ["SUITE_NAMES", *_EXPORTS]


def __getattr__(name):
    """Import a re-export's module (or a submodule) on first use and keep
    the value in the package, so later lookups skip this function."""
    if name in _EXPORTS:
        value = getattr(_import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

"""Exact-arithmetic tools for mod-2 operation algebra calculations."""

__version__ = "0.1.0"

from .expressions import (
    DegreeMismatchError,
    ExpressionSyntaxError,
    GeneratorContext,
    UnknownGeneratorError,
    en_level_witness,
    expression_degrees,
    format_expression,
    homogeneous_degree,
    min_en_level,
    parse_context,
    parse_expression,
)
from .polynomial import (
    GF2,
    QQ,
    Generator,
    GradedPolynomial,
    PolynomialRing,
    binomial_mod2,
    graded_inverse,
)
from .rewriting import (
    DLPolynomial,
    RewriteBudgetExceeded,
    adem_step,
    normalize,
    normalize_word,
    verify_identity,
)
from .series import SeriesSignature, TruncatedSeries, signature
from .substitutions import SubstitutionMap, compose_maps, suspend
from .homology import (
    DLModel,
    DualSteenrodAlgebra,
    MUHomology,
    ModelInconsistencyError,
    check_dl_compatibility,
    dual_steenrod,
    evaluate_in_model,
    indecomposable_dimension,
    indeterminacy_scan,
    map_p,
    mu_homology,
)
from .formal_groups import (
    LogarithmPreset,
    PowerOpResult,
    ReductionResult,
    appendix_pipeline,
    bracket2_series,
    check_associativity,
    fgl_from_log,
    isogeny_g,
    n_series,
    preset,
    reduce_mod_two_series,
    verify_isogeny_derivative,
)
from .hopf_ring import (
    IdentificationError,
    ImportedRule,
    import_pseries,
    qhat_b1,
    qhat_on_hurewicz,
    suspend_to_dual,
    verify_gotcha_chain,
)
from .suites import SUITE_NAMES, SuiteError, build_suite, emit_report, run_suite

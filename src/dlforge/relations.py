"""The degree-30 relation on a degree-2 class and the maps that juggle it.

Everything here is stated over small free contexts: a base class x of
degree 2, auxiliary classes y_i built from it, and formal sources z_n used
to package relations as substitution maps.
"""

from __future__ import annotations

from functools import lru_cache

from .expressions import GeneratorContext, parse_expression
from .rewriting import normalize, verify_identity
from .substitutions import SubstitutionMap, compose_maps, suspend

__all__ = [
    "Y_DEFINITIONS",
    "RELATION_TERMS",
    "AUXILIARY_IDENTITIES",
    "x_context",
    "y_context",
    "y4_context",
    "z14_context",
    "z15_context",
    "z30_context",
    "definitions_map",
    "relation_map",
    "big_relation_expression",
    "big_relation_residual",
    "mu",
    "nu",
    "alpha",
    "beta",
    "qbar",
    "MU_R_SYMBOLIC",
    "MU_R_NORMALIZED",
    "QBAR_NU_SYMBOLIC",
    "BETA_ALPHA_SYMBOLIC",
    "SIGMA_R_IMAGE",
    "suspended_relation",
]

# The seven classes, in terms of the degree-2 base class.
Y_DEFINITIONS = {
    "y5": "Q3 x",
    "y7": "Q5 x",
    "y9": "Q7 x",
    "y13": "Q11 x",
    "y8": "Q6 x + x^4",
    "y10": "Q8 x + x^2 Q4 x",
    "y12": "Q10 x + (Q4 x)^2",
}

# Summands of the degree-30 relation; the sum vanishes after substituting
# the definitions above.
RELATION_TERMS = (
    "Q20 y10",
    "Q18 y12",
    "Q17 y13",
    "x^4 (Q12 y10)",
    "y9^2 (Q4 x)^2",
    "y7^2 Q9 Q5 x",
    "y8^2 Q8 Q4 x",
    "(Q9 y9) (Q4 x)^2",
    "(Q10 y8) (Q4 x)^2",
    "y5^2 (Q11 Q7 x + Q10 Q8 x + x^4 Q6 Q4 x)",
)

# Intermediate identities used when cancelling the relation by hand; each
# pair (lhs, rhs) holds in the free algebra on x ("0" is the zero class).
AUXILIARY_IDENTITIES = (
    ("Q20 Q8 x", "Q18 Q10 x + Q17 Q11 x"),
    (
        "Q20 (x^2 Q4 x)",
        "x^4 Q16 Q4 x + (Q3 x)^2 Q14 Q4 x + (Q4 x)^2 Q12 Q4 x"
        " + (Q5 x)^2 Q10 Q4 x + (Q6 x)^2 Q8 Q4 x + (Q7 x)^2 (Q4 x)^2",
    ),
    ("Q18 ((Q4 x)^2)", "0"),
    ("x^4 Q16 Q4 x", "x^4 Q12 Q8 x"),
    ("(Q3 x)^2 Q14 Q4 x", "(Q3 x)^2 Q11 Q7 x + (Q3 x)^2 Q10 Q8 x"),
    ("(Q4 x)^2 Q12 Q4 x", "(Q4 x)^2 Q10 Q6 x + (Q4 x)^2 Q9 Q7 x"),
    ("(Q5 x)^2 Q10 Q4 x", "(Q5 x)^2 Q9 Q5 x"),
)

# Symbolic composites on z30 and the suspended relation image, printed in
# canonical source order.
MU_R_SYMBOLIC = "Q20 Q6 y4 + x^4 (Q12 Q6 y4)"
MU_R_NORMALIZED = "Q16 Q10 y4 + x^4 Q12 Q6 y4"
QBAR_NU_SYMBOLIC = "Q16 (Q10 y4 + x^2 Q6 y4)"
BETA_ALPHA_SYMBOLIC = "(Q3 x Q6 y4)^2"
SIGMA_R_IMAGE = (
    "Q20 y'11 + Q18 y'13 + Q17 y'14 + x^4 (Q12 y'11)"
    " + (Q9 y'10) (Q4 x)^2 + (Q10 y'9) (Q4 x)^2"
)


@lru_cache(maxsize=None)
def x_context():
    return GeneratorContext([("x", 2)], base=("x",))


@lru_cache(maxsize=None)
def y_context():
    gens = [("x", 2)] + [
        (name, int(name[1:]))
        for name in ("y5", "y7", "y9", "y13", "y8", "y10", "y12")
    ]
    return GeneratorContext(gens, base=("x",))


@lru_cache(maxsize=None)
def y4_context():
    return GeneratorContext([("x", 2), ("y4", 4)], base=("x",))


@lru_cache(maxsize=None)
def z14_context():
    return GeneratorContext([("x", 2), ("z14", 14)], base=("x",))


@lru_cache(maxsize=None)
def z15_context():
    return GeneratorContext([("x", 2), ("z15", 15)], base=("x",))


@lru_cache(maxsize=None)
def z30_context():
    return GeneratorContext([("x", 2), ("z30", 30)], base=("x",))


@lru_cache(maxsize=None)
def definitions_map():
    """The map sending each y_i to its defining class in x."""
    return SubstitutionMap(y_context(), x_context(), Y_DEFINITIONS, name="Q")


@lru_cache(maxsize=None)
def big_relation_expression():
    """The relation sum as an expression over the y-context."""
    return parse_expression(" + ".join(RELATION_TERMS), y_context())


@lru_cache(maxsize=None)
def relation_map():
    """z30 goes to the relation sum; packaged for juggling and suspension."""
    return SubstitutionMap(
        z30_context(), y_context(), {"z30": big_relation_expression()}, name="R"
    )


def big_relation_residual():
    """Normal form of the relation after substituting the definitions.

    The whole point: this is the zero polynomial.
    """
    substituted = definitions_map()._subst(big_relation_expression())
    return normalize(substituted, x_context())


@lru_cache(maxsize=None)
def mu():
    return SubstitutionMap(
        y_context(), y4_context(), {"y10": "Q6 y4"}, name="m", missing="zero"
    )


@lru_cache(maxsize=None)
def nu():
    return SubstitutionMap(z30_context(), z14_context(), {"z30": "Q16 z14"}, name="n")


@lru_cache(maxsize=None)
def alpha():
    return SubstitutionMap(z30_context(), z15_context(), {"z30": "z15^2"}, name="a")


@lru_cache(maxsize=None)
def beta():
    return SubstitutionMap(z15_context(), y4_context(), {"z15": "Q3 x Q6 y4"}, name="b")


@lru_cache(maxsize=None)
def qbar():
    return SubstitutionMap(
        z14_context(), y4_context(), {"z14": "Q10 y4 + x^2 Q6 y4"}, name="Qbar"
    )


def suspended_relation():
    return suspend(relation_map())


def juggling_residual():
    """Normalized difference of mu R and Qbar nu + beta alpha on z30."""
    lhs = compose_maps(mu(), relation_map()).image_polynomial("z30")
    rhs = compose_maps(qbar(), nu()).image_polynomial("z30") + compose_maps(
        beta(), alpha()
    ).image_polynomial("z30")
    return lhs + rhs


def verify_auxiliary_identities():
    """Each hand-cancellation identity, as (lhs, rhs, holds, witness)."""
    out = []
    for lhs, rhs in AUXILIARY_IDENTITIES:
        holds, witness = verify_identity(lhs, rhs, x_context())
        out.append((lhs, rhs, holds, witness))
    return out

"""Named verification suites with deterministic, diff-able reports.

Each suite is an ordered list of checks; a check is a thunk returning
(ok, witness text) plus a human-readable statement of what is being
asserted and a flag for statements imported rather than derived here.
Checks that share a fact (a scan, the Hopf chain, a statement's sides, ...)
read it from one per-run table, so a run computes each fact once and its
rows only format witnesses.  Reports order checks by id, print witnesses
in canonical monomial order, and are bit-stable except for the
elapsed-milliseconds fields (which the ``scrub_timing`` config key zeroes
out).
"""

from __future__ import annotations

import json
import re
import time
from functools import cached_property

from . import SUITE_NAMES, __version__
from .expressions import format_expression, parse_expression
from .formal_groups import (
    appendix_pipeline,
    check_associativity,
    preset,
    verify_isogeny_derivative,
)
from .homology import (
    DEFAULT_MAX_DEGREE,
    dual_steenrod,
    evaluate_in_model,
    indecomposable_dimension,
    indeterminacy_scan,
    map_p,
    mu_homology,
    check_dl_compatibility,
)
from .hopf_ring import (
    RW_MAIN_RELATION,
    STABILITY_RULE,
    TRANSLATION_RULE,
    format_quotient_class,
    qhat_b1,
    verify_gotcha_chain,
)
from .relations import (
    AUXILIARY_IDENTITIES,
    BETA_ALPHA_SYMBOLIC,
    MU_R_NORMALIZED,
    MU_R_SYMBOLIC,
    QBAR_NU_SYMBOLIC,
    RELATION_TERMS,
    Y_DEFINITIONS,
    alpha,
    beta,
    big_relation_expression,
    big_relation_residual,
    definitions_map,
    juggling_residual,
    mu,
    nu,
    qbar,
    relation_map,
    suspended_relation,
    x_context,
    y4_context,
    y_context,
)
from .rewriting import normalize, verify_identity
from .expressions import en_level_witness, min_en_level
from .substitutions import compose_maps, suspend


class SuiteError(KeyError):
    """Unknown suite name."""


def _check(check_id, statement, run, imported=False):
    return {"id": check_id, "statement": statement, "imported": imported, "run": run}


def _zero_check(residual):
    return residual.is_zero(), str(residual)


def _eq(got, want):
    if got == want:
        return True, str(got)
    return False, "expected %s, got %s" % (want, got)


def _series_is(series, want):
    """``series`` against the formula ``want`` as the kernel's canonical text of
    its element, which is one text per element in the statements' notation;
    the witness is the series printer's grouped form."""
    if str(series.poly) == want:
        return True, str(series)
    return False, "expected %s, got %s" % (want, series)


def _scan_check(scan):
    return scan["all_decomposable"], "; ".join(
        "%s (degree %d, %d classes)" % (r["term"], r["source_degree"], r["basis_size"])
        for r in scan["terms"]
    )


# -- the values rows compare against --------------------------------------------

# Each is written once: a row builds its statement from it and compares
# what it computed with it, an element by the element's canonical text.
EN_LEVEL = 12
EN_WITNESS = (20, 10)  # (operation, degree of its argument)
SPOT_VALUE = "xi2^2 + xi1^6"
SUSPENDED_QBAR_IMAGE = "Q10 y'5 + x^2 Q6 y'5"
# degrees where the dual algebra has no indecomposables, and where they span a line
EMPTY_DEGREES = (5, 11, 13, 14)
LINE_DEGREE = 31
BRACKET2 = "2 - 127 v3 alpha^7"
G_CUBIC = "-14 v3 alpha^6"
# the statement writes this coefficient "4 v3 alpha^7 - 1", which no
# canonical printer produces, so it is the one value written twice
KINV_Y2 = "-1 + 4 v3 alpha^7"
KINV_Y3 = "2 - 2 v3 alpha^7"
F2 = "6 - 6 v3 alpha^7"
H2 = "3"
RAW_VALUE = "375 v3 alpha^3"
REDUCED_VALUE = "v3 alpha^3"
ADDITIVE_H1 = "-1"
ADDITIVE_VALUE = "0"
ENDPOINT = "sigma x7"

# The bounds of the rows that sweep a range, each written once: the row
# passes it to its call and prints it in its text.
SWEEP_OPERATIONS, SWEEP_DEGREE = 24, 14  # Q^s for s <= 24 on monomials of degree <= 14
SQUARES_UP_TO = 8  # Q^{2k} b_k for k <= 8
CONJUGATE_DEGREE = 32  # the total series' product, through this degree
ASSOCIATIVITY_DEGREE = 12  # the group law, through this total degree


# -- the facts of one run -----------------------------------------------------


class _Facts:
    """The facts rows share, each computed when a row first reads it and kept
    for one run.  A fact that raises is not kept, so each row that reads it
    becomes its own ``error`` row.  Facts find the helpers as module globals
    when they run, so a rebound helper (a test's patch, a tracer) is called.
    """

    def __init__(self, config):
        self.config = config
        # the default cap is not written into ``config``: the report echoes it
        self.cap = config.get("max_degree", DEFAULT_MAX_DEGREE)
        self._sides = {}

    A = cached_property(lambda f: dual_steenrod(f.cap))
    M = cached_property(lambda f: mu_homology(f.cap))
    at_xi1_squared = cached_property(lambda f: {"x": f.A.xi(1) * f.A.xi(1)})
    suspended_qbar = cached_property(lambda f: suspend(qbar()))
    qbar_scan = cached_property(lambda f: indeterminacy_scan(f.suspended_qbar, f.A, f.at_xi1_squared))
    relation_scan = cached_property(lambda f: indeterminacy_scan(suspended_relation(), f.A, f.at_xi1_squared))
    chain_k5 = cached_property(lambda f: verify_gotcha_chain(k=5))
    juggle_residual = cached_property(lambda f: juggling_residual())
    # the seven degree-2 definitions, evaluated at xi1^2
    y_values = cached_property(lambda f: {
        name: evaluate_in_model(expr, f.at_xi1_squared, f.A, y_context()) for name, expr in Y_DEFINITIONS.items()
    })
    indecomposables = cached_property(
        lambda f: {d: indecomposable_dimension(f.A, d) for d in (*EMPTY_DEGREES, LINE_DEGREE)}
    )

    def sides(self, model, statement):
        """``statement_sides`` of a table statement in model ``"A"`` or ``"M"``."""
        key = model, statement
        if key not in self._sides:
            self._sides[key] = statement_sides(getattr(self, model), statement)
        return self._sides[key]


# -- suite builders -----------------------------------------------------------


def _suite_big_relation(facts):
    checks = [
        _check(
            "01-relation-sum",
            "the displayed operation sum vanishes identically on a degree-2 class",
            lambda: _zero_check(big_relation_residual()),
        )
    ]
    for index, (lhs, rhs) in enumerate(AUXILIARY_IDENTITIES, start=2):
        statement = "%s = %s" % (lhs, rhs)

        def run(lhs=lhs, rhs=rhs):
            holds, witness = verify_identity(lhs, rhs, x_context())
            return holds, str(witness)

        checks.append(_check("%02d-identity" % index, statement, run))
    return checks


def _suite_en_level(facts):
    expr = big_relation_expression()

    def displayed():
        return _eq(min_en_level(expr, y_context()), EN_LEVEL)

    def witness():
        return _eq(en_level_witness(expr, y_context()), EN_WITNESS)

    def substituted():
        node = definitions_map()._subst(expr)
        return _eq(min_en_level(node, x_context()), EN_LEVEL)

    return [
        _check("01-displayed-level", "the displayed relation needs operadic level exactly %d" % EN_LEVEL, displayed),
        _check("02-witness", "the level is forced by a Q^%d applied to a degree-%d class" % EN_WITNESS, witness),
        _check(
            "03-substituted-level",
            "substituting the degree-2 definitions leaves the level at %d" % EN_LEVEL,
            substituted,
        ),
    ]


# The paper's action tables and identities derived from them, each checked
# by evaluating both sides of the statement in a model: Priddy's in H_*MU,
# Steinberger's in the dual Steenrod algebra.
PRIDDY_VALUES = (
    "Q2 b1 = b1^2",
    "Q4 b1 = b3 + b1 b2 + b1^3",
    "Q6 b1 = b1^4",
    "Q8 b1 = b5 + b1 b4 + b2 b3 + b1^2 b3 + b1 b2^2 + b1^3 b2 + b1^5",
    "Q10 b1 = b3^2 + b1^2 b2^2 + b1^6",
    "Q6 b2 = b5 + b1 b4 + b2 b3 + b1 b2^2",
    "Q10 b2 = b1^2 b5 + b1^3 b4 + b1^2 b2 b3 + b1^3 b2^2",
)
PRIDDY_IDENTITIES = (
    "Q6 b1 + b1^4 = 0",
    "Q10 b1 = (Q4 b1)^2",
    "Q6 b2 = Q8 b1 + b1^2 Q4 b1",
    "Q10 b2 + b1^2 Q6 b2 = 0",
)
STEINBERGER_VALUES = (
    "Q2 xibar1 = xibar2",
    "Q3 xibar1 = xibar1^4",
    "Q4 xibar1 = xibar1^2 xibar2",
    "Q5 xibar1 = xibar2^2",
    "Q16 xibar4 = xibar5",
)
STEINBERGER_IDENTITIES = (
    "Q6 xi1^2 + xi1^8 = 0",
    "Q8 xi1^2 + xi1^4 Q4 xi1^2 = 0",
    "Q10 xi1^2 + (Q4 xi1^2)^2 = 0",
)

_ELEMENT_NAME = re.compile(r"\b((b|xi|xibar)(\d+))\b")
_ELEMENT_METHODS = {"b": "b", "xi": "xi", "xibar": "antipode_xi"}


def statement_sides(model, statement):
    """Both sides of a table statement, evaluated in ``model``.

    A name ``b<k>``, ``xi<i>`` or ``xibar<i>`` stands for that element of the
    model.  Each is built when a side first uses it, so a side fails on its
    own operation before the next side asks for an element beyond the cap.
    """
    named = {}
    sides = []
    for side in statement.split(" = "):
        for name, kind, index in _ELEMENT_NAME.findall(side):
            if name not in named:
                named[name] = getattr(model, _ELEMENT_METHODS[kind])(int(index))
        sides.append(model.ring.zero() if side == "0" else evaluate_in_model(side, named, model))
    return tuple(sides)


def _statement_checks(facts, model, values, identities, start=1, value_note=""):
    """One check per table statement: its two sides agree in ``model``."""
    rows = [("value", st, value_note) for st in values] + [("identity", st, "") for st in identities]
    return [
        _check("%02d-%s" % (index, kind), st + note, lambda st=st: _eq(*facts.sides(model, st)))
        for index, (kind, st, note) in enumerate(rows, start=start)
    ]


def _suite_priddy(facts):
    return _statement_checks(facts, "M", PRIDDY_VALUES, PRIDDY_IDENTITIES)


def _suite_steinberger(facts):
    def generating_function():
        A = facts.A
        total = A.ring.sum([A.xi(i) for i in range(A.top_index + 1)])  # xi0 = 1
        claimed = A.ring.sum(  # Q^s xi1 has degree s + 1
            [A.ring.one(), A.xi(1), *[A.q_xi1(s) for s in range(1, CONJUGATE_DEGREE)]]
        )
        product = total * claimed
        residual = product + A.ring.one()
        bad = [d for d in residual.degrees_present() if d <= CONJUGATE_DEGREE]
        if bad:
            return False, "nonzero in degrees %s" % bad
        return True, "product is 1 through degree %d" % CONJUGATE_DEGREE

    def self_check():
        checked, failures = facts.A.self_check()
        if failures:
            return False, "; ".join("%s: %s" % f for f in failures[:3])
        return True, "%d cross-route comparisons agree" % len(checked)

    return [
        _check(
            "01-generating-function",
            "the total conjugate series inverts the total generator series degreewise",
            generating_function,
        ),
        *_statement_checks(
            facts,
            "A",
            STEINBERGER_VALUES,
            STEINBERGER_IDENTITIES,
            start=2,
            value_note=" (full Cartan route through the antipode expansion)",
        ),
        _check("10-self-check", "all overlapping defining routes for the action agree", self_check),
    ]


def _suite_model_compat(facts):
    def sweep():
        bounds = SWEEP_OPERATIONS, SWEEP_DEGREE
        ok, failures = check_dl_compatibility(*bounds, facts.M, facts.A)
        if ok:
            return True, "p Q^s = Q^s p for s <= %d on all monomials of degree <= %d" % bounds
        s, u, lhs, rhs = failures[0]
        return False, "s=%d u=%s: %s vs %s" % (s, u, lhs, rhs)

    def spot():
        A, M = facts.A, facts.M
        routes = map_p(M.q(4, M.b(1)), M, A), A.q(4, A.xi(1) * A.xi(1))
        # routes that agree print one text
        return _eq(" = ".join(dict.fromkeys(map(str, routes))), SPOT_VALUE)

    def squares():
        M = facts.M
        bad = [k for k in range(1, SQUARES_UP_TO + 1) if M.q(2 * k, M.b(k)) != M.b(k) ** 2]
        return not bad, "failures at %s" % bad if bad else "Q^{2k} b_k = b_k^2 for k <= %d" % SQUARES_UP_TO

    def oddness():
        A, M = facts.A, facts.M
        for k in (1, 2, 3):
            for s in range(1, 15, 2):
                if not M.q(s, M.b(k)).is_zero():
                    return False, "Q%d b%d nonzero" % (s, k)
        for s in range(1, 21, 2):
            if not A.q(s, A.xi(1) * A.xi(1)).is_zero():
                return False, "Q%d xi1^2 nonzero" % s
        return True, "odd operations vanish on the even classes tested"

    return [
        _check("01-commute-sweep", "the squaring map to the dual algebra commutes with every operation in range", sweep),
        _check("02-spot-value", "p(Q4 b1) = Q4(xi1^2) = %s by both routes" % SPOT_VALUE, spot),
        _check("03-squares", "top operations square the generators", squares),
        _check("04-odd-vanishing", "odd operations vanish on even polynomial algebras", oddness),
    ]


def _suite_secondjuggle(facts):
    def composite_equality():
        return _zero_check(facts.juggle_residual)

    def mu_r_display():
        image = compose_maps(mu(), relation_map()).image("z30")
        want = parse_expression(MU_R_SYMBOLIC, y4_context())
        if format_expression(image) != format_expression(want):
            return False, "expected %s, got %s" % (
                format_expression(want),
                format_expression(image),
            )
        normalized = normalize(image, y4_context())
        return _eq(normalized, normalize(MU_R_NORMALIZED, y4_context()))

    def qbar_nu_display():
        image = compose_maps(qbar(), nu()).image("z30")
        return _eq(format_expression(image), QBAR_NU_SYMBOLIC)

    def beta_alpha_display():
        image = compose_maps(beta(), alpha()).image("z30")
        return _eq(format_expression(image), BETA_ALPHA_SYMBOLIC)

    return [
        _check(
            "01-composite-equality",
            "the two routes from the degree-30 class agree after normalization",
            composite_equality,
        ),
        _check(
            "02-mu-r",
            "mu R sends the class to Q20 Q6 y4 + x^4 (Q12 Q6 y4), normalizing to "
            + MU_R_NORMALIZED,
            mu_r_display,
        ),
        _check("03-qbar-nu", "Qbar nu sends the class to " + QBAR_NU_SYMBOLIC, qbar_nu_display),
        _check("04-beta-alpha", "beta alpha sends the class to " + BETA_ALPHA_SYMBOLIC, beta_alpha_display),
    ]


def _suite_firstjuggle(facts):
    def defining_vanishing():
        return _eq(*facts.sides("M", PRIDDY_IDENTITIES[3]))

    def p_kills_b2():
        return _zero_check(map_p(facts.M.b(2), facts.M, facts.A))

    def suspended_qbar():
        image = facts.suspended_qbar.image("z'15")
        return _eq(format_expression(image), SUSPENDED_QBAR_IMAGE)

    def base_acts_zero():
        A = facts.A
        image = facts.suspended_qbar.image("z'15")
        for element in A.monomials_of_degree(5):
            got = evaluate_in_model(image, {"x": A.ring.zero(), "y'5": element}, A)
            if got != A.q(10, element):
                return False, "mismatch at %s" % element
        return True, "with the base class acting by zero the image is Q10 applied to the slot"

    def degree5_scan():
        return _scan_check(facts.qbar_scan)

    def y_vanishing():
        bad = ["%s -> %s" % (name, value) for name, value in facts.y_values.items() if not value.is_zero()]
        return not bad, "; ".join(bad) if bad else "all seven classes vanish at xi1^2"

    return [
        _check(
            "01-defining-vanishing",
            PRIDDY_IDENTITIES[3] + ", the identity that makes the square commute",
            defining_vanishing,
        ),
        _check("02-p-kills-b2", "the squaring map kills b2", p_kills_b2),
        _check(
            "03-suspended-qbar",
            "the suspended substitution sends the degree-15 class to " + SUSPENDED_QBAR_IMAGE,
            suspended_qbar,
        ),
        _check("04-base-acts-zero", "once the base class acts by zero only Q10 survives", base_acts_zero),
        _check(
            "05-degree5-scan",
            "feeding every degree-5 class through the suspended image lands in decomposables",
            degree5_scan,
        ),
        _check("06-y-vanishing", "the seven degree-2 definitions vanish at xi1^2", y_vanishing),
    ]


def _suite_indeterminacy(facts):
    empty = "no indecomposables in degrees " + ", ".join(map(str, EMPTY_DEGREES))

    def dims_zero():
        bad = [d for d in EMPTY_DEGREES if facts.indecomposables[d] != 0]
        return not bad, "unexpected indecomposables in %s" % bad if bad else empty

    def dim_31():
        return _eq(facts.indecomposables[LINE_DEGREE], 1)

    def relation_scan():
        scan = facts.relation_scan
        off = sorted({d for r in scan["terms"] for d in r["value_degrees"]} - {LINE_DEGREE})
        if off:
            return False, "values in degrees %s" % off
        return _scan_check(scan)

    def firstjuggle_scan():
        return facts.qbar_scan["all_decomposable"], facts.qbar_scan["closure_note"]

    return [
        _check("01-low-degrees", "the dual algebra has " + empty, dims_zero),
        _check("02-degree-31", "the degree-%d indecomposable quotient is one-dimensional" % LINE_DEGREE, dim_31),
        _check(
            "03-relation-scan",
            "every term of the suspended relation lands in decomposables"
            " (values in degree %d) for every basis class in its slot" % LINE_DEGREE,
            relation_scan,
        ),
        _check(
            "04-firstjuggle-scan",
            "the degree-5 indeterminacy of the suspended substitution is decomposable",
            firstjuggle_scan,
        ),
    ]


def _suite_appendix(facts):
    p = preset("appendix-z-v3")
    truncation = facts.config.get("truncation")

    def result():
        # runs inside each check, so a bad truncation becomes an error row
        return appendix_pipeline(2, p, alpha_order=truncation)

    def g_x3():
        g = result().g
        ok, witness = _series_is(g.coefficient_series("x", 3), G_CUBIC)
        return ok, str(g.coefficient({"x": 3, "alpha": 6})) if ok else witness

    def kinv():
        series = result().kinv
        ok2, w2 = _series_is(series.coefficient_series("y", 2), KINV_Y2)
        ok3, w3 = _series_is(series.coefficient_series("y", 3), KINV_Y3)
        return ok2 and ok3, "y^2: %s; y^3: %s" % (w2, w3)

    def stated(check_id, text, field, want):
        """A row that states ``want`` and compares the pipeline's ``field`` with it."""
        return _check(check_id, text + want, lambda: _series_is(getattr(result(), field), want))

    def internal():
        checks = result().checks
        bad = [label for label, ok in checks if not ok]
        return not bad, "; ".join(bad) if bad else "%d internal checks pass" % len(checks)

    def additive_oracle():
        r = appendix_pipeline(1, preset("additive"))
        ok = str(r.h_n.poly) == ADDITIVE_H1 and str(r.raw.poly) == ADDITIVE_VALUE
        return ok, "h_1 = %s, value = %s" % (r.h_n, r.raw)

    def isogeny():
        ok, h = verify_isogeny_derivative(p)
        return ok, "correction series %s..." % str(h)[:60]

    def associativity():
        return (
            check_associativity(p, ASSOCIATIVITY_DEGREE),
            "F(F(x,y),z) = F(x,F(y,z)) through total degree %d" % ASSOCIATIVITY_DEGREE,
        )

    return [
        stated("01-bracket2", "<2> = ", "bracket2", BRACKET2),
        _check("02-g-cubic", "the x^3 coefficient of g is " + G_CUBIC, g_x3),
        _check("03-kinv", "k^{-1} = y + (4 v3 alpha^7 - 1) y^2 + (%s) y^3 + O(y^4)" % KINV_Y3, kinv),
        stated("04-f2", "f_2 = ", "f_n", F2),
        stated("05-h2", "h_2 = ", "h_n", H2),
        stated("06-raw", "the undivided value is ", "raw", RAW_VALUE),
        stated("07-reduced", "reduced mod the two-series the value is ", "reduced", REDUCED_VALUE),
        _check("08-internal", "the pipeline's internal congruence checks pass", internal),
        _check(
            "09-additive-oracle",
            "the additive-law pipeline gives h_1 = %s and value %s" % (ADDITIVE_H1, ADDITIVE_VALUE),
            additive_oracle,
        ),
        _check(
            "10-isogeny-derivative",
            "the derivative form of the isogeny equation has an integral correction",
            isogeny,
        ),
        _check(
            "11-associativity",
            "the group law is associative through total degree %d" % ASSOCIATIVITY_DEGREE,
            associativity,
        ),
    ]


def _suite_hopf_chain(facts):
    def chain_k5():
        chain = facts.chain_k5
        ok = str(chain["endpoint"]) == ENDPOINT and all(s["ok"] for s in chain["steps"])
        trail = " | ".join("%s: %s" % (s["id"], s["value"]) for s in chain["steps"])
        return ok, trail

    def chain_k4():
        chain = verify_gotcha_chain(k=4)
        return chain["endpoint"].is_zero(), "endpoint %s" % chain["endpoint"]

    def raw_surfaced():
        chain = verify_gotcha_chain(identify=False)
        ok = str(chain["raw"].poly) == RAW_VALUE and chain["endpoint"] is None
        return ok, chain["steps"][-1]["value"]

    def b1_rules():
        two = format_quotient_class(qhat_b1(2))
        if two != "[1] o b1^o2":
            return False, "s=2 gave %s" % two
        for s in (4, 6, 8, 10):
            if not qhat_b1(s).is_zero():
                return False, "s=%d did not vanish" % s
        try:
            qhat_b1(3)
        except ValueError:
            return True, "s=2 doubles, larger even s die, odd s rejected"
        return False, "odd s was accepted"

    def rw_rule():
        return RW_MAIN_RELATION.consequence_check(), RW_MAIN_RELATION.statement

    def provenance():
        names = ", ".join(r.name for r in (TRANSLATION_RULE, STABILITY_RULE, RW_MAIN_RELATION))
        return True, "imported rules in play: %s" % names

    return [
        _check("01-chain-k5", "the composed chain ends at " + ENDPOINT, chain_k5),
        _check("02-chain-k4", "with k = 4 the coefficient is decomposable and the chain ends at 0", chain_k4),
        _check("03-raw-surfaced", "disabling the identification surfaces the raw series " + RAW_VALUE, raw_surfaced),
        _check("04-qhat-b1", "the operation series on b1 collapses in the quotient", b1_rules),
        _check(
            "05-rw-additive",
            "the main relation specializes to a divided-power identity at the additive law",
            rw_rule,
            imported=True,
        ),
        _check(
            "06-provenance",
            "translation and stability rules are imported, not derived",
            provenance,
            imported=True,
        ),
    ]


def _suite_xi5_chain(facts):
    def step1():
        return _zero_check(facts.juggle_residual)

    def step2():
        for name, value in facts.y_values.items():
            if not value.is_zero():
                return False, "%s nonzero at xi1^2" % name
        lhs, rhs = facts.sides("M", PRIDDY_IDENTITIES[2])
        if lhs != rhs:
            return False, "twisted square mismatch: %s vs %s" % (lhs, rhs)
        return True, "classes vanish at xi1^2 and " + PRIDDY_IDENTITIES[2]

    def step3():
        lhs, rhs = facts.sides("A", STEINBERGER_VALUES[4])
        if lhs != rhs:
            return False, "expected %s, got %s" % (rhs, lhs)
        A = facts.A
        return _eq(A.q(16, A.xi(4)).indecomposable_part(), A.xi(5))

    def step4():
        scan, scan5, dims = facts.relation_scan, facts.qbar_scan, facts.indecomposables
        dims_ok = not any(dims[d] for d in EMPTY_DEGREES) and dims[LINE_DEGREE] == 1
        ok = scan["all_decomposable"] and scan5["all_decomposable"] and dims_ok
        slots, slots5 = (sorted({r["source_degree"] for r in one["terms"]}) for one in (scan, scan5))
        return ok, (
            "slot degrees %s and %s all land in decomposables; degree-%d"
            " indecomposables are one-dimensional" % (slots, ", ".join(map(str, slots5)), LINE_DEGREE)
        )

    def step5():
        chain = facts.chain_k5
        return str(chain["endpoint"]) == ENDPOINT, " | ".join(
            "%s%s: %s" % (s["id"], " [imported]" if s["imported"] else "", s["value"])
            for s in chain["steps"]
        )

    return [
        _check("01-second-juggle", "the two substitution routes from the degree-30 class agree", step1),
        _check(
            "02-model-square",
            "the degree-2 definitions vanish at xi1^2 and the twisted square commutes at b1",
            step2,
        ),
        _check("03-conjugate-ladder", STEINBERGER_VALUES[4] + ", so Q16 xi4 = xi5 mod decomposables", step3),
        _check(
            "04-indeterminacy",
            "every indeterminacy slot scans to decomposables; bracket-level gluing"
            " beyond these inputs is imported, not machine-checked",
            step4,
            imported=True,
        ),
        _check(
            "05-hopf-endpoint",
            "the operation chain ends at %s, imported detection links included" % ENDPOINT,
            step5,
            imported=True,
        ),
    ]


_BUILDERS = {
    "big-relation": _suite_big_relation,
    "en-level": _suite_en_level,
    "priddy": _suite_priddy,
    "steinberger": _suite_steinberger,
    "model-compat": _suite_model_compat,
    "secondjuggle": _suite_secondjuggle,
    "firstjuggle-algebra": _suite_firstjuggle,
    "indeterminacy": _suite_indeterminacy,
    "appendix": _suite_appendix,
    "hopf-chain": _suite_hopf_chain,
    "xi5-chain": _suite_xi5_chain,
}


def _injected_fault_check():
    def run():
        truncated = " + ".join(RELATION_TERMS[:-1])
        node = definitions_map()._subst(parse_expression(truncated, y_context()))
        residual = normalize(node, x_context())
        return residual.is_zero(), str(residual)

    return _check(
        "zz-injected-fault",
        "negative control: the relation with its last term deleted must not vanish",
        run,
    )


def build_suite(name, config=None):
    """The ordered check list for a named suite, with a fresh fact table."""
    facts = _Facts(dict(config or {}))
    if name == "all":
        checks = [
            dict(check, id="%s/%s" % (sub, check["id"]))
            for sub in SUITE_NAMES
            for check in _BUILDERS[sub](facts)
        ]
    else:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise SuiteError(
                "unknown suite %r; choices are %s"
                % (name, ", ".join(SUITE_NAMES + ("all",)))
            ) from None
        checks = builder(facts)
    if facts.config.get("inject_fault"):
        checks = checks + [_injected_fault_check()]
    return checks


def _execute(check):
    start = time.perf_counter()
    try:
        ok, witness = check["run"]()
        status = "pass" if ok else "fail"
    except Exception as exc:
        status = "error"
        witness = "%s: %s" % (type(exc).__name__, exc)
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return {
        "id": check["id"],
        "status": status,
        "witness": witness,
        "elapsed_ms": elapsed,
        "statement": check["statement"],
        "imported": check["imported"],
    }


def run_suite(name, config=None):
    """Execute a suite and return the report dictionary."""
    config = dict(config or {})
    checks = build_suite(name, config)
    rows = [_execute(check) for check in checks]
    rows.sort(key=lambda row: row["id"])
    if config.get("scrub_timing"):
        for row in rows:
            row["elapsed_ms"] = 0
    overall = "pass" if all(row["status"] == "pass" for row in rows) else "fail"
    return {
        "suite": name,
        "overall": overall,
        "version": __version__,
        "config": {str(k): _config_value(v) for k, v in sorted(config.items())},
        "checks": rows,
    }


def _config_value(v):
    if isinstance(v, (bool, int, str)):
        return v
    return str(v)


def emit_report(report, path=None, fmt="json"):
    """Serialize a report; returns the text and optionally writes it."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "text":
        lines = [
            "suite: %s" % report["suite"],
            "overall: %s" % report["overall"],
            "version: %s" % report["version"],
        ]
        if report["config"]:
            lines.append(
                "config: " + ", ".join("%s=%s" % kv for kv in sorted(report["config"].items()))
            )
        lines.append("")
        for row in report["checks"]:
            flag = " [imported]" if row["imported"] else ""
            lines.append("%-6s %s%s" % (row["status"].upper(), row["id"], flag))
            lines.append("       %s" % row["statement"])
            if row["witness"]:
                lines.append("       %s" % row["witness"])
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError("unknown report format %r" % fmt)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text

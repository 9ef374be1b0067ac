"""The rewrite corpus: seeded operation words on ``gen x deg 2``, and one
checked rewrite per word.

An item is either a word Q^{s_1} .. Q^{s_k} x with k = 2..4, every
superscript at least the degree it is applied to and every adjacent pair
inadmissible (s_i > 2 s_{i+1}), or, for every ``PRODUCT_EVERY``-th item,
Q^s applied to a product of two such words, which drives the Cartan path.

One op computes the normal form by three routes and checks that they agree:

* ``normalize`` of the parsed text,
* ``normalize_word`` with the ``top-down`` strategy,
* ``normalize_word`` with the ``rightmost`` strategy,

where on a product item the two ``normalize_word`` routes go through the
Cartan formula Q^s(uv) = sum Q^p u Q^{s-p} v by hand.  It then prints the
normal form, parses and normalizes the printed text again, and checks that
the value and its printed form are unchanged.

Run as a script it is one session: a fresh process that builds the corpus,
runs every item once against one shared context (so the rewrite caches warm
as in an interactive session), and prints one JSON line with the per-item
times and, untraced, the speed factor of every ``CALIBRATE_EVERY`` items::

    python3 perfbench/corpus.py --seed 1 [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass

from calibrate import Calibration

CONTEXT_TEXT = "gen x deg 2"
CORPUS_SIZE = 2000  # items in one session
# An untraced session measures the machine's speed (calibrate.py) after
# every this many items, about 0.7 s of work, and scales their times by it.
CALIBRATE_EVERY = 500
GENERATOR_DEGREE = 2
PRODUCT_EVERY = 4  # every fourth item applies Q^s to a product
WIDTH = 10  # each superscript exceeds its lower bound by 0..WIDTH


@dataclass(frozen=True)
class Item:
    """One corpus entry.  Superscripts are listed outermost first."""

    text: str
    ops: tuple  # the whole word, or the single outer operation of a product
    factors: tuple = ()  # superscripts of each factor word of a product


def _word(rng, length, degree):
    """An inadmissible word of ``length`` operations on a class of ``degree``.

    Returns (superscripts outermost first, degree of the result)."""
    ops = []
    for _ in range(length):
        low = degree if not ops else max(degree, 2 * ops[-1] + 1)
        s = low + rng.randint(0, WIDTH)
        ops.append(s)
        degree += s
    return tuple(reversed(ops)), degree


def _word_text(ops):
    return " ".join(["Q%d" % s for s in ops] + ["x"])


def make_corpus(seed, size):
    """``size`` items drawn from ``seed``; the same seed gives the same corpus."""
    rng = random.Random(seed)
    items = []
    for index in range(size):
        if index % PRODUCT_EVERY == PRODUCT_EVERY - 1:
            u, du = _word(rng, rng.randint(0, 1), GENERATOR_DEGREE)
            v, dv = _word(rng, rng.randint(1, 2), GENERATOR_DEGREE)
            s = du + dv + rng.randint(0, WIDTH)
            text = "Q%d (%s %s)" % (s, _word_text(u), _word_text(v))
            items.append(Item(text, (s,), (u, v)))
        else:
            ops, _ = _word(rng, rng.randint(2, 4), GENERATOR_DEGREE)
            items.append(Item(_word_text(ops), ops))
    return items


def _degree(ops):
    degree = GENERATOR_DEGREE
    for s in reversed(ops):
        degree += s
    return degree


def compute_routes(item, context, api):
    """Every route's value for one item, plus the printed normal form."""
    parsed = api.parse_expression(item.text, context)
    direct = api.normalize(parsed, context)
    routes = {"normalize": direct}
    for strategy in ("top-down", "rightmost"):
        if not item.factors:
            value = api.normalize_word(item.ops, "x", context, strategy)
        else:
            (s,), (u, v) = item.ops, item.factors
            value = api.DLPolynomial(context, frozenset())
            for p in range(_degree(u), s - _degree(v) + 1):
                left = api.normalize_word((p,) + u, "x", context, strategy)
                right = api.normalize_word((s - p,) + v, "x", context, strategy)
                value = value + left * right
        routes[strategy] = value
    printed = str(direct)
    if printed == "0":
        routes["reparsed"] = api.DLPolynomial(context, frozenset())
    else:
        routes["reparsed"] = api.normalize(api.parse_expression(printed, context), context)
    return routes, printed


def routes_agree(routes, printed):
    """The op's verdict: all routes equal and the printed form is stable."""
    first = routes["normalize"]
    return all(value == first for value in routes.values()) and str(routes["reparsed"]) == printed


def run_item(item, context, api):
    """One op; an exception is reported on stderr and counts as a failed op."""
    try:
        return routes_agree(*compute_routes(item, context, api))
    except Exception:  # noqa: BLE001 - a failing op is counted, never fatal
        sys.stderr.write("item %r raised:\n" % item.text)
        traceback.print_exc()
        return False


def session(seed, trace):
    """One fresh-process pass over the corpus; returns the JSON-able record."""
    start = time.perf_counter()
    import dlforge
    import dlforge.cli  # noqa: F401 - same import cost as the command line

    import_s = time.perf_counter() - start
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    corpus = make_corpus(seed, CORPUS_SIZE)
    context = dlforge.parse_context(CONTEXT_TEXT)
    ready = time.perf_counter()
    calibration = None if trace else Calibration()
    times = []
    factors = []
    failed = 0
    for start in range(0, CORPUS_SIZE, CALIBRATE_EVERY):
        for item in corpus[start:start + CALIBRATE_EVERY]:
            t = time.perf_counter()
            ok = run_item(item, context, dlforge)
            times.append(time.perf_counter() - t)
            failed += not ok
        if calibration is not None:
            factors.append(calibration.scale())
    summary = None
    if tracer is not None:
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
    return {"ready": ready, "times": times, "factors": factors, "failed": failed, "trace": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = session(args.seed, args.trace)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

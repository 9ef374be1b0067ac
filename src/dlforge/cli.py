"""Command-line front end.

``dlforge run`` executes a named verification suite and emits a report,
``dlforge normalize`` reduces an expression to the admissible basis, and
``dlforge en-level`` reports the minimal operadic level an expression
needs.  Exit codes: 0 all checks pass, 1 some check fails, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import SUITE_NAMES
from .expressions import (
    UnknownGeneratorError,
    en_level_witness,
    min_en_level,
    parse_context,
    parse_expression,
    read_int,
)
from .rewriting import normalize

_CONFIG_KEYS = {"max_degree", "truncation", "inject_fault", "scrub_timing"}
_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def parse_config_text(text):
    """Key=value lines with # comments into a config dict."""
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, raw.strip()))
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                "line %d: unknown key %r; known keys are %s"
                % (lineno, key, ", ".join(sorted(_CONFIG_KEYS)))
            )
        if key in ("max_degree", "truncation"):
            try:
                config[key] = read_int(value)
            except ValueError:
                raise ConfigError("line %d: %s needs an integer, got %r" % (lineno, key, value)) from None
        else:
            try:
                config[key] = _BOOL_WORDS[value.lower()]
            except KeyError:
                raise ConfigError("line %d: %s needs true/false, got %r" % (lineno, key, value)) from None
    return config


def _int_flag(text):
    """``type=`` of the integer flags: ``read_int``, with argparse's own message."""
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _load_context(path):
    with open(path) as handle:
        return parse_context(handle.read())


def _cmd_run(args):
    from .polynomial import FIELD_LIMIT
    from .suites import emit_report, run_suite

    config = {}
    if args.config is not None:
        with open(args.config) as handle:
            config = parse_config_text(handle.read())
    if args.max_degree is not None:
        config["max_degree"] = args.max_degree
    if args.truncation is not None:
        config["truncation"] = args.truncation
    if args.no_timing:
        config["scrub_timing"] = True
    for key in ("max_degree", "truncation"):
        if config.get(key, 0) < 0:
            raise ConfigError("%s must be nonnegative, got %d" % (key, config[key]))
    if config.get("max_degree", 0) >= FIELD_LIMIT:  # no packed key holds such a degree
        raise ConfigError("max_degree must be below %d, got %d" % (FIELD_LIMIT, config["max_degree"]))
    report = run_suite(args.suite, config)
    text = emit_report(report, path=args.report, fmt=args.format)
    if args.report is None:
        sys.stdout.write(text)
    else:
        sys.stdout.write(
            "%s: %s (%d checks, report written to %s)\n"
            % (report["suite"], report["overall"], len(report["checks"]), args.report)
        )
    return 0 if report["overall"] == "pass" else 1


def _cmd_normalize(args):
    context = _load_context(args.context)
    value = normalize(parse_expression(args.expr, context), context)
    sys.stdout.write("%s\n" % value)
    return 0


def _cmd_en_level(args):
    context = _load_context(args.context)
    node = parse_expression(args.expr, context)
    level = min_en_level(node, context)
    witness = en_level_witness(node, context)
    if witness is None:
        sys.stdout.write("%d\n" % level)
    else:
        sys.stdout.write("%d (forced by Q^%d on a degree-%d argument)\n" % (level, witness[0], witness[1]))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose help and usage writes raise ``OSError``
    (argparse's own ignores it, so with unbuffered output a failed write of
    ``--help`` would exit 0); the subcommand parsers are of this class too."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser():
    parser = _Parser(
        prog="dlforge",
        description="verification suites and rewriting for mod-2 operation calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a verification suite")
    run_p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    run_p.add_argument("--max-degree", type=_int_flag, default=None)
    run_p.add_argument("--truncation", type=_int_flag, default=None)
    run_p.add_argument("--config", default=None, help="key=value config file")
    run_p.add_argument("--report", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--format", choices=("json", "text"), default="json")
    run_p.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the elapsed-ms fields so reports are byte-identical",
    )
    run_p.set_defaults(func=_cmd_run)

    norm_p = sub.add_parser("normalize", help="rewrite an expression to the admissible basis")
    norm_p.add_argument("--context", required=True, help="file of 'gen NAME deg INT' lines")
    norm_p.add_argument("--expr", required=True)
    norm_p.set_defaults(func=_cmd_normalize)

    level_p = sub.add_parser("en-level", help="minimal operadic level an expression needs")
    level_p.add_argument("--context", required=True)
    level_p.add_argument("--expr", required=True)
    level_p.set_defaults(func=_cmd_en_level)
    return parser


def _error_text(exc):
    """The message of an input error; str() of a KeyError quotes it."""
    if isinstance(exc, UnknownGeneratorError):
        return "unknown generator %r" % exc.args[0]
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % _error_text(exc))
        return 2


if __name__ == "__main__":
    # ``python -m dlforge.cli`` is the same process as ``python -m dlforge``
    from .__main__ import run

    run()

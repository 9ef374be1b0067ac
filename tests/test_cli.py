"""End-to-end CLI behavior through subprocesses: exit codes, report shape,
determinism, and the negative-control fault injection."""

import gc
import json
import os
import subprocess
import sys

import pytest

from dlforge.__main__ import GEN0_THRESHOLD


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dlforge", *args],
        capture_output=True,
        text=True,
    )


def test_run_emits_a_passing_json_report():
    proc = run_cli("run", "--suite", "en-level")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["suite"] == "en-level"
    assert report["overall"] == "pass"
    assert report["version"]
    ids = [row["id"] for row in report["checks"]]
    assert ids == sorted(ids)
    for row in report["checks"]:
        assert row["status"] in ("pass", "fail", "error")
        assert set(row) == {"id", "status", "witness", "elapsed_ms", "statement", "imported"}


def test_reports_are_deterministic_after_timing_scrub(tmp_path):
    config = tmp_path / "scrub.cfg"
    config.write_text("scrub-timing = true\n")
    first = run_cli("run", "--suite", "big-relation", "--config", str(config))
    second = run_cli("run", "--suite", "big-relation", "--config", str(config))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_unknown_suite_is_a_usage_error():
    proc = run_cli("run", "--suite", "mystery")
    assert proc.returncode == 2


def test_injected_fault_fails_the_suite(tmp_path):
    config = tmp_path / "fault.cfg"
    config.write_text("inject-fault = true\nscrub-timing = true\n")
    proc = run_cli("run", "--suite", "big-relation", "--config", str(config))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["overall"] == "fail"
    rows = {row["id"]: row for row in report["checks"]}
    assert rows["zz-injected-fault"]["status"] == "fail"
    assert rows["zz-injected-fault"]["witness"] not in ("", "0")
    others = [r for i, r in rows.items() if i != "zz-injected-fault"]
    assert all(r["status"] == "pass" for r in others)


def test_unknown_config_key_is_a_usage_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("speed = 11\n")
    proc = run_cli("run", "--suite", "big-relation", "--config", str(config))
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr
    config.write_text("parallel = true\n")
    proc = run_cli("run", "--suite", "big-relation", "--config", str(config))
    assert proc.returncode == 2
    assert "unknown key 'parallel'" in proc.stderr


def test_malformed_config_line_is_a_usage_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("just words\n")
    proc = run_cli("run", "--suite", "big-relation", "--config", str(config))
    assert proc.returncode == 2


def test_config_comments_and_spacing_are_tolerated(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text("# comment line\n\n  max-degree = 36  # trailing\n")
    proc = run_cli("run", "--suite", "priddy", "--config", str(config))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["config"]["max_degree"] == 36


def test_report_file_and_summary_line(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("run", "--suite", "en-level", "--report", str(out))
    assert proc.returncode == 0
    assert "en-level: pass" in proc.stdout
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"


def test_no_timing_flag_scrubs_elapsed():
    first = run_cli("run", "--suite", "en-level", "--no-timing")
    second = run_cli("run", "--suite", "en-level", "--no-timing")
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert all(row["elapsed_ms"] == 0 for row in report["checks"])


def test_text_format_report():
    proc = run_cli("run", "--suite", "en-level", "--format", "text")
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout
    assert "PASS" in proc.stdout


def test_bad_truncation_gives_error_rows_not_an_abort():
    proc = run_cli("run", "--suite", "all", "--truncation", "3", "--no-timing")
    assert proc.returncode == 1, proc.stderr
    rows = {row["id"]: row["status"] for row in json.loads(proc.stdout)["checks"]}
    pipeline_checks = ("bracket2", "g-cubic", "kinv", "f2", "h2", "raw", "reduced", "internal")
    want = ["appendix/%02d-%s" % (i, name) for i, name in enumerate(pipeline_checks, start=1)]
    assert sorted(i for i, status in rows.items() if status == "error") == want
    assert all(rows[i] == "pass" for i in rows if i not in want)


def test_negative_degree_cap_or_truncation_is_a_usage_error(tmp_path):
    config = tmp_path / "neg.cfg"
    config.write_text("max_degree = -3\n")
    for args in (["--max-degree", "-5"], ["--truncation", "-1"], ["--config", str(config)]):
        proc = run_cli("run", "--suite", "all", "--no-timing", *args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "must be nonnegative" in proc.stderr


def test_tiny_cap_gives_priddy_error_rows_not_an_abort():
    proc = run_cli("run", "--suite", "all", "--max-degree", "1", "--no-timing")
    assert proc.returncode == 1, proc.stderr
    rows = json.loads(proc.stdout)["checks"]
    assert len({row["id"].split("/", 1)[0] for row in rows}) == 11
    priddy = {row["status"] for row in rows if row["id"].startswith("priddy/")}
    assert priddy == {"error"}


def test_deep_nesting_is_a_usage_error(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    for expr in ("(" * 3000 + "x" + ")" * 3000, "Q3 " * 3000 + "x"):
        proc = run_cli("normalize", "--context", str(context), "--expr", expr)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "nested deeper than" in proc.stderr


def test_normalize_subcommand(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    proc = run_cli("normalize", "--context", str(context), "--expr", "Q8 Q3 x + Q7 Q4 x")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"
    proc = run_cli("normalize", "--context", str(context), "--expr", "Q2 x")
    assert proc.stdout.strip() == "x^2"


def test_normalize_rejects_unknown_generator(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    proc = run_cli("normalize", "--context", str(context), "--expr", "Q3 w")
    assert proc.returncode == 2
    assert proc.stderr == "error: unknown generator 'w'\n"


# superscript two and Arabic-Indic three are Unicode digits, not ASCII ones
@pytest.mark.parametrize("expr, position", [("x^\u00b2", 2), ("Q\u00b2 x", 1), ("Q\u0663 x", 1)])
@pytest.mark.parametrize("command", ["normalize", "en-level"])
def test_a_non_ascii_digit_is_an_unexpected_character(tmp_path, command, expr, position):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    proc = run_cli(command, "--context", str(context), "--expr", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    want = "error: unexpected character %r (at position %d)\n" % (expr[position], position)
    assert proc.stderr == want


def test_negative_generator_degree_is_a_usage_error(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg -2\n")
    proc = run_cli("normalize", "--context", str(context), "--expr", "Q5 Q1 x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: generator 'x' has negative degree -2\n"


# int() takes each of these: an Arabic-Indic three, a digit separator, a sign
@pytest.mark.parametrize("degree", ["\u0663", "1_0", "+2"])
def test_a_generator_degree_is_read_in_ascii_digits_only(tmp_path, degree):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg %s\n" % degree, encoding="utf-8")
    proc = run_cli("normalize", "--context", str(context), "--expr", "x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 1: bad degree %r\n" % degree


def test_a_config_integer_is_read_in_ascii_digits_only(tmp_path):
    config = tmp_path / "cap.cfg"
    config.write_text("max_degree = 4_0\n")
    proc = run_cli("run", "--suite", "all", "--no-timing", "--config", str(config))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 1: max_degree needs an integer, got '4_0'\n"


def test_an_integer_flag_is_read_in_ascii_digits_only():
    # Arabic-Indic forty gets the usage error that any other non-integer gets
    proc = run_cli("run", "--suite", "all", "--max-degree", "\u0664\u0660")
    plain = run_cli("run", "--suite", "all", "--max-degree", "abc")
    assert proc.returncode == plain.returncode == 2
    assert proc.stdout == plain.stdout == ""
    assert plain.stderr.endswith("error: argument --max-degree: invalid int value: 'abc'\n")
    assert proc.stderr == plain.stderr.replace("'abc'", "'\u0664\u0660'")


def test_a_degree_cap_no_packed_key_holds_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from dlforge import cli, suites
    from dlforge.polynomial import FIELD_LIMIT

    monkeypatch.setattr(suites, "run_suite", lambda *args: pytest.fail("a suite ran"))
    config = tmp_path / "cap.cfg"
    config.write_text("max_degree = %d\n" % FIELD_LIMIT)
    for cap, args in (
        (FIELD_LIMIT, ["--max-degree", str(FIELD_LIMIT)]),
        (10**11, ["--max-degree", str(10**11)]),
        (FIELD_LIMIT, ["--config", str(config)]),
    ):
        assert cli.main(["run", "--suite", "all", "--no-timing", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: max_degree must be below %d, got %d\n" % (FIELD_LIMIT, cap)


def test_en_level_subcommand(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    proc = run_cli("en-level", "--context", str(context), "--expr", "Q5 Q3 x")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3 (forced by Q^3 on a degree-2 argument)"
    proc = run_cli("en-level", "--context", str(context), "--expr", "x^2")
    assert proc.stdout.strip() == "1"


def test_run_all_summary(tmp_path):
    out = tmp_path / "all.json"
    proc = run_cli("run", "--suite", "all", "--report", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    suites = {row["id"].split("/", 1)[0] for row in report["checks"]}
    assert len(suites) == 11


def modules_loaded_by(code):
    """The modules a fresh interpreter has loaded after running ``code``."""
    probe = code + "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time in every process; the value classes need neither
    added = modules_loaded_by("import dlforge.cli") - modules_loaded_by("pass")
    assert "dlforge.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


# modules a rewriting-only process never needs: the polynomial kernel, the
# models, the series, the substitutions, the suites and the rational numbers
NOT_FOR_REWRITING = {
    "dlforge." + name
    for name in (
        "polynomial", "homology", "series", "formal_groups", "hopf_ring", "substitutions", "relations", "suites",
    )
} | {"fractions", "decimal", "numbers"}


def test_rewriting_commands_load_only_the_rewriting_modules(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg 2\n")
    call = "import dlforge.cli\ndlforge.cli.main(%r)"
    probes = (
        "import dlforge",
        "import dlforge.cli",
        call % ["normalize", "--context", str(context), "--expr", "Q8 Q3 x + Q5 Q2 x"],
        call % ["en-level", "--context", str(context), "--expr", "Q5 Q3 x"],
    )
    for code in probes:
        loaded = modules_loaded_by(code)
        assert loaded & NOT_FOR_REWRITING == set(), code
        assert {m for m in loaded if m.startswith("dlforge")} <= {
            "dlforge", "dlforge.cli", "dlforge.expressions", "dlforge.rewriting",
        }
    report = tmp_path / "report.json"
    loaded = modules_loaded_by(call % ["run", "--suite", "big-relation", "--report", str(report)])
    assert NOT_FOR_REWRITING <= loaded


RUN_USAGE = """\
usage: dlforge run [-h] --suite
                   {big-relation,en-level,priddy,steinberger,model-compat,secondjuggle,firstjuggle-algebra,indeterminacy,appendix,hopf-chain,xi5-chain,all}
                   [--max-degree MAX_DEGREE] [--truncation TRUNCATION]
                   [--config CONFIG] [--report REPORT] [--format {json,text}]
                   [--no-timing]
"""


def run_cli_80_columns(*args):
    # argparse wraps its text to the terminal width, which COLUMNS sets
    env = dict(os.environ, COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "dlforge", *args], capture_output=True, text=True, env=env)


def test_run_help_text_is_pinned():
    proc = run_cli_80_columns("run", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == RUN_USAGE + """
options:
  -h, --help            show this help message and exit
  --suite {big-relation,en-level,priddy,steinberger,model-compat,secondjuggle,firstjuggle-algebra,indeterminacy,appendix,hopf-chain,xi5-chain,all}
  --max-degree MAX_DEGREE
  --truncation TRUNCATION
  --config CONFIG       key=value config file
  --report REPORT       write the report here instead of stdout
  --format {json,text}
  --no-timing           zero the elapsed-ms fields so reports are byte-
                        identical
"""


def test_unknown_suite_message_is_pinned():
    proc = run_cli_80_columns("run", "--suite", "mystery")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == RUN_USAGE + (
        "dlforge run: error: argument --suite: invalid choice: 'mystery' (choose from 'big-relation',"
        " 'en-level', 'priddy', 'steinberger', 'model-compat', 'secondjuggle', 'firstjuggle-algebra',"
        " 'indeterminacy', 'appendix', 'hopf-chain', 'xi5-chain', 'all')\n"
    )


ENTRY_POINTS = (("-m", "dlforge"), ("-m", "dlforge.cli"))


def buffered_env():
    # stdout buffered, as it is by default, so that output the process does
    # not flush before it ends is lost and fails the comparisons below
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_buffered(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=buffered_env())


def test_both_entry_points_run_the_command_of_cli_main(tmp_path, capsys):
    # cli.main in-process: the reference output, with the caller's garbage
    # collection left alone and the process still running afterwards
    from dlforge import cli

    settings = gc.get_threshold(), gc.get_freeze_count()
    command = ["run", "--suite", "big-relation", "--no-timing"]
    assert cli.main(command) == 0
    printed = capsys.readouterr().out
    here = tmp_path / "in-process.json"
    assert cli.main([*command, "--report", str(here)]) == 0
    assert (gc.get_threshold(), gc.get_freeze_count()) == settings
    fault = tmp_path / "fault.cfg"
    fault.write_text("inject-fault = true\n")
    # each entry point ends the process itself, with main's exit code and
    # everything main wrote
    for entry in ENTRY_POINTS:
        proc = run_buffered(*entry, *command)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, ""), entry
        there = tmp_path / ("%s.json" % entry[1])
        proc = run_buffered(*entry, *command, "--report", str(there))
        assert proc.returncode == 0, proc.stderr
        assert there.read_text() == here.read_text()
        proc = run_buffered(*entry, *command, "--config", str(fault))
        assert proc.returncode == 1 and json.loads(proc.stdout)["overall"] == "fail", entry
        missing = str(tmp_path / "missing.cfg")
        proc = run_buffered(*entry, *command, "--config", missing)
        assert (proc.returncode, proc.stdout) == (2, ""), entry
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, entry
    # importing the entry point changes nothing either ...
    probe = (
        "import gc, sys\nbefore = gc.get_threshold(), gc.get_freeze_count()\nimport dlforge.__main__\n"
        "sys.stdout.write(str(before == (gc.get_threshold(), gc.get_freeze_count())))"
    )
    proc = run_buffered("-c", probe)
    assert (proc.returncode, proc.stdout) == (0, "True")
    # ... while run() collects rarely during main and ends the process
    # without its teardown, so no exit handler runs
    probe = (
        "import atexit, gc, sys\nimport dlforge.cli\nfrom dlforge.__main__ import run\n"
        "atexit.register(sys.stderr.write, 'torn down')\nmain = dlforge.cli.main\n"
        "dlforge.cli.main = lambda: sys.stderr.write('%%d' %% gc.get_threshold()[0]) and main()\n"
        "sys.argv[1:] = %r\nrun()" % command
    )
    proc = run_buffered("-c", probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, str(GEN0_THRESHOLD))


SHORT = ("run", "--suite", "big-relation", "--no-timing")
LONG = ("run", "--suite", "all", "--no-timing")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("command, unbuffered", [
    pytest.param(SHORT, False, id="short-buffered"),
    pytest.param(SHORT, True, id="short-unbuffered"),
    pytest.param(LONG, False, id="long-buffered"),
    pytest.param(LONG, True, id="long-unbuffered"),
    pytest.param(("run", "--help"), False, id="help-buffered"),
    pytest.param(("run", "--help"), True, id="help-unbuffered"),
    pytest.param(("--help",), True, id="top-help-unbuffered"),
])
def test_an_unwritable_stdout_is_one_error_line_and_exit_2(command, unbuffered):
    # buffered, a short report or argparse's help fails when run() flushes
    # it; a long report, or unbuffered output, fails inside main (argparse's
    # help write raises instead of being ignored); either way the process
    # says so once and never prints a traceback
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "dlforge", *command],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

"""End-to-end CLI behavior through subprocesses: exit codes, report shape,
determinism, and the negative-control fault injection."""

import gc
import json
import os
import subprocess
import sys


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


def test_negative_generator_degree_is_a_usage_error(tmp_path):
    context = tmp_path / "ctx.txt"
    context.write_text("gen x deg -2\n")
    proc = run_cli("normalize", "--context", str(context), "--expr", "Q5 Q1 x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: generator 'x' has negative degree -2\n"


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


# modules a rewriting-only process never needs: the models, the series, the
# substitutions and the suites
NOT_FOR_REWRITING = {
    "dlforge." + name
    for name in ("homology", "series", "formal_groups", "hopf_ring", "substitutions", "relations", "suites")
}


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
        loaded = {m for m in modules_loaded_by(code) if m.startswith("dlforge")}
        assert loaded & NOT_FOR_REWRITING == set(), code
        assert loaded <= {"dlforge", "dlforge.cli", "dlforge.expressions", "dlforge.polynomial", "dlforge.rewriting"}
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


def test_only_the_entry_point_freezes_the_heap(tmp_path):
    # cli.main leaves the caller's garbage collection alone ...
    from dlforge import cli

    before = gc.get_freeze_count()
    here = tmp_path / "in-process.json"
    code = cli.main(["run", "--suite", "big-relation", "--no-timing", "--report", str(here)])
    assert code == 0
    assert gc.get_freeze_count() == before
    # ... and the entry point exits with main's code and writes the same
    # whole report, before it freezes the heap for a cheap shutdown
    child = tmp_path / "child.json"
    proc = run_cli("run", "--suite", "big-relation", "--no-timing", "--report", str(child))
    assert proc.returncode == code, proc.stderr
    assert child.read_text() == here.read_text()
    assert json.loads(child.read_text())["overall"] == "pass"
    # the console script's target: run() returns main's code with the heap frozen
    probe = (
        "import gc, sys\nfrom dlforge.__main__ import run\nsys.argv[1:] = %r\n"
        "code = run()\nsys.stderr.write('%%d %%d' %% (code, gc.get_freeze_count() > 0))"
        % ["run", "--suite", "big-relation", "--config", str(tmp_path / "missing.cfg")]
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr.endswith("2 1")
    # ``python -m dlforge.cli`` runs the same command with the same code and
    # report, and exits through run() with the heap frozen
    args = ["run", "--suite", "big-relation", "--no-timing", "--report"]
    via_cli = tmp_path / "cli.json"
    command = [sys.executable, "-m", "dlforge.cli", *args, str(via_cli)]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert via_cli.read_text() == here.read_text()
    probe = (
        "import gc, runpy, sys\nsys.argv[1:] = %r\ntry:\n    runpy.run_module('dlforge.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    sys.stderr.write('%%s %%d' %% (exc.code, gc.get_freeze_count() > 0))"
        % [*args, str(tmp_path / "probe.json")]
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr.endswith("0 1")

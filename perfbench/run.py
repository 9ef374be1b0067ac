"""dlforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dlforge source tree; the benchmark starts every
dlforge process from ``src/`` of that tree.  Workloads (one client, closed
loop, one operation at a time):

* ``battery``         one op = one cold ``dlforge run --suite all --no-timing``
                      process at the default degree cap (40)
* ``battery-cap128``  the same command with ``--max-degree 128``
* ``rewrite-corpus``  one op = one checked rewrite of a seeded word (see
                      ``corpus.py``), inside sessions of ``CORPUS_SIZE``
                      words; each session is a fresh process with a
                      corpus of its own

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced ops, with every time scaled to the reference speed of
``calibrate.py``.  With ``--trace 1`` it alternates traced and untraced ops and
reports the per-layer metrics of the traced ones plus the tracing
overhead.  Every op is checked; a wrong, failed or errored op is counted
and never stops the run.  Earlier stdout lines are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibration
from cli_child import TRACE_MARK
from corpus import CALIBRATE_EVERY, CORPUS_SIZE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An op may overrun the end of the run by this much before it is killed
# and counted as failed; it keeps a hung op inside the time a run may take.
GRACE_S = 90.0
SETUP_PROBE = "import dlforge.cli"

# sha256 of the scrubbed report printed by each battery command.
BATTERIES = {
    "battery": ((), "e5ee6ccea1976761e1586b8dc46b20e013a5c7ed50262a1c0a6e7881b0a7c2aa"),
    "battery-cap128": (
        ("--max-degree", "128"),
        "624e7c801dcae6d16d2788ae32c0abb3b1c0bb6ebdb914009a9c6ab2ff6b1e85",
    ),
}
WORKLOADS = tuple(BATTERIES) + ("rewrite-corpus",)

# op_s_tail is this percentile of the op times; see README.md for the
# sample counts behind each choice.
TAIL_PERCENTILE = {"battery": 65, "battery-cap128": 70, "rewrite-corpus": 99}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    """A child process could not be run to completion."""


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_child(argv, env, timeout=GRACE_S):
    """Run one child to completion.

    Returns (exit code, stdout bytes, stderr bytes, spawn time, wall seconds,
    peak RSS in MB).  The child is killed and reaped on timeout or error.
    """
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        chunks = {proc.stdout: [], proc.stderr: []}
        deadline = spawned + timeout
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise ChildFailed("timed out after %.0f s: %s" % (timeout, " ".join(argv)))
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out = b"".join(chunks[proc.stdout])
    err = b"".join(chunks[proc.stderr])
    return proc.returncode, out, err, spawned, wall, usage.ru_maxrss / 1024.0


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def check_tree(env):
    """Exit 2 unless ``src/dlforge`` of this tree imports; warms bytecode."""
    if not (SRC / "dlforge" / "cli.py").is_file():
        sys.stderr.write("error: no dlforge sources at %s\n" % SRC)
        sys.exit(2)
    probe = SETUP_PROBE + "; import sys; sys.stdout.write(dlforge.cli.__file__)"
    try:
        code, out, err, *_ = run_child([sys.executable, "-c", probe], env, timeout=20)
    except ChildFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.exit(2)
    where = Path(out.decode(errors="replace") or ".").resolve()
    if code != 0 or SRC.resolve() not in where.parents:
        sys.stderr.write("error: dlforge does not import from %s\n%s" % (SRC, err.decode(errors="replace")))
        sys.exit(2)


def parse_trace(err):
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


class Loop:
    """Closed-loop driver: runs iterations until the next one would end
    past the deadline, but at least ``minimum`` of them."""

    def __init__(self, seconds, minimum):
        self.deadline = time.perf_counter() + seconds
        self.minimum = minimum
        self.durations = []

    def timeout(self):
        """Time an op started now may take before it is killed."""
        return max(self.deadline - time.perf_counter(), 0.0) + GRACE_S

    def __iter__(self):
        while True:
            if len(self.durations) >= self.minimum:
                expected = statistics.median(self.durations)
                if time.perf_counter() + expected > self.deadline:
                    return
            start = time.perf_counter()
            yield len(self.durations)
            self.durations.append(time.perf_counter() - start)


# -- battery workloads ----------------------------------------------------------


def battery_op(workload, env, traced, timeout=GRACE_S):
    """One cold battery process.  Returns (passed, wall, rss, trace)."""
    extra, want = BATTERIES[workload]
    args = ["run", "--suite", "all", "--no-timing", *extra]
    if traced:
        argv = [sys.executable, str(HERE / "cli_child.py"), *args]
    else:
        argv = [sys.executable, "-m", "dlforge", *args]
    try:
        code, out, err, _, wall, rss = run_child(argv, env, timeout)
    except ChildFailed as exc:
        sys.stderr.write("op failed: %s\n" % exc)
        return False, None, None, None
    passed = code == 0 and hashlib.sha256(out).hexdigest() == want
    if not passed:
        sys.stderr.write("op failed: exit %d, report sha256 %s\n" % (code, hashlib.sha256(out).hexdigest()))
    return passed, wall, rss, parse_trace(err) if traced else None


def run_battery(workload, seed, seconds, trace):
    env = child_env(seed)
    check_tree(env)
    result = {"attempted": 0, "failed": 0, "times": [], "raw_times": [], "rss": [], "setup": [],
              "traced_times": [], "traces": [], "factors": []}
    calibration = None if trace else Calibration()
    loop = Loop(seconds, 1 + trace)
    for index in loop:
        traced = bool(trace) and index % 2 == 1
        passed, wall, rss, summary = battery_op(workload, env, traced, timeout=loop.timeout())
        result["attempted"] += 1
        result["failed"] += not passed
        if summary is not None:
            result["traces"].append(summary)
        if trace:
            if wall is not None:
                (result["traced_times"] if traced else result["times"]).append(wall)
            continue
        setup = None
        try:
            code, _, _, _, probe, _ = run_child([sys.executable, "-c", SETUP_PROBE], env, loop.timeout())
            if code == 0:
                setup = probe
        except ChildFailed as exc:
            sys.stderr.write("setup probe failed: %s\n" % exc)
        factor = calibration.scale()
        result["factors"].append(factor)
        if wall is not None:
            result["raw_times"].append(wall)
            result["times"].append(wall * factor)
            result["rss"].append(rss)
        if setup is not None:
            result["setup"].append(setup * factor)
    return result


# -- rewrite corpus -----------------------------------------------------------------


def corpus_session(seed, env, traced, timeout=GRACE_S):
    """One session process.  Returns its record, or None if it broke."""
    argv = [sys.executable, str(HERE / "corpus.py"), "--seed", str(seed),
            "--trace", "1" if traced else "0"]
    try:
        code, out, err, spawned, _, rss = run_child(argv, env, timeout)
    except ChildFailed as exc:
        sys.stderr.write("session failed: %s\n" % exc)
        return None
    if code != 0:
        sys.stderr.write("session failed: exit %d\n%s" % (code, err.decode(errors="replace")[-2000:]))
        return None
    record = json.loads(out.decode().splitlines()[-1])
    if record["failed"]:
        sys.stderr.write("session: %d ops failed\n%s" % (record["failed"], err.decode(errors="replace")[-2000:]))
    record["setup"] = record["ready"] - spawned
    record["rss"] = rss
    return record


def run_corpus(seed, seconds, trace):
    env = child_env(seed)
    check_tree(env)
    result = {"attempted": 0, "failed": 0, "times": [], "raw_times": [], "rss": [], "setup": [],
              "session_work": [], "traced_work": [], "traces": [], "factors": []}
    # Untraced, every session draws its own corpus, so a run times many
    # more distinct words than one session holds and depends less on which
    # words the seed drew.  Traced, every session repeats the seed's corpus,
    # so the counts are exact.
    session_seeds = random.Random(seed)
    loop = Loop(seconds, 1 + trace)
    for index in loop:
        traced = bool(trace) and index % 2 == 1
        corpus_seed = seed if trace else session_seeds.getrandbits(32)
        record = corpus_session(corpus_seed, env, traced, loop.timeout())
        if record is None:
            result["attempted"] += CORPUS_SIZE
            result["failed"] += CORPUS_SIZE
            continue
        result["attempted"] += len(record["times"])
        result["failed"] += record["failed"]
        work = sum(record["times"])
        if traced:
            result["traced_work"].append(work)
            result["traces"].append(record["trace"])
        else:
            factors = record["factors"]
            result["session_work"].append(work)
            result["factors"].extend(factors)
            result["raw_times"].extend(record["times"])
            result["times"].extend(t * factors[i // CALIBRATE_EVERY] for i, t in enumerate(record["times"]))
            result["rss"].append(record["rss"])
            result["setup"].append(record["setup"] * factors[0])
    return result


# -- metrics ------------------------------------------------------------------------


def end_to_end(workload, result):
    times = result["times"]
    if not times or not result["setup"]:
        return None
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(result["setup"]),
        "op_s_p50": statistics.median(times),
        "op_s_tail": percentile(times, TAIL_PERCENTILE[workload]),
        "ops_per_s": len(times) / sum(times),
        "pass_frac": (attempted - result["failed"]) / attempted,
        "peak_rss_mb": statistics.median(result["rss"]),
    }


def per_layer(workload, result):
    traces = result["traces"]
    if not traces:
        return None
    metrics = {}
    for name in sorted(traces[0]):
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (statistics.median(t[name] for t in traces), unit)
    if workload == "rewrite-corpus":
        untraced, traced = result["session_work"], result["traced_work"]
    else:
        untraced, traced = result["times"], result["traced_times"]
    if not untraced or not traced:
        return None
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="dlforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "rewrite-corpus":
        result = run_corpus(args.seed, args.seconds, args.trace)
    else:
        result = run_battery(args.workload, args.seed, args.seconds, args.trace)

    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("python %s  nproc %s" % (sys.version.split()[0], os.cpu_count()))
    print("ops attempted %d  failed %d  fail_frac %.6f" % (
        result["attempted"], result["failed"], result["failed"] / max(result["attempted"], 1)))
    if args.trace:
        metrics = per_layer(args.workload, result)
    else:
        found = end_to_end(args.workload, result)
        metrics = None if found is None else {k: (v, END_TO_END_UNITS[k]) for k, v in found.items()}
        print("untraced op samples %d  tail = p%d" % (len(result["times"]), TAIL_PERCENTILE[args.workload]))
        if result["raw_times"]:
            print("unscaled op wall p50 %.6g s  speed factor median %.4f min %.4f max %.4f" % (
                statistics.median(result["raw_times"]), statistics.median(result["factors"]),
                min(result["factors"]), max(result["factors"])))
    if metrics is None:
        sys.stderr.write("error: no op completed, nothing to report\n")
        return 1
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

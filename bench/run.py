"""The bcoloring benchmark: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and runs the CLI as ``python -m bcoloring.cli`` with that
``PYTHONPATH``. Workloads (defined in workloads.py):

- witness: colorful searches that end FOUND, plus three b-spectra;
- refute: colorful searches that must exhaust a space, including
  frontier queries under a fixed node budget;
- chromatic: exact chromatic numbers;
- pipeline: the lifting story as a chain of CLI calls.

The load is a closed loop with one client: each query is issued when the
previous verdict is back, with no threads and at most one child process.
A run repeats passes over the workload's queries until ``--seconds``
have gone by. Before each pass it sets up afresh (imports ``bcoloring``
anew and builds every input graph), so set-up is timed once per pass,
and at least MIN_SETUPS times a run. Every output is checked after its
pass, outside the timed region. The run and its CLI processes keep to one
processor.

The end-to-end times are scaled to a fixed machine speed. A shared
machine runs slower, by up to half, for stretches of seconds to minutes.
So the end-to-end run also times a fixed piece of pure-Python work
(``workloads.reference_work``, which runs no bcoloring code) before and
after every query, CLI call and set-up, and reports each of those as if
the reference work beside it had taken REFERENCE_S. A change to the
library moves a scaled time as much as the raw one; a slow stretch of the
machine hardly moves it. The raw times are printed beside it.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes of the same in-process path (the
pipeline replays its CLI calls through ``bcoloring.cli.main``) and
reports the per-layer metrics, the tracing overhead, and for the
pipeline the per-call CLI latencies. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
its metric names and units are checked against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, median_metrics, pass_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
HELP_CALLS = 5
MIN_SETUPS = 10  # set-ups per end-to-end run, counting the one before each pass
REFERENCE_S = 0.01  # the reference work's time at the speed end-to-end times are scaled to
CALL_TIMEOUT_S = 150

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "settled": "count",
    "peak_rss_mb": "MB",
    "cli.start_ms": "ms",
    "cli.p50_ms": "ms",
    **{f"cli.{sub}_ms": "ms" for sub in workloads.SUBCOMMANDS},
    "trace.overhead_s": "s",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Tally:
    """Operations attempted and failed over the run, with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, problems, operations):
        self.attempted += operations
        self.failed += min(len(problems), operations)
        self.problems.extend(problems)


# ---------------------------------------------------------------------------
# Set-up


def fresh_import():
    for name in [n for n in sys.modules if n == "bcoloring" or n.startswith("bcoloring.")]:
        del sys.modules[name]
    lib = importlib.import_module("bcoloring")
    importlib.import_module("bcoloring.fixtures")
    importlib.import_module("bcoloring.cli")
    if Path(lib.__file__).resolve().parent != (SRC / "bcoloring").resolve():
        raise SystemExit(f"error: imported bcoloring from {lib.__file__}, not from {SRC}")
    return lib


def reference_seconds():
    start = perf_counter()
    workloads.reference_work()
    return perf_counter() - start


def scaled(seconds, ref_before, ref_after):
    """``seconds`` at the reference speed: as if the reference work, timed
    just before and just after, had taken REFERENCE_S."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)


def setup(workload):
    """(seconds, library, inputs): a fresh import of bcoloring and every input graph."""
    start = perf_counter()
    lib = fresh_import()
    graphs = workloads.build_inputs(lib, workload)
    return perf_counter() - start, lib, graphs


# ---------------------------------------------------------------------------
# Library workloads


def library_pass(lib, graphs, queries, order, tracer=None, refs=None):
    """(wall seconds, per-query seconds, (query, result, error) per query).

    With a list ``refs``, appends the seconds the reference work takes
    before each query and after the last one; the wall time then includes them.
    """
    latencies, outcomes = [], []
    start = perf_counter()
    for i in order:
        q = queries[i]
        if refs is not None:
            refs.append(reference_seconds())
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workloads.run_query(lib, graphs[q.graph], q)
            else:
                tracer.query = i
                result = tracer.call("query", workloads.run_query, (lib, graphs[q.graph], q))
            error = None
        except Exception as exc:  # a raising query is a failed operation, not a benchmark crash
            result, error = None, exc
        latencies.append(perf_counter() - t0)
        outcomes.append((q, result, error))
    if refs is not None:
        refs.append(reference_seconds())
    return perf_counter() - start, latencies, outcomes


def check_library(lib, graphs, outcomes, tally):
    """Checks every outcome; returns the number of settled queries."""
    settled, problems = 0, []
    for q, result, error in outcomes:
        if error is not None:
            problems.append(f"{q.label}: raised {error!r}")
            continue
        is_settled, problem = workloads.check_query(lib, graphs[q.graph], q, result)
        if problem is not None:
            problems.append(f"{q.label}: {problem}")
        elif is_settled:
            settled += 1
    tally.record(problems, len(outcomes))
    return settled


# ---------------------------------------------------------------------------
# Pipeline workload

CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def cli_subprocess(argv, cwd):
    """(exit status or None on timeout, standard output) of one CLI process."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bcoloring.cli", *argv],
            cwd=cwd, env=CLI_ENV, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def cli_inprocess(lib, argv, cwd, tracer, sub):
    """(exit status, standard output) of bcoloring.cli.main run in this process."""
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = lib.cli.main(argv)
            else:
                code = tracer.call(f"cli.{sub}", lib.cli.main, (argv,))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an uncaught error has no documented status
        code = None
    finally:
        os.chdir(previous)
    return code, out.getvalue()


def pipeline_pass(lib, steps, workdir, inprocess=False, tracer=None, refs=None):
    """(wall seconds, per-call seconds, (subcommand, status, stdout) per call).

    ``refs`` is as for ``library_pass``.
    """
    workdir.mkdir(parents=True)
    latencies, calls = [], []
    start = perf_counter()
    for i, (sub, argv) in enumerate(steps):
        if refs is not None:
            refs.append(reference_seconds())
        t0 = perf_counter()
        if tracer is not None:
            tracer.query = i
        if inprocess:
            code, out = cli_inprocess(lib, argv, workdir, tracer, sub)
        else:
            code, out = cli_subprocess(argv, workdir)
        latencies.append(perf_counter() - t0)
        calls.append((sub, code, out))
    if refs is not None:
        refs.append(reference_seconds())
    return perf_counter() - start, latencies, calls


def tree_digest(d):
    h = hashlib.sha256()
    for path in sorted(d.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class PipelineChecker:
    """Checks each pass's calls, and its files through the library.

    The files of a pass whose tree digest equals one already checked are
    identical to checked files, so only new digests are checked in full.
    """

    def __init__(self):
        self.checked = set()

    def __call__(self, lib, calls, workdir, tally):
        settled, problems = 0, []
        for sub, code, out in calls:
            lines = out.strip().splitlines()
            try:
                report = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                report = None
            problem = workloads.check_call(sub, code, report)
            if problem is None:
                settled += 1
            else:
                problems.append(problem)
        digest = tree_digest(workdir)
        if not problems and digest not in self.checked:
            try:
                file_problems = workloads.check_pipeline_files(lib, workdir)
            except Exception as exc:  # unreadable output is a failure of the call that wrote it
                file_problems = [f"output files: {exc!r}"]
            problems += file_problems
            if not file_problems:
                self.checked.add(digest)
        tally.record(problems, len(calls))
        shutil.rmtree(workdir)
        return settled


# ---------------------------------------------------------------------------
# Reporting


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def describe(name, values, unit, scale=1.0):
    """One report line: median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    line = f"{name}: median {statistics.median(values) * scale:.6g} {unit}"
    tail = math.floor(1000 * (1 - 10 / n)) / 10
    if tail <= 50:
        line += ", no percentile has 10 samples beyond it"
    else:
        line += f", p{tail:g} {nearest_rank(values, tail) * scale:.6g} {unit}"
    return line + f", n={n}"


def peak_rss_mb():
    """Peak resident memory of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def check_contract(values, declared):
    """Every declared metric, and no other, is measured, with its declared unit."""
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: unit_of(name) for name in values}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, wrong unit {wrong}")


# ---------------------------------------------------------------------------
# Runs


def time_is_up(start, rounds, seconds):
    """True when one more round, at the mean round time so far, would end
    more than half a round after ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / rounds / 2 >= seconds


def end_to_end_run(args, tally, workdir):
    rng = random.Random(args.seed)
    queries = workloads.QUERIES.get(args.workload)
    checker = PipelineChecker()
    setups, scaled_setups, walls, settled, refs = [], [], [], [], []
    latencies = {}  # query or CLI call -> its latency in each pass, at the reference speed

    def timed_setup():
        before = reference_seconds()
        seconds, lib, graphs = setup(args.workload)
        after = reference_seconds()
        setups.append(seconds)
        scaled_setups.append(scaled(seconds, before, after))
        refs.extend((before, after))
        return lib, graphs

    start = perf_counter()
    while True:
        lib, graphs = timed_setup()
        pass_refs = []
        if queries:
            order = rng.sample(range(len(queries)), len(queries))
            wall, lats, outcomes = library_pass(lib, graphs, queries, order, refs=pass_refs)
            settled.append(check_library(lib, graphs, outcomes, tally))
            keys = order
        else:
            passdir = workdir / f"pass{len(walls)}"
            steps = workloads.pipeline_steps(rng)
            wall, lats, calls = pipeline_pass(lib, steps, passdir, refs=pass_refs)
            settled.append(checker(lib, calls, passdir, tally))
            keys = [" ".join(argv) for _, argv in steps]
        walls.append(wall - sum(pass_refs))
        refs.extend(pass_refs)
        for i, (key, lat) in enumerate(zip(keys, lats)):
            latencies.setdefault(key, []).append(scaled(lat, pass_refs[i], pass_refs[i + 1]))
        if time_is_up(start, len(walls), args.seconds):
            break
    while len(setups) < MIN_SETUPS:
        timed_setup()
    print(describe("one pass (unscaled)", walls, "s"))
    print(describe("setup (unscaled)", setups, "s"))
    print(describe("reference work", refs, "ms", 1000))
    print(describe("scaled query latency" if queries else "scaled CLI call latency",
                   [lat for lats in latencies.values() for lat in lats], "ms", 1000))
    print(f"settled: {statistics.median_low(settled)} of {len(latencies)} queries per pass")
    return {
        # One pass with each query at its median scaled latency.
        "wall_s": sum(statistics.median(lats) for lats in latencies.values()),
        "setup_s": statistics.median(scaled_setups),
        "settled": statistics.median_low(settled),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(args, tally, workdir):
    rng = random.Random(args.seed)
    queries = workloads.QUERIES.get(args.workload)
    checker = PipelineChecker()
    _, lib, graphs = setup(args.workload)
    plain, traced, per_pass, spans, cli_ms = [], [], [], [], []
    extra = dict.fromkeys((n for n in UNITS if n.startswith("cli.")), 0.0)
    if not queries:
        help_ms = []
        for _ in range(HELP_CALLS):
            t0 = perf_counter()
            code, _ = cli_subprocess(["--help"], ROOT)
            help_ms.append((perf_counter() - t0) * 1000)
            tally.record([] if code == 0 else [f"--help exited {code}, documented status is 0"], 1)
        extra["cli.start_ms"] = statistics.median(help_ms)
    # Inputs are built before the first query, so their layers show in set-up.
    tracer = Tracer()
    tracer.query = "setup"
    with tracer.instrumented():
        workloads.build_inputs(lib, args.workload)
    setup_metrics = pass_metrics(tracer.spans)
    spans.append(("setup", tracer.spans))
    start = perf_counter()
    while True:
        if queries:
            order = rng.sample(range(len(queries)), len(queries))
            wall, _, outcomes = library_pass(lib, graphs, queries, order)
            check_library(lib, graphs, outcomes, tally)
            plain.append(wall)
            tracer = Tracer()
            with tracer.instrumented():
                wall, _, outcomes = library_pass(lib, graphs, queries, order, tracer)
            check_library(lib, graphs, outcomes, tally)
        else:
            steps = workloads.pipeline_steps(rng)
            passdir = workdir / f"pass{len(plain)}"
            _, lats, calls = pipeline_pass(lib, steps, passdir / "cli")
            checker(lib, calls, passdir / "cli", tally)
            cli_ms.append(dict.fromkeys((f"cli.{sub}_ms" for sub in workloads.SUBCOMMANDS), 0.0))
            for (sub, _), seconds in zip(steps, lats):
                cli_ms[-1][f"cli.{sub}_ms"] += seconds * 1000
            cli_ms[-1]["cli.p50_ms"] = statistics.median(lats) * 1000
            wall, _, calls = pipeline_pass(lib, steps, passdir / "plain", inprocess=True)
            checker(lib, calls, passdir / "plain", tally)
            plain.append(wall)
            tracer = Tracer()
            with tracer.instrumented():
                wall, _, calls = pipeline_pass(lib, steps, passdir / "traced", True, tracer)
            checker(lib, calls, passdir / "traced", tally)
        traced.append(wall)
        per_pass.append(pass_metrics(tracer.spans))
        spans.append((len(traced), tracer.spans))
        if time_is_up(start, len(traced), args.seconds):
            break
    write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
    if cli_ms:
        extra.update(median_metrics(cli_ms))
    extra["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(describe("untraced pass", plain, "s"))
    print(describe("traced pass", traced, "s"))
    per_layer = median_metrics(per_pass)
    return {**{key: value + setup_metrics[key] for key, value in per_layer.items()}, **extra}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.QUERIES, "pipeline"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcoloring" / "__init__.py").is_file():
        print(f"error: no bcoloring package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    # One processor for this process and its children, so the reference work
    # gauges the processor each CLI call runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        run = traced_run if args.trace else end_to_end_run
        values = run(args, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    check_contract(values, declared)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

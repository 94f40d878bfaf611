"""Benchmark helixmi end to end, the way a user runs it.

    python3 perfbench/run.py --workload zipf62k --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``.
The benchmark writes a workload's inputs from the seed, then runs the
paper's commands on them in a closed loop: one command process at a
time, each a fresh ``python -m helixmi.cli`` started only after the
previous one has ended.  It checks every command's outputs, prints each
metric with its unit, and ends with one JSON line.

Workloads (why each was chosen):

- ``zipf62k``: the paper's per-query analysis on a 61,983-publication
  JSONL corpus (ingest, stats, mi x3 maps, null, scaling, dynamics).
  Time goes to ingest, branch counting, scaling and dynamics; the null
  model is one command of eight.
- ``synth-null``: two synthetic corpora (xor and sizemix, 72k
  publications each) and a 200-replicate null band on each.  The null
  model and the entropy kernel dominate; dynamics and scaling do nothing.
- ``medline62k``: the zipf62k records as MEDLINE text with an NLM ASCII
  vocabulary (ingest, mi x3 maps, scaling).  It reaches the other
  parsers and name resolution and bypasses the null model and dynamics.

With ``--trace 0`` the command set is repeated while it fits in
``--seconds`` (at least once) and the end-to-end metrics are reported:
``setup_s`` (median wall time of five ``--version`` runs spread over the
run), ``pipeline_s`` (the command set's wall time, median over repeats)
and ``peak_rss_mb`` (largest ``ru_maxrss`` of any command).  These are
the metrics every workload has; the per-command times (``ingest_s``,
``mi_s``, ...) and the error rate are printed above the JSON line.

With ``--trace 1`` the command set runs once, each command first as is
and then under ``tracer.py``; the result holds the per-layer metrics:
calls and self time of each traced function, ingest and shuffle rates,
the untraced per-command times, and the tracing overhead.

Each run leaves a record (environment, input sizes, per-command times
and the sha256 of every output file) in ``.perfbench/records``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
YEARS = "1978:2013"
SYNTH_PUBS_PER_YEAR = 2000
SYNTH_NULL_REPLICATES = 200
ZIPF_NULL_REPLICATES = 100
COMMAND_METRICS = ["ingest_s", "stats_s", "mi_s", "null_s", "scaling_s",
                   "dynamics_s", "synth_s"]
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracer.span_names():
        if name == "cli.main":
            units["cli.main.calls"] = "count"
            units["cli.self_s"] = "s"
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    units["corpus.pubs_per_s"] = "1/s"
    units["nullmodel.labels_per_s"] = "1/s"
    units.update({metric: "s" for metric in COMMAND_METRICS})
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Step:
    label: str  # names the output directory; unique within a workload
    metric: str
    argv: list[str]
    check: Callable[[Path, dict], list[str]]
    expect: dict


@dataclass
class Outcome:
    label: str
    metric: str
    wall_s: float
    rss_mb: float
    code: int
    problems: list[str]
    hashes: dict[str, str] = field(default_factory=dict)


class Runner:
    """Starts command processes one at a time and counts operations."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # the thread count is passed explicitly; an inherited setting
        # would make runs on two machines differ silently
        self.env.pop("HELIX_THREADS", None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run one process; return exit code, wall seconds and peak RSS in MB.

        ``os.wait4`` gives the child's own ``ru_maxrss``.  A forked child
        starts from its parent's high-water mark, which is one reason the
        benchmark process keeps its own memory small.
        """
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def record(self, label: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))

    def command(self, step: Step, out: Path, same_as: Outcome | None = None) -> Outcome:
        """Run one step; under the tracer when ``same_as`` gives the untraced
        outcome, whose outputs the traced run must reproduce byte for byte."""
        traced = same_as is not None
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        if traced:
            launcher = [str(HERE / "tracer.py"), str(out / "spans.json"), "--"]
        else:
            launcher = ["-m", "helixmi.cli"]
        argv = [sys.executable, *launcher, *step.argv, "--out", str(out)]
        code, wall, rss = self.spawn(argv, out.with_name(out.name + ".log"))
        problems: list[str] = []
        if code == 0:
            try:
                problems = step.check(out, step.expect)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if not (out / "manifest.json").is_file():
                problems.append("no manifest.json")
        hashes = checks.output_hashes(out) if code == 0 else {}
        hashes.pop("spans.json", None)
        if traced and same_as.code == 0 and code == 0 and hashes != same_as.hashes:
            problems.append("outputs differ from the untraced run")
        self.record(step.label + (" (traced)" if traced else ""), code, problems)
        return Outcome(step.label, step.metric, wall, rss, code, problems, hashes)

    def version(self, log: Path) -> float:
        code, wall, _ = self.spawn([sys.executable, "-m", "helixmi.cli", "--version"], log)
        self.record("--version", code, checks.version(log) if code == 0 else [])
        return wall


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _generate(runner: Runner, work: Path, seed: int, fmt: str) -> dict:
    inputs = work / "inputs"
    argv = [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed),
            "--format", fmt, "--out", str(inputs)]
    code, _, _ = runner.spawn(argv, work / "generate.log")
    if code != 0:
        raise SystemExit("input generation failed:\n" + (work / "generate.log").read_text())
    return json.loads((inputs / "expect.json").read_text(encoding="utf-8"))


def _mi_steps(source: list[str], expect: dict) -> list[Step]:
    return [Step(f"mi-{m}", "mi_s", ["mi", *source, "--map", m], checks.mi, expect)
            for m in ("binary", "median", "full")]


def zipf62k(runner: Runner, work: Path, seed: int, threads: int):
    expect = _generate(runner, work, seed, "jsonl")
    source = ["--corpus", str(work / "inputs" / "corpus.jsonl"),
              "--mesh", str(work / "inputs" / "mesh.tsv")]
    steps = [
        Step("ingest", "ingest_s", ["ingest", *source], checks.ingest, expect),
        Step("stats", "stats_s", ["stats", *source], checks.stats, expect),
        *_mi_steps(source, expect),
        Step("null", "null_s",
             ["null", *source, "--map", "full", "--target", "T_CDE", "--replicates",
              str(ZIPF_NULL_REPLICATES), "--seed", str(seed), "--threads", str(threads)],
             checks.null_band, expect),
        Step("scaling", "scaling_s", ["scaling", *source], checks.scaling, expect),
        Step("dynamics", "dynamics_s",
             ["dynamics", *source, "--topk", "200", "--pair-branches", "D,E"],
             checks.dynamics, expect),
    ]
    sizes = {k: expect[k] for k in ("pubs", "descriptors", "years")}
    sizes["replicates"] = ZIPF_NULL_REPLICATES
    return steps, sizes


def synth_null(runner: Runner, work: Path, seed: int, threads: int):
    lo, hi = (int(y) for y in YEARS.split(":"))
    expect = {"pubs": SYNTH_PUBS_PER_YEAR * (hi - lo + 1), "years": [lo, hi]}
    modes = (("xor", ["--rho", "1"], checks.null_xor), ("sizemix", [], checks.null_sizemix))
    steps = [Step(f"synth-{mode}", "synth_s",
                  ["synth", "--mode", mode, *extra, "--pubs", str(SYNTH_PUBS_PER_YEAR),
                   "--years", YEARS, "--seed", str(seed)], checks.synth, expect)
             for mode, extra, _ in modes]
    for mode, _, check in modes:
        made = work / "out" / f"synth-{mode}"
        steps.append(Step(f"null-{mode}", "null_s",
                          ["null", "--corpus", str(made / "corpus.jsonl"),
                           "--mesh", str(made / "mesh.tsv"), "--map", "full",
                           "--target", "T_CDE", "--replicates", str(SYNTH_NULL_REPLICATES),
                           "--seed", str(seed), "--threads", str(threads)], check, expect))
    sizes = {"pubs": expect["pubs"], "corpora": 2, "years": expect["years"],
             "replicates": SYNTH_NULL_REPLICATES}
    return steps, sizes


def medline62k(runner: Runner, work: Path, seed: int, threads: int):
    expect = _generate(runner, work, seed, "medline")
    source = ["--corpus", str(work / "inputs" / "corpus.medline"),
              "--mesh", str(work / "inputs" / "mesh.bin")]
    steps = [
        Step("ingest", "ingest_s", ["ingest", *source], checks.ingest, expect),
        *_mi_steps(source, expect),
        Step("scaling", "scaling_s", ["scaling", *source], checks.scaling, expect),
    ]
    sizes = {k: expect[k] for k in ("pubs", "descriptors", "years")}
    return steps, sizes


WORKLOADS = {"zipf62k": zipf62k, "synth-null": synth_null, "medline62k": medline62k}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def input_bytes(steps: list[Step]) -> dict[str, int]:
    """Size of every corpus and vocabulary file the commands read."""
    sizes = {}
    for step in steps:
        for flag, value in zip(step.argv, step.argv[1:]):
            if flag in ("--corpus", "--mesh") and Path(value).is_file():
                sizes[value] = Path(value).stat().st_size
    return sizes


def command_times(outcomes: list[Outcome]) -> dict[str, float]:
    """Wall time per command metric, summed over that metric's commands."""
    times: dict[str, float] = {}
    for o in outcomes:
        times[o.metric] = times.get(o.metric, 0.0) + o.wall_s
    return times


def timed_run(runner: Runner, steps: list[Step], out: Path, seconds: float,
              first_setup: float, record: dict):
    # The machine's speed drifts over tens of seconds, so set-up is
    # sampled between commands across the whole first repeat rather than
    # back to back, and its median then describes the same span of time
    # as the commands it is compared with.
    setup = [first_setup]
    every = max(1, len(steps) // (SETUP_REPEATS - 1))
    repeats: list[list[Outcome]] = []
    start = time.monotonic()
    while True:
        outcomes = []
        for i, step in enumerate(steps):
            outcomes.append(runner.command(step, out / step.label))
            if len(setup) < SETUP_REPEATS and (i + 1) % every == 0:
                setup.append(runner.version(out.parent / f"version-{len(setup)}.log"))
        repeats.append(outcomes)
        spent = time.monotonic() - start
        # start another repeat only if it should end within --seconds
        if spent + spent / len(repeats) > seconds or time.monotonic() > runner.deadline:
            break
    per_command = {m: statistics.median(command_times(r).get(m, 0.0) for r in repeats)
                   for m in COMMAND_METRICS if any(s.metric == m for s in steps)}
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(sum(o.wall_s for o in r) for r in repeats),
        "peak_rss_mb": max(o.rss_mb for r in repeats for o in r),
    }
    record.update(repeats=len(repeats), setup_runs_s=setup, per_command_s=per_command,
                  commands=[[o.__dict__ for o in r] for r in repeats])
    return metrics, per_command


def traced_run(runner: Runner, steps: list[Step], out: Path, record: dict):
    plain, traced, processes = [], [], []
    for step in steps:
        plain.append(runner.command(step, out / step.label))
        traced.append(runner.command(step, out / f"{step.label}.traced", same_as=plain[-1]))
        spans_file = out / f"{step.label}.traced" / "spans.json"
        if spans_file.is_file():
            processes.append(json.loads(spans_file.read_text(encoding="utf-8")))
    summary = tracer.summarize(processes)
    metrics: dict[str, float] = {}
    for name, entry in summary.items():
        prefix = "cli" if name == "cli.main" else name
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{prefix}.self_s"] = entry["self_s"]

    def rate(names: list[str], work: str) -> float:
        busy = sum(summary[n]["self_s"] for n in names)
        done = sum(summary[n]["work"].get(work, 0) for n in names)
        return done / busy if busy > 0 else 0.0

    metrics["corpus.pubs_per_s"] = rate(
        ["corpus.ingest_jsonl", "corpus.ingest_medline_text"], "pubs")
    metrics["nullmodel.labels_per_s"] = rate(["nullmodel.shuffle_year"], "labels")
    times = command_times(plain)
    metrics.update({m: times.get(m, 0.0) for m in COMMAND_METRICS})
    metrics["trace.overhead_s"] = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
    record.update(commands=[o.__dict__ for o in plain],
                  traced_commands=[o.__dict__ for o in traced])
    return metrics


def environment(threads: int, seed: int) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    return {"cores": len(os.sched_getaffinity(0)), "threads": threads, "seed": seed,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    runner = Runner(deadline=time.monotonic() + DEADLINE_S)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        # the program must start before anything else runs
        first_setup = runner.version(work / "version-0.log")
        if runner.failed:
            print("helixmi does not start:\n" + (work / "version-0.log").read_text(),
                  file=sys.stderr)
            return 2
        threads = len(os.sched_getaffinity(0))
        steps, sizes = WORKLOADS[args.workload](runner, work, args.seed, threads)
        record = {"workload": args.workload, "trace": args.trace, "sizes": sizes,
                  "environment": environment(threads, args.seed)}
        if args.trace:
            metrics, per_command = traced_run(runner, steps, work / "out", record), {}
            units = per_layer_units()
        else:
            metrics, per_command = timed_run(runner, steps, work / "out", args.seconds,
                                             first_setup, record)
            units = dict(END_TO_END)
        sizes["bytes"] = input_bytes(steps)
        record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures)
        records = WORK / "records"
        records.mkdir(exist_ok=True)
        (records / f"{work.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        for path in (work / "inputs", work / "out"):
            shutil.rmtree(path, ignore_errors=True)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# sizes {json.dumps(sizes)}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    # the commands a workload runs, then the metrics the result carries
    for name, value in per_command.items():
        print(f"{name:38s} {value:14.6g} s")
    for name, value in metrics.items():
        print(f"{name:38s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':38s} {runner.failed / runner.attempted:14.6g} failed/attempted")
    print(f"# record: {records / (work.name + '.json')}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark driver for wheelembed (standard library only).

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem-sweep --seed 0 --seconds 40 --trace 0

A workload is a fixed list of jobs, run as a closed loop with one client:
one fresh wheelembed process at a time, never two side by side. The driver
repeats the list while `--seconds` allows and reports medians over the
passes. Every job's exit code and output are checked against the seed-0
outputs recorded in `expected/`; a mismatch is counted, never dropped.

`--trace 1` runs the same jobs in this process through `wheelembed.cli.main`,
each job once without and once with the span tracer of `tracer.py`, and
reports per-layer self times and work counters instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNTERS, LAYERS, UNITS, Tracer

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# what the `wheelembed` console script runs, so each job pays a real CLI start
LAUNCHER = "import sys; from wheelembed.cli import main; sys.exit(main())"
# fields that a relabeling of the host cannot change
LABEL_FREE = ("optimum", "exact", "verdict")
RELABELED_FLAGS = ("--host", "--graph")
# `wheelembed --version` launches timed before each pass, for setup_s
SETUP_LAUNCHES = 7
# jobs still running this long after the start are killed, so a run ends within 180 s
RUN_LIMIT_S = 150.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...] = ()  # (CLI flag, graph file in inputs/)


def _verify(theorem: str, sweep: str) -> Job:
    return Job(theorem, ("verify", theorem, "--sweep", sweep, "--format", "json"))


def _oracle(name: str, metric: str, guest: str, host: str, *extra: str) -> Job:
    return Job(name, ("oracle", "--metric", metric, *extra),
               (("--guest", guest), ("--host", host)))


def _ham(name: str, query: str, graph: str, *extra: str) -> Job:
    return Job(name, ("ham", "--query", query, *extra), (("--graph", graph),))


CENSUS = Job("census-2fault", ("census",))

WORKLOADS = {
    # few large graphs: BFS distances, the three constructions, route
    # validation and evaluation; ec-windmill n=12 sets peak RSS (n=13 costs
    # 338 MB and several seconds more)
    "theorem-sweep": (
        _verify("dil-hypertree", "3..10"),
        _verify("dil-sibling", "3..9"),
        _verify("dil-xtree", "3..9"),
        _verify("ec-windmill", "3..12"),
        _verify("wl-wheel", "6..20"),
        _verify("wl-fan", "6..20"),
    ),
    # tiny graphs, all time in the oracle: the flat congestion loop, both DFS
    # searches and the partitioned pool path (--jobs 2)
    "oracle-exhaustive": (
        _oracle("ec-wheel9-circulant9", "ec", "wheel-9", "circulant-9-1-3"),
        _oracle("ec-wheel9-torus3x3", "ec", "wheel-9", "torus-3x3"),
        _oracle("ec-windmill4-circulant8", "ec", "windmill-4", "circulant-8-1-2"),
        _oracle("ec-star7-cbt3", "ec", "star-7", "cbt-3"),
        _oracle("wl-wheel11-circulant11", "wl", "wheel-11", "circulant-11-1-2", "--limit", "11"),
        _oracle("wl-fan10-circulant10", "wl", "fan-10", "circulant-10-1-3", "--limit", "10"),
        _oracle("wl-wheel10-petersen", "wl", "wheel-10", "petersen-5-2", "--limit", "10"),
        _oracle("dil-wheel10-petersen", "dil", "wheel-10", "petersen-5-2", "--limit", "10"),
        _oracle("dil-wheel9-torus3x3", "dil", "wheel-9", "torus-3x3"),
        _oracle("wl-wheel11-circulant11-jobs2", "wl", "wheel-11", "circulant-11-1-2",
                "--limit", "11", "--jobs", "2"),
    ),
    # the hamiltonian layer two ways: ~34k tiny searches where per-query
    # setup dominates, and deep searches where node expansion dominates
    "fault-census": (
        CENSUS,
        _ham("cycle-petersen23", "cycle", "petersen-23-2"),
        _ham("ftrace1-circulant16", "ffault-trace", "circulant-16-1-2", "--f", "1"),
        _ham("fham3-complete9", "ffault-ham", "complete-9", "--f", "3"),
        _ham("fham2-circulant12", "ffault-ham", "circulant-12-1-2-3", "--f", "2"),
        _ham("fham2-circulant16", "ffault-ham", "circulant-16-1-2-4", "--f", "2"),
    ),
}


@dataclass
class Run:
    """Where one benchmark run reads its program and writes its files."""

    root: Path
    seed: int
    work: Path = None
    expected: Path = EXPECTED

    def __post_init__(self):
        self.root = Path(self.root).resolve()
        if self.work is None:
            self.work = self.root / ".bench_build" / "perfbench"
        self.src = self.root / "src"


@dataclass
class Pass:
    wall: float
    job_walls: dict = field(default_factory=dict)
    job_cpus: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)  # job name -> what was wrong
    traced: bool = False


# ---------------------------------------------------------------- inputs

def relabel(graph: dict, seed: int, name: str) -> dict:
    """The graph with vertex ids 2..n permuted by a seeded shuffle; seed 0 keeps
    every id. Vertex 1 keeps its id: the hamiltonian searches start there, and
    which vertex orbit the start lies in sets their cost."""
    rest = list(range(2, graph["order"] + 1))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(rest)
    new_id = [0, 1, *rest]
    edges = sorted(sorted((new_id[u], new_id[v])) for u, v in graph["edges"])
    return {"edges": edges, "name": graph["name"], "order": graph["order"]}


def write_inputs(jobs, run: Run) -> dict:
    """Write the (relabeled) host graphs; return each job's full CLI arguments."""
    hosts = run.work / "hosts"
    hosts.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for job in jobs:
        argv = list(job.args)
        for flag, name in job.inputs:
            path = INPUTS / f"{name}.json"
            if flag in RELABELED_FLAGS:
                graph = json.loads(path.read_text(encoding="utf-8"))
                path = hosts / f"{name}.json"
                path.write_text(json.dumps(relabel(graph, run.seed, name), indent=2,
                                           sort_keys=True) + "\n", encoding="utf-8")
            argv += [flag, str(path)]
        argvs[job.name] = argv
    return argvs


def byte_checked(job: Job, seed: int) -> bool:
    return seed == 0 or not any(flag in RELABELED_FLAGS for flag, _ in job.inputs)


# ---------------------------------------------------------------- checking

def check(code, out: str, err: str, expected, exact: bool):
    """What is wrong with one job's result, or None when it is correct."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    if expected is None:
        return "no expected output recorded"
    if exact:
        return None if out == expected else "output differs from the expected bytes"
    try:
        got, want = json.loads(out), json.loads(expected)
    except ValueError:
        return "output is not JSON"
    wrong = [key for key in LABEL_FREE if key in want and got.get(key) != want[key]]
    return f"label-free fields differ: {', '.join(wrong)}" if wrong else None


def load_expected(jobs, run: Run) -> dict:
    texts = {}
    for job in jobs:
        path = run.expected / f"{job.name}.out"
        texts[job.name] = path.read_text(encoding="utf-8") if path.is_file() else None
    return texts


# ---------------------------------------------------------------- running jobs

def job_env(run: Run) -> dict:
    env = dict(os.environ, PYTHONPATH=str(run.src))
    env.pop("WHEELEMBED_JOBS", None)
    return env


def run_process(cmd, run: Run, env: dict, deadline: float):
    """Run one process to completion: (exit code, stdout, stderr, wall s, CPU s).

    CPU is user plus system time of the process and of every child it waited
    for, such as the oracle's pool workers."""
    cpu_before = _children_cpu()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=run.root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\nkilled at the run time limit"
    wall = time.perf_counter() - start
    return proc.returncode, out, err, wall, _children_cpu() - cpu_before


def process_runner(run: Run, argvs: dict, deadline: float):
    env = job_env(run)

    def runner(job: Job):
        if job is CENSUS:
            cmd = [sys.executable, str(HERE / "census.py")]
        else:
            cmd = [sys.executable, "-c", LAUNCHER, *argvs[job.name]]
        return run_process(cmd, run, env, deadline)
    return runner


def import_program(run: Run):
    """Import wheelembed from the checkout's src/ (and the census job) into this process."""
    sys.path.insert(0, str(run.src))
    cli = importlib.import_module("wheelembed.cli")
    if Path(cli.__file__).resolve().parent != run.src / "wheelembed":
        raise RuntimeError(f"imported wheelembed from {cli.__file__}, not from {run.src}")
    sys.path.insert(0, str(HERE))
    return cli, importlib.import_module("census")


def inprocess_runner(cli, census, argvs: dict):
    def runner(job: Job):
        out, err = io.StringIO(), io.StringIO()
        cpu_before = time.process_time() + _children_cpu()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # looked up at call time so that an installed tracer wraps main
                code = census.main() if job is CENSUS else cli.main(list(argvs[job.name]))
            except Exception:  # a crash fails this job, as a traceback would in a process
                traceback.print_exc()
                code = "uncaught exception"
        wall = time.perf_counter() - start
        cpu = time.process_time() + _children_cpu() - cpu_before
        return code, out.getvalue(), err.getvalue(), wall, cpu
    return runner


def record(result: Pass, job: Job, outcome, expected: dict, seed: int) -> None:
    code, out, err, wall, cpu = outcome
    result.job_walls[job.name] = wall
    result.job_cpus[job.name] = cpu
    problem = check(code, out, err, expected[job.name], byte_checked(job, seed))
    if problem:
        result.problems[job.name] = problem
        print(f"FAIL {job.name}: {problem}", file=sys.stderr)


def run_pass(jobs, runner, expected: dict, seed: int) -> Pass:
    start = time.perf_counter()
    outcomes = [runner(job) for job in jobs]
    result = Pass(time.perf_counter() - start)
    for job, outcome in zip(jobs, outcomes):
        record(result, job, outcome, expected, seed)
    return result


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def job_list_median(passes, attr: str) -> float:
    """Sum over the job list of each job's median over the passes.

    This is the time of a typical pass, with a job slowed in one pass by
    another tenant of the machine filtered out."""
    per_pass = [getattr(p, attr) for p in passes]
    return sum(statistics.median(d[name] for d in per_pass) for name in per_pass[0])


# ---------------------------------------------------------------- measuring

def measure(jobs, run: Run, seconds: float, limit: float):
    """End-to-end metrics with tracing off.

    Returns (metrics, passes, checks made besides the jobs, failed checks)."""
    argvs = write_inputs(jobs, run)
    expected = load_expected(jobs, run)
    env = job_env(run)
    version = [sys.executable, "-c", LAUNCHER, "--version"]
    setup_times, setup_problems = [], []

    def launch():
        code, out, err, wall, _ = run_process(version, run, env, limit)
        if code != 0 or not out.startswith("wheelembed "):
            setup_problems.append(f"--version: exit code {code}, output {out!r} {err.strip()}")
        return wall

    deadline = time.perf_counter() + seconds
    launch()  # untimed: the first start in a fresh checkout compiles the sources
    runner = process_runner(run, argvs, limit)
    passes = []
    while True:
        start = time.perf_counter()
        setup_times += [launch() for _ in range(SETUP_LAUNCHES)]
        result = run_pass(jobs, runner, expected, run.seed)
        passes.append(result)
        now = time.perf_counter()
        if now + (now - start) > deadline or now > limit:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": job_list_median(passes, "job_walls"),
        "cpu_s": job_list_median(passes, "job_cpus"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, passes, len(setup_times) + 1, setup_problems


def measure_traced(jobs, run: Run, seconds: float, workload: str):
    """Per-layer metrics from in-process passes; returns the same tuple as `measure`.

    Each job runs twice in a row, once without and once with the tracer, in
    alternating order, so that both sides see the same machine speed when
    the overhead is taken."""
    argvs = write_inputs(jobs, run)
    expected = load_expected(jobs, run)
    cli, census = import_program(run)
    runner = inprocess_runner(cli, census, argvs)
    tracer = Tracer()
    plain, traced, layer_runs, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(Pass(0.0))
        traced.append(Pass(0.0, traced=True))
        tracer.reset()
        for index, job in enumerate(jobs):
            for trace_on in (False, True) if (index + len(traced)) % 2 else (True, False):
                if trace_on:
                    tracer.install()
                try:
                    outcome = runner(job)
                finally:
                    if trace_on:
                        tracer.uninstall()
                side = traced[-1] if trace_on else plain[-1]
                side.wall += outcome[3]
                record(side, job, outcome, expected, run.seed)
        layer_runs.append(tracer.layer_metrics())
        spans.append(list(tracer.spans))
        if time.perf_counter() + plain[-1].wall + traced[-1].wall > deadline:
            break

    metrics = {name: statistics.median(m[name] for m in layer_runs) for name in LAYERS}
    problems = []
    deterministic = (*COUNTERS, "graphs.bfs_distinct_ratio")
    for name in deterministic:
        values = [m[name] for m in layer_runs]
        if len(set(values)) > 1:
            problems.append(f"counter {name} differs between traced passes: {values}")
        metrics[name] = values[0]
    plain_wall = job_list_median(plain, "job_walls")
    metrics["trace.overhead_frac"] = job_list_median(traced, "job_walls") / plain_wall - 1

    run.work.mkdir(parents=True, exist_ok=True)
    with open(run.work / f"spans-{workload}-seed{run.seed}.jsonl", "w", encoding="utf-8") as fh:
        for index, pass_spans in enumerate(spans):
            for span in pass_spans:
                fh.write(json.dumps([index, *span]) + "\n")
    return metrics, [p for pair in zip(plain, traced) for p in pair], len(deterministic), problems


# ---------------------------------------------------------------- reporting

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read from .git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, run: Run, passes) -> dict:
    names = list(passes[0].job_walls)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "commit": git_commit(run.root),
        "passes": len(passes),
        "traced_passes": [p.traced for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "job_wall_s": {name: [p.job_walls[name] for p in passes] for name in names},
        "job_cpu_s": {name: [p.job_cpus[name] for p in passes] for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wheelembed benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(Path.cwd(), args.seed)
    if not (run.src / "wheelembed" / "cli.py").is_file():
        print(f"perfbench: no wheelembed sources under {run.src}; "
              "run from the root of a wheelembed checkout", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    if args.trace:
        metrics, passes, checks, problems = measure_traced(jobs, run, args.seconds,
                                                           args.workload)
        units = UNITS
    else:
        limit = time.perf_counter() + RUN_LIMIT_S
        metrics, passes, checks, problems = measure(jobs, run, args.seconds, limit)
        units = E2E_UNITS
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    attempted = sum(len(p.job_walls) for p in passes) + checks
    failed = sum(len(p.problems) for p in passes) + len(problems)
    for name, value in metrics.items():
        print(f"{name:28} {value:12.6g} {units[name]}")
    print(f"{'fail_rate':28} {failed / attempted:12.6g} fraction ({failed} of {attempted})")
    print("context " + json.dumps(run_context(args, run, passes), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

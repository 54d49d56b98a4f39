"""Tests of the benchmark itself, on a few quick jobs from each workload.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench
from tracer import UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
QUICK_NAMES = ("wl-wheel", "ec-star7-cbt3", "dil-wheel9-torus3x3", "fham2-circulant12")
QUICK = tuple(job for jobs in bench.WORKLOADS.values() for job in jobs
              if job.name in QUICK_NAMES)


def _measure(run):
    return bench.measure(QUICK, run, 0, time.perf_counter() + 120)


def test_quick_jobs_cover_every_workload():
    assert len(QUICK) == len(QUICK_NAMES)
    for jobs in bench.WORKLOADS.values():
        assert any(job in QUICK for job in jobs)


def test_traced_outputs_match_untraced_bytes(tmp_path):
    run = bench.Run(ROOT, 0, work=tmp_path)
    argvs = bench.write_inputs(QUICK, run)
    expected = bench.load_expected(QUICK, run)
    in_process = bench.inprocess_runner(*bench.import_program(run), argvs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = {job.name: in_process(job)[:2] for job in QUICK}
    finally:
        tracer.uninstall()
    assert tracer.spans
    subprocesses = bench.process_runner(run, argvs, time.perf_counter() + 120)
    for job in QUICK:
        code, out, *_ = subprocesses(job)
        assert (code, out) == traced[job.name] == (0, expected[job.name]), job.name


def test_counters_repeat_across_traced_runs(tmp_path):
    results = []
    for attempt in range(2):
        run = bench.Run(ROOT, 0, work=tmp_path / str(attempt))
        metrics, passes, _, problems = bench.measure_traced(QUICK, run, 0, "quick")
        assert not problems and not any(p.problems for p in passes)
        assert set(metrics) == set(UNITS)
        results.append({name: value for name, value in metrics.items() if UNITS[name] != "s"
                        and name != "trace.overhead_frac"})
    assert results[0] == results[1]
    counts = results[0]
    assert counts["oracle.calls"] == 2
    assert counts["hamiltonian.fault_specs"] > 0
    assert counts["embedding.route_hops"] > 0
    assert counts["families.graphs_built"] > 0


def test_nonzero_seed_relabels_hosts_and_keeps_label_free_fields(tmp_path):
    run = bench.Run(ROOT, 7, work=tmp_path)
    _, passes, _, problems = _measure(run)
    assert not problems and not passes[0].problems
    canonical = json.loads((bench.INPUTS / "torus-3x3.json").read_text())
    relabeled = json.loads((tmp_path / "hosts" / "torus-3x3.json").read_text())
    assert relabeled["edges"] != canonical["edges"]
    assert len(relabeled["edges"]) == len(canonical["edges"])


def test_corrupted_expected_output_is_counted_as_failed(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(bench.EXPECTED, expected)
    path = expected / "ec-star7-cbt3.out"
    path.write_text(path.read_text().replace('"optimum": 3', '"optimum": 2'))
    for seed in (0, 7):
        run = bench.Run(ROOT, seed, work=tmp_path / f"seed{seed}", expected=expected)
        _, passes, _, _ = _measure(run)
        assert list(passes[0].problems) == ["ec-star7-cbt3"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "theorem-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS

"""Tier-1 smoke test of the benchmark: all four workloads at ``--smoke``
sizes, twice untraced (two seeds) and, beside them, once traced.

Checks the contract the driver relies on — every workload and metric
named in ``BENCHMARK.json`` is emitted with its declared unit, nothing
failed — and the benchmark's own determinism claim: the protocol-cost
counts do not move between runs or seeds.
"""

import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Loaded by path: bench/ is a script directory, not a package.
_spec = importlib.util.spec_from_file_location(
    "_bench_metrics", os.path.join(BENCH_DIR, "metrics.py"))
M = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(M)

COUNT_METRICS = [row[0] for row in M.END_TO_END if row[3] == M.EXACT]


def _run(cpu, *extra):
    """One benchmark process over all workloads -> {workload: result}.

    run.py pins itself to the lowest CPU it may use, so the caller picks
    one: two test processes then do not share a core."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    names = [line.split(" — ")[0] for line in proc.stdout.splitlines()
             if " — " in line]
    assert len(names) == len(results)
    return dict(zip(names, results))


def test_benchmark_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert declared["paths"] == ["bench"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [tuple(r) for r in M.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [tuple(r) for r in M.PER_LAYER]

    cpus = sorted(os.sched_getaffinity(0))
    with ThreadPoolExecutor(2) as pool:
        traced = pool.submit(_run, cpus[0], "--seed", "11", "--trace", "1")
        untraced = pool.submit(lambda: [
            _run(cpus[-1], "--seed", seed, "--trace", "0")
            for seed in ("11", "12")])
        (first, second), traced = untraced.result(), traced.result()

    workloads = [w["name"] for w in declared["workloads"]]
    for run, table in ((first, "end_to_end"), (second, "end_to_end"),
                       (traced, "per_layer")):
        assert sorted(run) == sorted(workloads)
        for name, result in run.items():
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == \
                {m["name"]: m["unit"] for m in declared[table]}, name
    for name in workloads:
        for metric in COUNT_METRICS:
            assert first[name]["metrics"][metric] == \
                second[name]["metrics"][metric], (name, metric)

"""Tests of the benchmark itself: python3 -m pytest bench

Each workload runs at minimal length, traced and untraced, and must print
every metric that BENCHMARK.json names, with its unit, and no failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, m["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from bihomlie import catalog, derivations, structure
    finally:
        sys.path.pop(0)
    original = derivations.derivation_space
    tracer = Tracer()
    tracer.install()
    try:
        for module in (catalog, derivations, structure):
            assert module.derivation_space is not original
        derivations.centroid(catalog.build("L_1^9", {}))
    finally:
        tracer.uninstall()
    for module in (catalog, derivations, structure):
        assert module.derivation_space is original
    counts = tracer.summarize()["counts"]
    assert counts["derivations.centroid"] == 1
    assert counts["derivations.derivation_space"] == 1
    assert set(counts) >= {t[0] for t in TARGETS}

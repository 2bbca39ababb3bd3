"""Self-tests of the benchmark at the tiny size.

    python3 -m pytest benchmarks/test_benchmark.py -q

Every check must pass on the library's outputs and reject a corrupted
one; every per-layer counter that README.md maps to a workload must read
above 0 on it; the counts of two traced runs of one seed must agree; and
the benchmark must fail without printing a result where there is no
source tree.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _round(name, workdir):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(SEED, "tiny", workdir)
    outputs, failed = wl.job(inputs)
    assert failed == 0
    assert wl.check(inputs, outputs) == []
    return wl, inputs, outputs


@pytest.fixture
def workdir():
    path = os.path.join(HERE, "out", "work", f"selftest-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _rewrite_csv(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _scaled(value, factor):
    return repr(float(value) * factor)


# -- checks reject corrupted outputs -------------------------------------------

def test_leibniz_check_rejects_a_dropped_term(workdir):
    from qsu2.calculus import OneForm
    wl, inputs, outputs = _round("leibniz", workdir)
    result = outputs["results"][-1]
    parts = dict(result["d(f)g+fd(g)"].parts)
    parts.pop(next(iter(parts)))
    result["d(f)g+fd(g)"] = OneForm(parts)
    assert any("d(fg)" in f for f in wl.check(inputs, outputs))


def test_leibniz_check_rejects_a_wrong_display(workdir):
    from qsu2.calculus import OneForm
    wl, inputs, outputs = _round("leibniz", workdir)
    kind, name, by_symbol, by_generator = outputs["displays"][0]
    wrong = OneForm({k: v.scale(2) for k, v in by_generator.parts.items()})
    outputs["displays"][0] = (kind, name, by_symbol, wrong)
    assert any("by generators" in f for f in wl.check(inputs, outputs))


def test_growth_check_rejects_a_perturbed_norm(workdir):
    wl, inputs, outputs = _round("growth", workdir)
    path = os.path.join(inputs["dir"], "growth_3d.csv")

    def perturb(rows):
        for r in rows:
            if r["symbol"] == "ladder:X+":
                r["hs_norm_sq_float"] = _scaled(r["hs_norm_sq_float"], 1 + 1e-9)
        return rows
    _rewrite_csv(path, perturb)
    assert any("X+" in f for f in wl.check(inputs, outputs))


def test_growth_check_rejects_a_wrong_exponent(workdir):
    wl, inputs, outputs = _round("growth", workdir)
    code, text = outputs["runs"][0]
    outputs["runs"][0] = (code, re.sub(r"exact 2 ", "exact 5/2 ", text, 1))
    assert any("exact exponent 5/2" in f for f in wl.check(inputs, outputs))


def test_scan_check_rejects_perturbed_ratios(workdir):
    wl, inputs, outputs = _round("scan", workdir)
    path = os.path.join(inputs["dir"], "commutator_ratios.csv")
    original = open(path).read()

    def off_diagonal(rows):
        for r in rows:
            if r["k"] != r["s"]:
                r["ratio"] = _scaled(r["ratio"], 1 + 1e-9)
        return rows
    _rewrite_csv(path, off_diagonal)
    assert any("Haar state gives" in f for f in wl.check(inputs, outputs))

    with open(path, "w") as fh:
        fh.write(original)

    def diagonal(rows):
        rows[0]["ratio"] = "1e-300"
        return rows[:-1]
    _rewrite_csv(path, diagonal)
    failures = wl.check(inputs, outputs)
    assert any("at k = s" in f for f in failures)
    assert any("rows, expected" in f for f in failures)


def test_inequality_check_rejects_a_ratio_above_one(workdir):
    wl, inputs, outputs = _round("inequality", workdir)
    f, p, ratio = outputs["rows"][0]
    outputs["rows"][0] = (f, p, 1 + 2e-5)
    assert any("Hausdorff-Young ratio" in x for x in wl.check(inputs, outputs))


def test_inequality_check_rejects_an_inexact_quadrature(workdir):
    from qsu2.fourier import SU2Grid
    wl, inputs, outputs = _round("inequality", workdir)
    inputs["grid"] = SU2Grid(2, 2, 2)
    assert any("quadrature L2 norm" in x for x in wl.check(inputs, outputs))


# -- the traced runs -------------------------------------------------------------

def _bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def _traced(workload):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds",
                  "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def readme_map():
    """{metric: set of workloads} from the layer table of README.md."""
    rows = {}
    with open(os.path.join(HERE, "README.md")) as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`") \
                    and cells[0] != "`trace.overhead_s`":
                names = re.findall(r"`([^`]+)`", cells[0])
                loads = {w.strip() for w in cells[2].split(",")}
                for name in names:
                    rows[name] = loads
    return rows


@pytest.fixture(scope="module")
def traced():
    return {w: _traced(w) for w in workloads.WORKLOADS}


def test_readme_maps_every_counter():
    metrics = {m for m, _ in tracing.METRICS} - {"trace.overhead_s"}
    mapping = readme_map()
    assert set(mapping) == metrics
    assert all(loads <= set(workloads.WORKLOADS) for loads in mapping.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_mapped_counters_fire(traced, workload):
    silent = [m for m, loads in readme_map().items()
              if workload in loads and not traced[workload][m] > 0]
    assert not silent, f"{workload}: {silent} read 0"


def test_traced_counts_repeat(traced):
    again = _traced("leibniz")
    units = dict(tracing.METRICS)
    for name, value in traced["leibniz"].items():
        if units[name] != "s":
            assert again[name] == value, name


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "run_s", "cpu_s", "peak_rss_mib"]


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = _bench("--workload", "scan", "--seed", str(SEED), "--seconds",
                  "0", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_a_source_tree():
    bare = os.path.join(HERE, "out", "work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "leibniz",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tracer_restores_the_library():
    qarith = importlib.import_module("qsu2.qarith")
    fourier = importlib.import_module("qsu2.fourier")
    before = (qarith.QScalar.__add__, fourier.fourier_transform)
    tracer = tracing.Tracer().install()
    assert fourier.fourier_transform is not before[1]
    tracer.restore()
    assert (qarith.QScalar.__add__, fourier.fourier_transform) == before

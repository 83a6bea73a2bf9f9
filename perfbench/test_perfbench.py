"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a = workloads.input_bytes(workloads.generate(workload, 7))
    b = workloads.input_bytes(workloads.generate(workload, 7))
    c = workloads.input_bytes(workloads.generate(workload, 8))
    assert a == b
    assert a != c


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(tracing.LAYER_METRICS)
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_gate(workload):
    lines = _run(workload, 0)
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in result["metrics"].items():
        assert NAME_RE.fullmatch(name)
        assert m["value"] > 0, name
    for line in lines[:-1]:
        if not line.startswith("#"):
            assert NAME_RE.fullmatch(line.split()[0]), line


def test_traced_smoke_run_reports_every_layer():
    result = json.loads(_run("entail-random", 1)[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    assert result["metrics"]["maxent.iterations"]["value"] == 0
    assert result["metrics"]["entail.phase2_share"]["value"] > 0.5


def test_run_refuses_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.xfail(reason="Frank-Wolfe stops at its iteration cap on this binding "
                          "instance (about 1 in 4000 of the maxent-binding family)")
def test_known_nonconvergence():
    import probarg as pa

    baf = pa.BAF([f"a{i}" for i in range(12)])
    cs = pa.ConstraintSet()
    for names, bound in [("a10 a2 a6", 0.9261), ("a1 a3 a7", 0.989), ("a1 a3 a7", 1.1908),
                         ("a1 a3 a8", 1.049), ("a1 a6 a7", 0.9447), ("a1 a3 a9", 0.862)]:
        cs.add_raw(pa.RawConstraint.of([(1.0, a) for a in names.split()], "<=", bound))
    assert pa.maxent_labelling(cs, baf).converged


@pytest.mark.parametrize("workload", ["entail-random", "chain-large"])
def test_gate_rejects_a_feasible_labelling_that_is_not_the_maximum(workload):
    import dataclasses

    import checks
    import probarg as pa

    inst = workloads.build(pa, workload, workloads.generate(workload, 3)[0])
    out = workloads.run_instance(pa, workload, inst)
    assert checks.check(pa, workload, inst, out) == []
    # the SAT witness is feasible and inside every bound, but not the maximum
    me = out.values["maxent"]
    out.values["maxent"] = dataclasses.replace(me, labelling=out.values["sat"].witness)
    out.values.pop("query")
    assert [op for op, _ in checks.check(pa, workload, inst, out)] == ["maxent"]

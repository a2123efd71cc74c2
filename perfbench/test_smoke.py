"""Smoke test of the benchmark, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload prints every metric BENCHMARK.json names, in both modes;
an operation that raises is counted as failed and the pass still ends;
a wrapped name that no longer exists leaves its layer at zero calls;
without the program's sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in printed


def test_failing_operation_is_counted(tmp_path):
    # demand above the instances' capacity makes every policy raise InfeasibleError
    spec = {"workload": "overload", "seed": 0, "scenarios": [{
        "name": "overload",
        "overrides": {"horizon": 5, "mobility.vehicles": 700, "mobility.p_request": 0.9},
    }]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result = run.run_pass(str(spec_path), str(tmp_path / "pass0"), traced=False)
    assert result["attempted"] == 3
    assert result["failed"] == 3
    assert all("InfeasibleError" in err for _s, _p, err in result["failures"])
    assert result["errors"] == []
    assert (tmp_path / "pass0" / "overload" / "summary.csv").exists()


def test_removed_name_gives_zero_calls(monkeypatch):
    # a wrapped function that a later change removes leaves its layer at zero calls
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import tracing
    from edgefail import experiment
    from edgefail.config import ExperimentConfig

    monkeypatch.setitem(tracing.LAYERS, "solvers.gone", ("edgefail.solvers", "no_such_solver"))
    tracer = tracing.Tracer()
    try:
        tracer.install({})
        experiment.simulate_policy(
            ExperimentConfig.from_sources(overrides={"horizon": 5}), "lb-psvm")
    finally:
        for layer, (module, path) in tracing.LAYERS.items():
            if tracer.originals.get(layer) is not None:
                tracing.patch(module, path, lambda _fn, orig=tracer.originals[layer]: orig)
    totals = tracer.totals()
    assert tracer.originals["solvers.gone"] is None
    assert totals["solvers.gone"]["calls"] == 0
    assert totals["simulation.step"]["calls"] == 5


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

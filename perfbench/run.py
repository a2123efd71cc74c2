"""edgefail benchmark: three policy sweeps timed end to end and per layer.

    python3 perfbench/run.py --workload default|contention|city-trace \\
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs passes of it, each
in a fresh process and one at a time, until S seconds have gone.  With
``--trace 0`` it reports the end-to-end metrics, the median over passes;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
operation is one policy simulated over one scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PASS_TIMEOUT_S = 120
POLICIES = ("lb-psvm", "psvm", "br")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "lbpsvm_units_per_s": "units/s",
    "psvm_units_per_s": "units/s",
    "br_units_per_s": "units/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mobility.generate_s": "s",
    "mobility.ingest_s": "s",
    "mobility.ingest_rows": "count",
    "mobility.requests": "count",
    "mobility.demand_s": "s",
    "mobility.delay_matrix_s": "s",
    "placement.place_s": "s",
    "placement.place_calls": "count",
    "placement.recover_s": "s",
    "placement.recover_calls": "count",
    "placement.reserve_s": "s",
    "solvers.primary_s": "s",
    "solvers.primary_calls": "count",
    "solvers.lbpsvm_build_s": "s",
    "solvers.lbpsvm_solve_s": "s",
    "solvers.lbpsvm_solves": "count",
    "solvers.lbpsvm_candidates": "count",
    "solvers.lbpsvm_solve_us_p50": "us",
    "solvers.lbpsvm_solve_us_tail": "us",
    "solvers.lbpsvm_queue_coords": "count",
    "solvers.psvm_s": "s",
    "solvers.psvm_calls": "count",
    "solvers.splits_used": "count",
    "solvers.split_use_ratio": "ratio",
    "solvers.refresh_all_ms": "ms",
    "simulation.step_s": "s",
    **{f"simulation.{p.replace('-', '')}.{m}": "ms"
       for p in POLICIES for m in ("step_p50_ms", "step_tail_ms", "onset_ms")},
    "simulation.recover_s": "s",
    "metrics.record_s": "s",
    "metrics.service_delay_calls": "count",
    "experiment.write_s": "s",
    "experiment.metrics_csv_bytes": "bytes",
    "bench.trace_overhead_s": "s",
}


class PassError(RuntimeError):
    pass


def run_pass(spec_path: str, out_dir: str, traced: bool) -> dict:
    """One workload pass in a fresh, single-threaded Python process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "workload_pass.py"), spec_path, out_dir,
           "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not end within {PASS_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Medians over untraced passes.

    A policy's rate is its simulated units over the process CPU time of its
    `simulate_policy` calls.  The program is single-threaded and does no
    I/O there, so that is its wall time less the steal time, the time the
    hypervisor ran other guests on the vCPU, which swings from run to run
    on a shared VM.
    """
    out = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for policy in POLICIES:
        rates = []
        for p in passes:
            units = sum(u for pol, _w, _c, u in p["sims"] if pol == policy)
            seconds = sum(c for pol, _w, c, _u in p["sims"] if pol == policy)
            if seconds > 0:
                rates.append(units / seconds)
        out[f"{policy.replace('-', '')}_units_per_s"] = statistics.median(rates) if rates else 0.0
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over traced passes, plus the traced minus untraced wall time."""
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["bench.trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                     - statistics.median(p["wall_s"] for p in untraced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="edgefail benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to about a second per pass (smoke test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgefail", "__init__.py")):
        print(f"error: no edgefail sources under {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = workloads.build_spec(args.workload, args.seed, out_dir, tiny=args.tiny)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(spec_path, os.path.join(out_dir, f"pass{len(passes)}"), traced))
        except PassError as exc:
            print(f"error: {args.workload} pass {len(passes)}: {exc}", file=sys.stderr)
            return 1
        if time.perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
            break

    with open(os.path.join(out_dir, "passes.json"), "w", encoding="utf-8") as fh:
        json.dump(passes, fh, indent=1)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values, units = per_layer([p for p in passes if p["traced"]], untraced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for p in passes:
        for scenario, policy, err in p["failures"]:
            print(f"operation failed: {scenario} {policy}: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"({len(untraced)} untraced) splits_checked={sum(p['splits_checked'] for p in passes)}")
    if args.trace:
        tails = passes[1]["tail_pct"]
        print("tail percentiles: " + ", ".join(f"{k}=p{v:g}" for k, v in sorted(tails.items())))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

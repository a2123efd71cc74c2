"""One pass of a workload in a fresh process: set up, run, check, report.

    python3 perfbench/workload_pass.py SPEC_JSON OUT_DIR --trace 0|1

A pass does what `edgefail run` does for each scenario of the spec:
`experiment.build_requests` once (set-up), then `experiment.run`, which
simulates every policy over that shared stream and writes the artifacts.
The last line of standard output is one JSON object with the pass's
measurements and the failures of its correctness checks.  edgefail is
imported from the `src/` directory next to this one, which `run.py`
puts on PYTHONPATH.
"""

import time

T0 = time.perf_counter()  # set-up and wall time count from here, before `import edgefail`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import arg, observe, patch  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFRESH_REPEATS = 15


class Observer:
    """Counts and state taken from the arguments and results of wrapped calls."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.snapshot = None  # one lb-psvm PreAttack state, for the eager refresh
        self.ingests = []  # (path, dropped, malformed)
        self.requests = 0
        self.solves = []  # (span index, problem, solution)
        self.splits_used = 0
        self.pending = {}  # simulation -> seconds of its current unit before step
        self.onset = set()  # simulations whose current unit began an attack
        self.units = {}  # policy -> {"all": [s], "onset": [s]}

    def hooks(self) -> dict:
        return {
            "mobility.generate": self.on_generate,
            "mobility.ingest": self.on_ingest,
            "solvers.lbpsvm_solve": self.on_solve,
            "simulation.step": self.on_step,
            "simulation.inject": self.on_inject,
            "simulation.recover": self.on_unit_part,
            "simulation.heal": self.on_unit_part,
        }

    def on_generate(self, idx, args, kwargs, result):
        self.requests += sum(len(unit) for unit in result)

    def on_ingest(self, idx, args, kwargs, result):
        self.ingests.append((arg(args, kwargs, 0, "path"), result.dropped, result.malformed))
        self.requests += sum(len(unit) for unit in result.requests_by_unit)

    def on_solve(self, idx, args, kwargs, result):
        self.solves.append((idx, arg(args, kwargs, 0, "problem"), result))

    def on_unit_part(self, idx, args, kwargs, result):
        sim = args[0]
        self.pending[sim] = self.pending.get(sim, 0.0) + self.tracer.duration(idx)

    def on_inject(self, idx, args, kwargs, result):
        self.on_unit_part(idx, args, kwargs, result)
        sim = args[0]
        if not result:
            return
        self.onset.add(sim)
        if sim.policy == "lb-psvm":
            target = arg(args, kwargs, 1, "target")
            stored = getattr(sim.state, "proactive", {})
            self.splits_used += sum(1 for (e, _s), m in stored.items()
                                    if e == target and m is not None)

    def on_step(self, idx, args, kwargs, result):
        sim = args[0]
        t = arg(args, kwargs, 2, "t")
        # the last PreAttack unit before the first scheduled attack
        if self.snapshot is None and sim.policy == "lb-psvm" and t == sim.cfg.attack_every - 1:
            st = sim.state
            self.snapshot = {
                "cfg": sim.cfg, "services": sim.services, "capacity": sim.capacity,
                "placement": st.placement, "primary": st.primary, "delay": st.delay,
                "healthy": st.healthy_ids(),
            }
        if idx is None:
            return
        seconds = self.pending.pop(sim, 0.0) + self.tracer.duration(idx)
        per = self.units.setdefault(sim.policy, {"all": [], "onset": []})
        per["all"].append(seconds)
        if sim in self.onset:
            self.onset.discard(sim)
            per["onset"].append(seconds)


def refresh_all(snap, build, solve, skip):
    """Solve every (node, service) split of one PreAttack state, as the
    lb-psvm policy's per-unit refresh does."""
    cfg, placement, healthy = snap["cfg"], snap["placement"], snap["healthy"]
    out = []
    for e in healthy:
        for s in placement.services_on(e):
            try:
                problem = build(
                    snap["primary"], placement, e, s, snap["delay"], snap["capacity"],
                    snap["services"][s].delay_threshold, k1=cfg.lbpsvm_k1, k2=cfg.lbpsvm_k2,
                    epsilon=cfg.lbpsvm_epsilon, healthy=healthy,
                )
                out.append((problem, solve(problem, max_iters=cfg.solver_max_iters,
                                           kkt_tol=cfg.lbpsvm_kkt_tol)))
            except skip:
                continue
    return out


def layer_metrics(tracer, obs, artifacts, refresh_ms) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, and the tail percentiles used."""
    tot = tracer.totals()

    def self_s(layer):
        return tot[layer]["self_s"]

    rows = 0
    for path, _dropped, _malformed in obs.ingests:
        with open(path, encoding="utf-8") as fh:
            rows += sum(1 for _ in fh) - 1
    solve_us = [tracer.duration(idx) * 1e6 for idx, _p, _s in obs.solves]
    queue_coords = 0
    for _idx, problem, sol in obs.solves:
        kinks = problem.capacity - problem.prior_load
        queue_coords += int(sum(1 for b, k in zip(sol.beta, kinks) if b - k > 1e-9))
    solves = tot["solvers.lbpsvm_solve"]["calls"]
    tails = {"solvers.lbpsvm_solve_us_tail": tracing.tail_percentile(len(solve_us))}
    m = {
        "mobility.generate_s": self_s("mobility.generate"),
        "mobility.ingest_s": self_s("mobility.ingest"),
        "mobility.ingest_rows": rows,
        "mobility.requests": obs.requests,
        "mobility.demand_s": self_s("mobility.demand"),
        "mobility.delay_matrix_s": self_s("mobility.delay_matrix"),
        "placement.place_s": self_s("placement.place"),
        "placement.place_calls": tot["placement.place"]["calls"],
        "placement.recover_s": self_s("placement.recover"),
        "placement.recover_calls": tot["placement.recover"]["calls"],
        "placement.reserve_s": self_s("placement.reserve"),
        "solvers.primary_s": self_s("solvers.primary"),
        "solvers.primary_calls": tot["solvers.primary"]["calls"],
        "solvers.lbpsvm_build_s": self_s("solvers.lbpsvm_build"),
        "solvers.lbpsvm_solve_s": self_s("solvers.lbpsvm_solve"),
        "solvers.lbpsvm_solves": solves,
        "solvers.lbpsvm_candidates": sum(p.n for _i, p, _s in obs.solves),
        "solvers.lbpsvm_solve_us_p50": tracing.percentile(solve_us, 50.0),
        "solvers.lbpsvm_solve_us_tail": tracing.percentile(
            solve_us, tails["solvers.lbpsvm_solve_us_tail"]),
        "solvers.lbpsvm_queue_coords": queue_coords,
        "solvers.psvm_s": self_s("solvers.psvm"),
        "solvers.psvm_calls": tot["solvers.psvm"]["calls"],
        "solvers.splits_used": obs.splits_used,
        "solvers.split_use_ratio": obs.splits_used / solves if solves else 0.0,
        "solvers.refresh_all_ms": refresh_ms,
        "simulation.step_s": self_s("simulation.step"),
        "simulation.recover_s": tot["simulation.recover"]["incl_s"],
        "metrics.record_s": sum(self_s(layer) for layer in (
            "metrics.service_delay", "metrics.edge_load_factor",
            "metrics.jain_fairness", "metrics.evaluate_quality")),
        "metrics.service_delay_calls": tot["metrics.service_delay"]["calls"],
        "experiment.write_s": self_s("experiment.run"),
        "experiment.metrics_csv_bytes": sum(os.path.getsize(a.metrics_path)
                                            for _sc, _cfg, a, _r in artifacts),
    }
    for policy in ("lb-psvm", "psvm", "br"):
        per = obs.units.get(policy, {"all": [], "onset": []})
        key = "simulation." + policy.replace("-", "")
        tails[key + ".step_tail_ms"] = tracing.tail_percentile(len(per["all"]))
        m[key + ".step_p50_ms"] = tracing.percentile(per["all"], 50.0) * 1e3
        m[key + ".step_tail_ms"] = tracing.percentile(
            per["all"], tails[key + ".step_tail_ms"]) * 1e3
        m[key + ".onset_ms"] = tracing.percentile(per["onset"], 50.0) * 1e3
    return m, tails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spec")
    ap.add_argument("out_dir")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    import edgefail
    from edgefail import experiment
    from edgefail.config import ExperimentConfig
    from edgefail.errors import InfeasibleError, NoCandidateError

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(edgefail.__file__).startswith(src + os.sep):
        print(f"edgefail imported from {edgefail.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    obs = Observer(tracer)
    if tracer is not None:
        tracer.install(obs.hooks())
    else:
        patch("edgefail.simulation", "Simulation.step", observe(obs.on_step))
        patch("edgefail.mobility", "ingest_trace", observe(obs.on_ingest))

    # ---- set-up: configs and request streams ----
    scenarios = []
    for sc in spec["scenarios"]:
        cfg = ExperimentConfig.from_sources(overrides=sc["overrides"])
        scenarios.append((sc, cfg, experiment.build_requests(cfg)))
    setup_s = time.perf_counter() - T0

    # ---- run: experiment.run over the stream built above ----
    current = {}
    sims = []  # (policy, wall seconds, cpu seconds, units) per successful simulation
    failures = []  # (scenario, policy, error)

    def timed(fn):
        def simulate(*a, **kw):
            policy = arg(a, kw, 1, "policy")
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                records = fn(*a, **kw)
            except Exception as exc:  # an operation that fails is counted, the pass goes on
                traceback.print_exc()
                failures.append((current["name"], policy, f"{type(exc).__name__}: {exc}"))
                return []
            sims.append((policy, time.perf_counter() - t0, time.process_time() - c0,
                         len(records)))
            return records

        return simulate

    patch("edgefail.experiment", "build_requests", lambda fn: lambda cfg: current["requests"])
    patch("edgefail.experiment", "simulate_policy", timed)

    artifacts = []
    attempted = 0
    for sc, cfg, requests in scenarios:
        current.update(name=sc["name"], requests=requests)
        attempted += len(cfg.policy_list())
        before = len(failures)
        try:
            art = experiment.run(cfg, out=os.path.join(args.out_dir, sc["name"]))
            artifacts.append((sc, cfg, art, requests))
        except Exception as exc:
            traceback.print_exc()
            done = {p for s, p, _e in failures[before:]}
            failures.extend((sc["name"], p, f"run: {type(exc).__name__}: {exc}")
                            for p in cfg.policy_list() if p not in done)
    wall_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- checks, after every timed step ----
    failed_ops = {(s, p) for s, p, _e in failures}
    errors = []
    failover = {}
    for sc, cfg, art, requests in artifacts:
        ok = [p for p in cfg.policy_list() if (sc["name"], p) not in failed_ops]
        own = [checks.service_counts(unit, cfg.services_count) for unit in requests]
        for policy in ok:
            errors += [f"{sc['name']}: {e}" for e in
                       checks.check_records(policy, art.records[policy], own)]
            for r in art.records[policy]:
                if r.failover_active:
                    failover.setdefault(policy, []).append((r.avg_elf, r.fairness))
        header, rows = checks.read_metrics_csv(art.metrics_path)
        onsets = list(range(cfg.attack_every, cfg.horizon + 1, cfg.attack_every))
        errors += [f"{sc['name']}: {e}" for e in checks.check_metrics_csv(
            header, rows, ok, cfg.horizon, cfg.services_count, onsets)]
        errors += [f"{sc['name']}: {e}" for e in
                   checks.check_summary(art.summary_path, header, rows, ok)]
        if "trace_counts" in sc:
            want = sc["trace_counts"]
            got = [(d, m) for p, d, m in obs.ingests if p == cfg.trace_path()]
            if got != [(want["outside"], want["malformed"])]:
                errors.append(f"{sc['name']}: ingest (dropped, malformed) {got} != "
                              f"written ({want['outside']}, {want['malformed']})")
    errors += checks.check_dominance(failover)

    solvers = sys.modules["edgefail.solvers"]
    build = tracer.originals.get("solvers.lbpsvm_build") if tracer else getattr(
        solvers, "build_lb_psvm", None)
    solve = tracer.originals.get("solvers.lbpsvm_solve") if tracer else getattr(
        solvers, "solve_lb_psvm", None)
    refresh_ms = 0.0
    checked = [(p, s) for _i, p, s in obs.solves]
    if obs.snapshot is not None and build is not None and solve is not None:
        skip = (NoCandidateError, InfeasibleError)
        times = []
        for _ in range(REFRESH_REPEATS if tracer else 1):
            t0 = time.perf_counter()
            solved = refresh_all(obs.snapshot, build, solve, skip)
            times.append(time.perf_counter() - t0)
        refresh_ms = statistics.median(times) * 1e3
        checked += solved
    for problem, sol in checked:
        errors += checks.check_split(problem, sol.beta)
        if len(errors) > 20:
            break

    result = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sims": sims,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "splits_checked": len(checked),
    }
    if tracer is not None:
        result["layers"], result["tail_pct"] = layer_metrics(tracer, obs, artifacts, refresh_ms)
        tracer.write(os.path.join(args.out_dir, "spans.csv"), T0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

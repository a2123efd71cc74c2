"""Correctness checks, each made apart from the program or from a property
the method must have.  Every check returns a list of failure messages.
"""

from __future__ import annotations

import csv

SUM_TOL = 1e-9
STATIONARITY_TOL = 1e-6
SUMMARY_RTOL = 1e-6
QUEUE_GUARD = 1e-6  # distance the solver keeps from the 2C pole


def service_counts(requests, num_services: int) -> list[int]:
    """The benchmark's own count of one unit's requests per service."""
    counts = [0] * num_services
    for r in requests:
        counts[r.service] += 1
    return counts


def check_records(policy: str, records, own_counts) -> list[str]:
    """Demand matches the requests passed in; served + unserved = demand; unserved = 0."""
    errors = []
    if len(records) != len(own_counts):
        return [f"{policy}: {len(records)} records for {len(own_counts)} units"]
    for rec, own in zip(records, own_counts):
        demand = [float(x) for x in rec.demand_per_service]
        served = [float(x) for x in rec.served_per_service]
        unserved = [float(x) for x in rec.unserved_per_service]
        if demand != [float(c) for c in own]:
            errors.append(f"{policy} t={rec.time}: demand {demand} != requests passed in {own}")
        gap = max(abs(s + u - d) for s, u, d in zip(served, unserved, demand))
        if gap > SUM_TOL:
            errors.append(f"{policy} t={rec.time}: served + unserved misses demand by {gap:.3g}")
        if any(u != 0.0 for u in unserved):
            errors.append(f"{policy} t={rec.time}: {sum(unserved):g} vehicles unserved")
        if len(errors) >= 5:
            break
    return errors


def read_metrics_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_metrics_csv(header, rows, policies, horizon: int, num_services: int,
                      onsets: list[int]) -> list[str]:
    """One row per policy and unit, attack onsets exactly at the scheduled units."""
    expected = (["t", "state", "policy", "avg_delay_ms"]
                + [f"delay_s{s}_ms" for s in range(num_services)]
                + ["avg_elf_pct", "fairness", "q_value"])
    if header[: len(expected)] != expected:
        return [f"metrics.csv header {header} != {expected}"]
    errors = []
    for policy in policies:
        mine = [r for r in rows if r[2] == policy]
        times = [int(r[0]) for r in mine]
        if times != list(range(1, horizon + 1)):
            errors.append(f"metrics.csv {policy}: {len(times)} rows, not units 1..{horizon}")
            continue
        seen = [int(r[0]) for prev, r in zip([None] + mine[:-1], mine)
                if r[1] == "Attack" and (prev is None or prev[1] != "Attack")]
        if seen != onsets:
            errors.append(f"metrics.csv {policy}: attack onsets {seen} != scheduled {onsets}")
    return errors


def check_summary(summary_path: str, header, rows, policies) -> list[str]:
    """summary.csv equals the means recomputed from metrics.csv."""
    col = {name: i for i, name in enumerate(header)}
    with open(summary_path, newline="", encoding="utf-8") as fh:
        summary = {r[0]: r for r in list(csv.reader(fh))[1:]}
    errors = []
    for policy in policies:
        mine = [r for r in rows if r[2] == policy]
        delay = [float(r[col["avg_delay_ms"]]) for r in mine]
        failover = [r for r in mine if float(r[col["avg_elf_pct"]]) > 0.0]
        want = [
            sum(delay) / len(delay),
            (sum(float(r[col["avg_elf_pct"]]) for r in failover) / len(failover)
             if failover else 0.0),
            (sum(float(r[col["fairness"]]) for r in failover) / len(failover)
             if failover else 1.0),
        ]
        got = summary.get(policy)
        if got is None:
            errors.append(f"summary.csv has no row for {policy}")
            continue
        for name, w, g in zip(("avg_delay_ms", "avg_elf_attack_pct", "mean_fairness"),
                              want, (float(x) for x in got[1:4])):
            if abs(g - w) > SUMMARY_RTOL * max(abs(w), 1e-12):
                errors.append(f"summary.csv {policy} {name}: {g!r} != recomputed {w!r}")
    return errors


def check_dominance(failover_by_policy) -> list[str]:
    """lb-psvm's mean ELF over failover units <= psvm's; its mean fairness >= psvm's.

    ``failover_by_policy`` maps a policy to its (elf, fairness) pairs over
    the failover units of every scenario of the pass.
    """
    lb, ps = failover_by_policy.get("lb-psvm"), failover_by_policy.get("psvm")
    if not lb or not ps:
        return []

    def mean(pairs, i):
        return sum(p[i] for p in pairs) / len(pairs)

    errors = []
    if mean(lb, 0) > mean(ps, 0) + 1e-9:
        errors.append(f"lb-psvm mean ELF {mean(lb, 0):.6g} > psvm {mean(ps, 0):.6g}")
    if mean(lb, 1) < mean(ps, 1) - 1e-12:
        errors.append(f"lb-psvm mean fairness {mean(lb, 1):.6g} < psvm {mean(ps, 1):.6g}")
    return errors


def check_split(problem, beta) -> list[str]:
    """A failover split sums to the affected count, is >= 0, and is stationary.

    Stationarity is recomputed from the problem data: w/b - k1*d - k2*q'(b)
    takes one value over the interior coordinates, those neither at the
    queue kink C - g nor at the guard below the 2C pole.
    """
    C = float(problem.capacity)
    B = float(problem.affected)
    beta = [float(b) for b in beta]
    where = f"split node {problem.source_node} service {problem.service}"
    if any(b < 0.0 for b in beta):
        return [f"{where}: negative beta {beta}"]
    if abs(sum(beta) - B) > SUM_TOL:
        return [f"{where}: sum {sum(beta)!r} != affected {B!r}"]
    if B == 0.0:
        return []
    vals = []
    for b, w, d, g in zip(beta, problem.weights, problem.delay, problem.prior_load):
        kink = C - float(g)
        if abs(b - kink) <= SUM_TOL * max(1.0, C) or b >= 2.0 * C - float(g) - 2 * QUEUE_GUARD:
            continue
        u = float(g) + b - C
        slope = 0.0 if u < 0.0 else 1.0 / (2.0 * (C - u) ** 2)
        vals.append(float(w) / b - problem.k1 * float(d) - problem.k2 * slope)
    if len(vals) >= 2 and max(vals) - min(vals) > STATIONARITY_TOL:
        return [f"{where}: stationarity spread {max(vals) - min(vals):.3g} over {len(vals)} coords"]
    return []

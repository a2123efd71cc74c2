"""Vehicle-to-edge mapping solvers.

Three pieces:

* ``solve_primary_mapping`` -- min-max (bottleneck) assignment of each
  service's demand onto its instances, ties broken by cheapest total
  delay (``fill_cheapest``: instances in ascending delay order).
* ``solve_lb_psvm`` -- the fair failover split.  Minimizes
  ``sum_i [-w_i ln b_i + k1 d_i b_i + k2 q_i(b_i)]`` subject to
  ``sum b_i = affected``, ``b_i >= 0``, where q_i is the M/D/1 overload
  term of node i.  The objective is separable and strictly convex, so we
  bisect the multiplier of the sum constraint with an exact 1-D solve
  per coordinate (closed form below the queue kink, safeguarded Newton
  above it).  A Newton search on 1/sum certifies where the bisection's
  steps are decided, so only the last few evaluate the responses.
* ``oracle_lb_psvm`` -- exhaustive simplex grid search used in tests as
  an independent check of the dual solver.

``solve_psvm`` is the all-to-one baseline that sends every affected
vehicle to the single lowest-delay candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NoCandidateError
from .metrics import QUEUE_GUARD, queue_delay
from .model import DelayModel, PlacementDecision, PrimaryMapping, SecondaryMapping

logger = logging.getLogger(__name__)

# Reported betas are floored here; the shaved mass moves to the largest
# coordinate so the sum constraint stays exact.
BETA_FLOOR = 1e-9


def solve_primary_mapping(
    placement: PlacementDecision,
    demand,
    delay: DelayModel,
    capacity: float,
) -> PrimaryMapping | np.ndarray:
    """Assign each service's demand to its instances, minimizing the
    bottleneck delay.

    The least feasible bottleneck is found by filling instances in
    ascending delay order: the last instance needed sets the bottleneck,
    and cheapest-first filling also minimizes the total delay mass among
    assignments within that bottleneck.

    A (T, S) ``demand`` with a (T, E, S) array of delays in place of the
    ``DelayModel`` solves T units in one pass and returns their (T, E, S)
    loads, bit for bit the gammas of T separate calls.

    Raises:
        InfeasibleError: when some service's demand exceeds the combined
            capacity of its instances (names the service, of the first
            such unit in a batch).
    """
    demand = np.asarray(demand, dtype=float)
    S = placement.num_services
    if demand.ndim not in (1, 2) or demand.shape[-1] != S:
        raise InfeasibleError(f"demand vector has length {demand.shape}, expected {S}")
    short = np.argwhere(over_capacity(placement, demand, capacity))
    if len(short):
        s = int(short[0][-1])
        n = int(placement.instance_counts()[s])
        raise InfeasibleError(
            f"service {s}: demand {float(demand[tuple(short[0])]):.6g} exceeds capacity "
            f"{capacity * n:.6g} across {n} instance(s)"
        )
    single = demand.ndim == 1
    d = delay.d[None] if single else np.asarray(delay, dtype=float)
    loads = _fill_columns(placement.x > 0, np.atleast_2d(demand), d, capacity)[0]
    return PrimaryMapping(gamma=loads[0]) if single else loads


def over_capacity(placement: PlacementDecision, demand, capacity: float) -> np.ndarray:
    """Mask, of the shape of ``demand`` ((S,) or (T, S)), of the services
    whose demand exceeds the combined capacity of their instances."""
    return capacity * placement.instance_counts() + 1e-9 < demand


def fill_cheapest(hosts, demand: float, d_col, capacity: float) -> tuple[np.ndarray, float]:
    """Fill ``hosts`` up to ``capacity`` each in ascending delay ``d_col``
    (ties to the lower node index).

    Returns the per-node loads, of the length of ``d_col``, and the demand
    (>= 0) left over once every host is full.
    """
    d_col = np.asarray(d_col, dtype=float)
    mask = np.zeros((len(d_col), 1), dtype=bool)
    mask[np.asarray(hosts, dtype=np.intp), 0] = True
    loads, left = _fill_columns(
        mask, np.array([[demand]], dtype=float), d_col[None, :, None], capacity
    )
    return loads[0, :, 0], float(left[0, 0])


def _fill_columns(hosts, demand, d, capacity: float) -> tuple[np.ndarray, np.ndarray]:
    """``fill_cheapest`` of every column of T units under one placement:
    (E, S) host mask, (T, E, S) delays and (T, S) demand.  Rank r of a
    column takes min(remaining, C) until nothing remains; non-hosts rank
    last.  Returns the (T, E, S) loads and the (T, S) leftover."""
    counts = hosts.sum(axis=0)
    order = np.argsort(np.where(hosts, d, np.inf), axis=-2, kind="stable")
    rounds = int(counts.max(initial=0))
    takes = np.zeros((len(demand), rounds, hosts.shape[1]))
    remaining = demand.copy()
    for r in range(rounds):
        live = (r < counts) & (remaining > 0)
        takes[:, r] = np.where(live, np.minimum(remaining, capacity), 0.0)
        remaining -= takes[:, r]
    loads = np.zeros(order.shape)
    units = np.arange(len(order))[:, None, None]
    loads[units, order[:, :rounds], np.arange(hosts.shape[1])] = takes
    return loads, remaining


def failover_candidates(
    placement: PlacementDecision,
    attacked: int,
    service: int,
    healthy=None,
) -> list[int]:
    """Healthy nodes (other than the attacked one) hosting the service."""
    return [
        e for e in placement.nodes_hosting(service)
        if e != attacked and (healthy is None or e in healthy)
    ]


@dataclass(frozen=True)
class LbPsvmProblem:
    """One failover split instance for a single (attacked node, service)."""

    weights: np.ndarray  # w_i in (0, 1]
    prior_load: np.ndarray  # primary load at each candidate
    delay: np.ndarray  # ms, per candidate
    capacity: float
    affected: float  # vehicles to re-home
    delay_cap: float  # ms threshold of the service
    k1: float
    k2: float
    epsilon: float
    candidates: tuple[int, ...] = ()
    service: int = -1
    source_node: int = -1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        g = np.asarray(self.prior_load, dtype=float)
        d = np.asarray(self.delay, dtype=float)
        n = w.shape[0]
        if n < 1:
            raise NoCandidateError("need at least one candidate node")
        if g.shape != (n,) or d.shape != (n,):
            raise ValueError("weights, prior_load and delay must have equal length")
        if (w <= 0).any() or (w > 1 + 1e-12).any():
            raise ValueError("weights must lie in (0, 1]")
        if (g < 0).any() or (d < 0).any():
            raise ValueError("prior loads and delays must be >= 0")
        if self.affected < 0:
            raise ValueError("affected must be >= 0")
        if self.capacity <= 0 or self.delay_cap <= 0 or self.epsilon <= 0:
            raise ValueError("capacity, delay_cap and epsilon must be > 0")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("k1 and k2 must be >= 0")
        for name, arr in (("weights", w), ("prior_load", g), ("delay", d)):
            arr = np.asarray(arr, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LbPsvmSolution:
    """Solver output: split vector plus diagnostics; the objective and
    delay diagnostics are computed from ``problem`` and ``beta`` when read."""

    beta: np.ndarray
    problem: LbPsvmProblem
    mu: float = math.nan  # multiplier of the sum constraint
    residual: float = math.nan  # spread of the stationarity quantity over interior coords
    saturated: bool = False  # some coordinate hit the queue-domain guard
    branches: tuple[str, ...] = ()

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "beta", b)

    @property
    def objective(self) -> float:
        """``lb_objective`` at beta; 0 when nothing is re-homed."""
        return lb_objective(self.problem, self.beta) if self.problem.affected else 0.0

    @property
    def delay_attained(self) -> float:
        """Propagation mass plus raw queue terms at beta; 0 when nothing is re-homed."""
        total = 0.0
        if not self.problem.affected:
            return total
        for b, d, g in zip(self.beta.tolist(), self.problem.delay, self.problem.prior_load):
            total += d * b
            total += queue_delay(g + b, self.problem.capacity)
        return total

    @property
    def feasible_delay(self) -> bool:
        """Whether ``delay_attained`` meets the service cap."""
        return bool(self.delay_attained <= self.problem.delay_cap + 1e-12)

    def to_secondary(self) -> SecondaryMapping:
        return SecondaryMapping(
            source_node=self.problem.source_node,
            service=self.problem.service,
            candidates=self.problem.candidates,
            beta=self.beta,
            affected=float(self.beta.sum()),
        )


def build_lb_psvm(
    gamma: PrimaryMapping,
    placement: PlacementDecision,
    attacked: int,
    service: int,
    delay: DelayModel,
    capacity: float,
    delay_cap: float,
    k1: float | None = None,
    k2: float | None = None,
    epsilon: float = 1e-3,
    healthy=None,
) -> LbPsvmProblem:
    """Assemble the failover split problem for one attacked node/service.

    Weights follow w_i = 1 - (load_i - epsilon) / C, clipped into (0, 1]:
    the offset keeps fully loaded candidates at a small positive weight
    instead of a zero multiplier.  ``k1``/``k2`` default to 1/delay_cap,
    which puts the delay terms on the same scale as the log utility.

    Raises:
        NoCandidateError: when no healthy node hosts the service.
    """
    candidates = failover_candidates(placement, attacked, service, healthy)
    # a candidate already past the queue-model domain cannot take load
    candidates = [e for e in candidates if gamma.gamma[e, service] < 2 * capacity - 2 * QUEUE_GUARD]
    if not candidates:
        raise NoCandidateError(
            f"service {service}: no healthy candidate besides node {attacked}"
        )
    loads = np.array([gamma.gamma[e, service] for e in candidates])
    w = np.minimum(1.0, 1.0 - (loads - epsilon) / capacity)
    d = np.array([delay.d[e, service] for e in candidates])
    if k1 is None:
        k1 = 1.0 / delay_cap
    if k2 is None:
        k2 = 1.0 / delay_cap
    return LbPsvmProblem(
        weights=w,
        prior_load=loads,
        delay=d,
        capacity=capacity,
        affected=float(gamma.gamma[attacked, service]),
        delay_cap=delay_cap,
        k1=k1,
        k2=k2,
        epsilon=epsilon,
        candidates=tuple(candidates),
        service=service,
        source_node=attacked,
    )


def queue_term_slope(load: float, extra: float, capacity: float) -> float:
    """Right-derivative of the queue term w.r.t. the added load."""
    u = load + extra - capacity
    if u < 0:
        return 0.0
    v = capacity - u
    return 1.0 / (2.0 * v * v)


def lb_objective(problem: LbPsvmProblem, beta) -> float:
    """Objective value sum(-w ln b + k1 d b + k2 q(b)) at a given split."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for i in range(problem.n):
        b = float(beta[i])
        if b <= 0:
            return math.inf
        total += -problem.weights[i] * math.log(b) + problem.k1 * problem.delay[i] * b
        total += problem.k2 * queue_delay(problem.prior_load[i] + b, problem.capacity)
    return total


def _coord_solve(mu, w, d, g, C, k1, k2, bmax):
    """Solve w/b - k1 d - k2 q'(b) = mu for one coordinate.

    Returns (beta, branch) with branch in {"interior", "kink", "clamped"}.
    The stationarity function is strictly decreasing in b, piecewise
    smooth with a kink where the instance starts queueing (b = C - g).
    """
    kink = C - g
    if kink > 0.0:
        g_minus = w / kink - k1 * d
        if mu >= g_minus:
            # no-queue region: closed form, lands at or below the kink
            return w / (mu + k1 * d), "interior"
        if mu >= g_minus - k2 / (2.0 * C * C):
            return kink, "kink"
        lo = kink
    else:
        lo = 0.0
    # queue region (b > kink): check the guard first
    v_hi = 2.0 * C - g - bmax  # = guard by construction
    f_hi = w / bmax - k1 * d - k2 / (2.0 * v_hi * v_hi) - mu
    if f_hi >= 0.0:
        return bmax, "clamped"
    hi = bmax
    x = 0.5 * (lo + hi)
    for _ in range(100):
        v = 2.0 * C - g - x
        f = w / x - k1 * d - k2 / (2.0 * v * v) - mu
        if f > 0.0:
            lo = x
        else:
            hi = x
        fp = -w / (x * x) - k2 / (v * v * v)
        step = f / fp
        xn = x - step
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-15 * max(1.0, x):
            x = xn
            break
        x = xn
    return x, "interior"


def _certify(total, B: float, margin: float, mu: float, max_iters: int) -> tuple[float, float]:
    """Multipliers ``(ca, cb)`` at which the computed response sum lies
    above ``B + margin`` and below ``B - margin``; nan when none was
    found, so that no mu, not even an infinite one, compares past it.

    ``total(mu)`` returns the response sum and its slope in mu.  The
    search is Newton on ``1/sum``, close to linear while the coordinates
    stay below their queue kinks.  It stays inside the points known so
    far: a step is at most ``max(1, |mu|)`` while one side is open, and
    a bisection once both are known and Newton does not halve the step
    before last.  When it lands within ``margin`` of ``B`` it probes
    where the sum should have moved ``2 * margin`` on each side, to pull
    ``ca`` and ``cb`` in.  At most ``max_iters`` points, plus the probes.
    """
    ca, cb = -math.inf, math.inf
    before = latest = math.inf  # the last two step lengths
    for _ in range(max_iters):
        if not math.isfinite(mu):
            break
        s, ds = total(mu)
        if s > B + margin:
            ca = mu
        elif s < B - margin:
            cb = mu
        else:
            if ds < 0.0:
                h = 2.0 * margin / -ds
                if total(mu - h)[0] > B + margin:
                    ca = max(ca, mu - h)
                if total(mu + h)[0] < B - margin:
                    cb = min(cb, mu + h)
            break
        nxt = mu + s * (B - s) / (B * ds) if ds < 0.0 else math.nan
        if math.isinf(ca) or math.isinf(cb):
            reach = max(1.0, abs(mu))
            if not (ca < nxt < cb and abs(nxt - mu) <= reach):
                nxt = mu + math.copysign(reach, s - B)
        elif not (ca < nxt < cb and abs(nxt - mu) <= 0.5 * before):
            # outside, or not halving the step before last: bisect
            nxt = 0.5 * (ca + cb)
            if not ca < nxt < cb:
                break  # no float left between the two
        before, latest = latest, abs(nxt - mu)
        mu = nxt
    return (ca if ca > -math.inf else math.nan), (cb if cb < math.inf else math.nan)


def solve_lb_psvm(
    problem: LbPsvmProblem,
    max_iters: int = 200,
    kkt_tol: float = 1e-8,
) -> LbPsvmSolution:
    """Minimize the fair failover objective under the sum constraint.

    Dual bisection on the multiplier mu: each candidate's best response
    beta_i(mu) is solved exactly per coordinate, and mu is bracketed and
    bisected until the responses sum to the affected count (within
    ``sum_tol``).  The responses fall as mu grows, so a Newton search on
    1/sum first certifies multipliers ``ca`` and ``cb`` whose sums lie
    more than ``2 * sum_tol`` above and below the target; the bracket and
    bisection then run as before but evaluate the responses only between
    the two, taking every step outside it without an evaluation.  Each
    skipped step makes the decision an evaluation would have made, so mu
    and beta are bit for bit those of the plain bisection, in about 8
    evaluations instead of about 44.  ``max_iters`` caps the bisection
    and the Newton search.  The stationarity spread of the result is
    checked against ``kkt_tol``, and a split that misses the affected
    count by more than ``sum_tol`` is logged.  The delay cap is not
    enforced as a hard constraint; ``feasible_delay`` reports whether the
    optimum meets it.

    Raises:
        InfeasibleError: when the candidates cannot absorb the affected
            load inside the queue-model domain (no strict interior), or
            when no multiplier brings their responses to it.
    """
    n = problem.n
    B = float(problem.affected)
    w = [float(x) for x in problem.weights]
    d = [float(x) for x in problem.delay]
    g = [float(x) for x in problem.prior_load]
    C = float(problem.capacity)
    k1, k2 = float(problem.k1), float(problem.k2)

    if B == 0.0:
        return LbPsvmSolution(np.zeros(n), problem, residual=0.0, branches=("zero",) * n)

    bmax = [2.0 * C - gi - QUEUE_GUARD for gi in g]
    if sum(bmax) <= B:
        raise InfeasibleError(
            f"affected load {B:.6g} leaves no strict interior "
            f"(candidates absorb at most {sum(bmax):.6g})"
        )

    def responses(mu):
        betas = []
        branches = []
        for i in range(n):
            b, br = _coord_solve(mu, w[i], d[i], g[i], C, k1, k2, bmax[i])
            betas.append(b)
            branches.append(br)
        return betas, branches

    def total(mu):
        # response sum and its slope: -b^2/w below the kink, the inverse
        # of the stationarity slope above it, 0 at the kink or the guard
        betas, branches = responses(mu)
        slope = 0.0
        for b, br, wi, gi in zip(betas, branches, w, g):
            if br == "interior":
                v = 2.0 * C - gi - b
                slope -= b * b / wi if gi + b <= C else 1.0 / (wi / (b * b) + k2 / (v * v * v))
        return sum(betas), slope

    sum_tol = max(1e-11, 1e-12 * B)
    # the margin absorbs responses that are monotone in mu only up to
    # their last bits, so every sum beyond ca or cb is off by > sum_tol
    ca, cb = _certify(total, B, 2.0 * sum_tol, sum(w) / B, max_iters)
    last = (math.nan, None)  # the last evaluated mu and its responses

    def gap(mu):
        # sum(responses(mu)) - B, or its certified sign outside (ca, cb)
        nonlocal last
        if mu <= ca:
            return math.inf
        if mu >= cb:
            return -math.inf
        last = (mu, responses(mu))
        return sum(last[1][0]) - B

    # bracket the multiplier: responses() shrinks as mu grows
    mu_lo = mu_hi = sum(w) / B
    step = max(1.0, abs(mu_lo))
    while gap(mu_hi) > 0:
        if mu_hi == math.inf:
            raise InfeasibleError(f"no multiplier brings the split down to {B:.6g} affected")
        mu_hi += step
        step *= 2.0
    step = max(1.0, abs(mu_hi))
    while gap(mu_lo) < 0:
        if mu_lo == -math.inf:
            raise InfeasibleError(f"no multiplier brings the split up to {B:.6g} affected")
        mu_lo -= step
        step *= 2.0

    mu = 0.5 * (mu_lo + mu_hi)
    for _ in range(max_iters):
        diff = gap(mu)
        if abs(diff) <= sum_tol:
            break
        if diff > 0:
            mu_lo = mu
        else:
            mu_hi = mu
        nxt = 0.5 * (mu_lo + mu_hi)
        if nxt == mu_lo or nxt == mu_hi:
            break
        mu = nxt
    betas, branches = last[1] if last[0] == mu else responses(mu)
    if abs(sum(betas) - B) > sum_tol:
        logger.warning(
            "split sums to %.12g, %.3g from the affected load (n=%d, max_iters=%d)",
            sum(betas), sum(betas) - B, n, max_iters,
        )

    beta = np.array(betas)
    # reporting floor; shaved mass moves to the largest coordinate
    low = beta < BETA_FLOOR
    if low.any() and B > 10 * n * BETA_FLOOR:
        deficit = float((BETA_FLOOR - beta[low]).sum())
        beta[low] = BETA_FLOOR
        beta[int(np.argmax(beta))] -= deficit

    interior = [i for i in range(n) if branches[i] == "interior"]
    if len(interior) >= 2:
        vals = [
            w[i] / beta[i] - k1 * d[i] - k2 * queue_term_slope(g[i], float(beta[i]), C)
            for i in interior
        ]
        residual = max(vals) - min(vals)
    else:
        residual = 0.0
    if residual > kkt_tol:
        logger.warning(
            "stationarity spread %.3g exceeds tolerance %.3g (n=%d, affected=%.4g)",
            residual, kkt_tol, n, B,
        )

    return LbPsvmSolution(beta, problem, mu=mu, residual=float(residual),
                          saturated="clamped" in branches, branches=tuple(branches))


def solve_psvm(
    gamma: PrimaryMapping,
    placement: PlacementDecision,
    attacked: int,
    service: int,
    delay: DelayModel,
    healthy=None,
) -> SecondaryMapping:
    """All-to-one baseline: every affected vehicle goes to the single
    lowest-delay healthy candidate (ties to the lowest node index)."""
    candidates = failover_candidates(placement, attacked, service, healthy)
    if not candidates:
        raise NoCandidateError(
            f"service {service}: no healthy candidate besides node {attacked}"
        )
    target = delay.nearest(candidates, service)
    beta = np.zeros(len(candidates))
    affected = float(gamma.gamma[attacked, service])
    beta[candidates.index(target)] = affected
    return SecondaryMapping(
        source_node=attacked,
        service=service,
        candidates=tuple(candidates),
        beta=beta,
        affected=affected,
    )


def oracle_lb_psvm(problem: LbPsvmProblem, step: float) -> LbPsvmSolution:
    """Exhaustive grid search over the split simplex (test oracle).

    Enumerates all splits with coordinates on a uniform grid of spacing
    ~``step`` summing exactly to the affected count and returns the best.
    Independent of the dual solver; only meant for small instances.

    Raises:
        ValueError: for n > 4 or grids too large to enumerate.
    """
    n = problem.n
    if n > 4:
        raise ValueError("oracle limited to n <= 4 candidates")
    if step <= 0:
        raise ValueError("step must be > 0")
    B = float(problem.affected)
    if B == 0.0:
        return LbPsvmSolution(np.zeros(n), problem)
    m = max(1, int(round(B / step)))
    if (n == 3 and m > 40_000) or (n == 4 and m > 400):
        raise ValueError(f"grid of {m} steps too large for n={n}")
    h = B / m
    vals = np.arange(m + 1) * h
    vals[-1] = B

    C = problem.capacity
    tables = []
    for i in range(n):
        u = problem.prior_load[i] + vals - C
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(u > 0, u / (2.0 * C * (C - u)), 0.0)
            phi = (
                -problem.weights[i] * np.log(vals)
                + problem.k1 * problem.delay[i] * vals
                + problem.k2 * q
            )
        phi[0] = np.inf
        phi[u >= C - QUEUE_GUARD] = np.inf  # outside the queue-model domain
        tables.append(phi)

    best_val = np.inf
    best = None
    if n == 1:
        best_val = float(tables[0][m])
        best = (m,)
    elif n == 2:
        tot = tables[0] + tables[1][::-1]
        k = int(np.argmin(tot))
        best_val = float(tot[k])
        best = (k, m - k)
    elif n == 3:
        for k0 in range(m + 1):
            rem = m - k0
            tot = tables[1][: rem + 1] + tables[2][rem::-1]
            k1_ = int(np.argmin(tot))
            v = float(tables[0][k0] + tot[k1_])
            if v < best_val:
                best_val = v
                best = (k0, k1_, rem - k1_)
    else:
        for k0 in range(m + 1):
            for k1_ in range(m - k0 + 1):
                rem = m - k0 - k1_
                tot = tables[2][: rem + 1] + tables[3][rem::-1]
                k2_ = int(np.argmin(tot))
                v = float(tables[0][k0] + tables[1][k1_] + tot[k2_])
                if v < best_val:
                    best_val = v
                    best = (k0, k1_, k2_, rem - k2_)
    if best is None or not np.isfinite(best_val):
        raise InfeasibleError("no feasible grid point")
    return LbPsvmSolution(np.array([vals[k] for k in best]), problem)

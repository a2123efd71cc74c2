import itertools
import logging
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgefail import solvers
from edgefail.errors import InfeasibleError, NoCandidateError
from edgefail.metrics import QUEUE_GUARD
from edgefail.model import DelayModel, PlacementDecision, PrimaryMapping
from edgefail.solvers import (
    BETA_FLOOR,
    LbPsvmProblem,
    LbPsvmSolution,
    build_lb_psvm,
    fill_cheapest,
    lb_objective,
    oracle_lb_psvm,
    queue_term_slope,
    solve_lb_psvm,
    solve_primary_mapping,
    solve_psvm,
)

CAP = 30.0


def single_service(delays, placement=None):
    E = len(delays)
    x = placement if placement is not None else np.ones((E, 1), dtype=int)
    return PlacementDecision(x=np.asarray(x).reshape(E, 1)), DelayModel(
        d=np.asarray(delays, dtype=float).reshape(E, 1)
    )


def fig_example():
    """Three instances loaded (25, 22, 18); node 0 under attack."""
    p, d = single_service([5.0, 6.0, 7.0])
    gamma = PrimaryMapping(gamma=np.array([[25.0], [22.0], [18.0]]))
    return p, d, gamma


def bottleneck(gamma, delay):
    """Largest delay of service 0 over the nodes that carry its load."""
    used = gamma.gamma[:, 0] > 0
    return float(delay.d[used, 0].max())


def reference_fill(hosts, demand, d_col, capacity):
    """The per-host loop fill_cheapest must match bit for bit."""
    loads = np.zeros(len(d_col))
    remaining = demand
    for e in sorted(hosts, key=lambda e: (d_col[e], e)):
        if remaining <= 0:
            break
        take = min(remaining, capacity)
        loads[e] = take
        remaining -= take
    return loads, remaining


def reference_primary(placement, demand, delay, capacity):
    """The per-service loop solve_primary_mapping must match bit for bit."""
    E, S = placement.x.shape
    gamma = np.zeros((E, S))
    for s in range(S):
        lam = float(demand[s])
        hosts = placement.nodes_hosting(s)
        if capacity * len(hosts) + 1e-9 < lam:
            raise InfeasibleError(
                f"service {s}: demand {lam:.6g} exceeds capacity "
                f"{capacity * len(hosts):.6g} across {len(hosts)} instance(s)"
            )
        gamma[:, s] = reference_fill(hosts, lam, delay.d[:, s], capacity)[0]
    return gamma


def brute_force_bottleneck(delays, lam, cap, step=1):
    """Minimal feasible bottleneck over integer-granularity assignments."""
    E = len(delays)
    best = math.inf
    loads = [range(0, int(cap) + 1, step)] * E
    for combo in itertools.product(*loads):
        if sum(combo) != lam:
            continue
        used = [delays[e] for e in range(E) if combo[e] > 0]
        if not used:
            continue
        best = min(best, max(used))
    return best


class TestPrimaryMapping:
    def test_single_instance_suffices(self):
        p, d = single_service([5.0, 10.0])
        g = solve_primary_mapping(p, [20.0], d, CAP)
        assert g.gamma[:, 0].tolist() == [20.0, 0.0]
        assert bottleneck(g, d) == 5.0

    def test_forced_overflow(self):
        p, d = single_service([5.0, 10.0])
        g = solve_primary_mapping(p, [40.0], d, CAP)
        assert g.gamma[:, 0].tolist() == [30.0, 10.0]
        assert bottleneck(g, d) == 10.0

    def test_infeasible_names_service(self):
        p, d = single_service([5.0, 10.0])
        with pytest.raises(InfeasibleError, match="service 0"):
            solve_primary_mapping(p, [61.0], d, CAP)

    def test_respects_placement_mask(self):
        p, d = single_service([5.0, 10.0], placement=[0, 1])
        g = solve_primary_mapping(p, [10.0], d, CAP)
        assert g.gamma[:, 0].tolist() == [0.0, 10.0]

    def test_constraints_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            E = int(rng.integers(2, 6))
            x = np.zeros((E, 2), dtype=int)
            for s in range(2):
                hosts = rng.choice(E, size=int(rng.integers(1, E + 1)), replace=False)
                x[hosts, s] = 1
            d = DelayModel(d=rng.uniform(1, 40, (E, 2)))
            lam = np.array([min(rng.uniform(0, 60), CAP * x[:, s].sum()) for s in range(2)])
            g = solve_primary_mapping(PlacementDecision(x=x), lam, d, CAP)
            assert np.abs(g.gamma.sum(axis=0) - lam).max() <= 1e-9
            assert (g.gamma <= CAP * x + 1e-12).all()
            assert (g.gamma >= 0).all()

    def test_bottleneck_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            E = int(rng.integers(2, 5))
            delays = sorted(float(x) for x in rng.uniform(1, 30, E))
            rng.shuffle(delays)
            lam = int(rng.integers(1, min(60, 30 * E) + 1))
            p, d = single_service(delays)
            g = solve_primary_mapping(p, [float(lam)], d, CAP)
            got = bottleneck(g, d)
            want = brute_force_bottleneck(delays, lam, CAP)
            assert got == pytest.approx(want, abs=1e-12)

    def test_cheapest_fill_within_bottleneck(self):
        # ties in the bottleneck resolved by minimal total delay mass
        p, d = single_service([5.0, 7.0, 10.0])
        g = solve_primary_mapping(p, [50.0], d, CAP)
        assert g.gamma[:, 0].tolist() == [30.0, 20.0, 0.0]


class TestSameBitsAsLoops:
    @settings(max_examples=200, deadline=None)
    @given(E=st.integers(8, 14), S=st.integers(1, 6), T=st.integers(1, 5),
           capacity=st.sampled_from([30.7, 30.0, 7.3]), seed=st.integers(0, 2**32 - 1))
    def test_primary_mapping(self, E, S, T, capacity, seed):
        # fractional demand and capacity, delays drawn from few values so
        # that hosts tie, some services loaded past their instances; T units
        # under one placement solved in one call equal T separate calls
        rng = np.random.default_rng(seed)
        x = (rng.random((E, S)) < rng.uniform(0.2, 1.0)).astype(int)
        plc = PlacementDecision(x=x)
        room = capacity * x.sum(axis=0)
        delays, demands, fits, wants, first_error = [], [], [], [], None
        for _ in range(T):
            d = DelayModel(d=rng.choice([3.0, 4.5, 4.5, 7.25, 9.0], size=(E, S))
                           + rng.choice([0.0, 0.1], size=(E, S)))
            demand = np.round(rng.uniform(0.0, 1.0, S) * room * 1.05, 3)
            delays.append(d.d)
            demands.append(demand)
            try:
                want = reference_primary(plc, demand, d, capacity)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as got:
                    solve_primary_mapping(plc, demand, d, capacity)
                assert str(got.value) == str(exc)
                first_error = first_error or str(exc)
                demand = np.minimum(demand, room)
                want = reference_primary(plc, demand, d, capacity)
            fits.append(demand)
            wants.append(want)
            got = solve_primary_mapping(plc, demand, d, capacity)
            assert np.array_equal(got.gamma, want)
            lams = np.array([demand, demand * 1.5 + 1.0, np.zeros(S)])
            loads, left = fill_cheapest(x > 0, lams, np.broadcast_to(d.d, (3, E, S)), capacity)
            for (k, lam), s in itertools.product(enumerate(lams), range(S)):
                hosts = [int(e) for e in np.flatnonzero(x[:, s])]
                ref_loads, ref_left = reference_fill(hosts, float(lam[s]), d.d[:, s], capacity)
                assert np.array_equal(loads[k, :, s], ref_loads) and left[k, s] == ref_left
        batch = solve_primary_mapping(plc, np.array(fits), np.array(delays), capacity)
        assert batch.shape == (T, E, S)
        assert np.array_equal(batch, np.array(wants))
        if first_error is not None:
            # a batch names the first overloaded unit's service, as its own call does
            with pytest.raises(InfeasibleError) as got:
                solve_primary_mapping(plc, np.array(demands), np.array(delays), capacity)
            assert str(got.value) == first_error


class TestFillCheapest:
    @given(data=st.data(), E=st.integers(1, 6), S=st.integers(1, 3), T=st.integers(1, 3),
           capacity=st.floats(1.0, 40.0))
    def test_fills_cheapest_hosts_first(self, data, E, S, T, capacity):
        # several units and columns in one call, each column as its own loop
        def draw(elements, *shape):
            n = math.prod(shape)
            return np.array(data.draw(st.lists(elements, min_size=n, max_size=n))).reshape(shape)

        d = draw(st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 50.0)), T, E, S)
        hosts = draw(st.booleans(), E, S)
        demand = draw(st.floats(0.0, 200.0), T, S)
        loads, left = fill_cheapest(hosts, demand, d, capacity)
        assert loads.shape == (T, E, S) and left.shape == (T, S)
        for t, s in itertools.product(range(T), range(S)):
            col, lam = [int(e) for e in np.flatnonzero(hosts[:, s])], float(demand[t, s])
            ref_loads, ref_left = reference_fill(col, lam, d[t, :, s], capacity)
            assert np.array_equal(loads[t, :, s], ref_loads) and left[t, s] == ref_left
            tol = 1e-9 * max(1.0, lam)
            assert float(loads[t, :, s].sum()) + left[t, s] == pytest.approx(lam, abs=tol)
            assert left[t, s] == pytest.approx(max(0.0, lam - capacity * len(col)), abs=tol)
            assert (loads >= 0).all() and (loads <= capacity).all()
            assert not loads[t, ~hosts[:, s], s].any()
            order = sorted(col, key=lambda e: (d[t, e, s], e))
            for i, e in enumerate(order):
                if loads[t, e, s] > 0:
                    assert all(loads[t, c, s] == capacity for c in order[:i])


class TestBuildProblem:
    def test_worked_example_weights(self):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, k1=0.0, k2=0.0, epsilon=1e-9)
        assert prob.candidates == (1, 2)
        assert prob.affected == 25.0
        assert prob.weights == pytest.approx([8.0 / 30.0, 12.0 / 30.0], abs=1e-9)

    def test_full_candidate_keeps_positive_weight(self):
        p, d = single_service([5.0, 6.0])
        gamma = PrimaryMapping(gamma=np.array([[10.0], [30.0]]))
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, epsilon=1e-3)
        assert prob.weights[0] == pytest.approx(1e-3 / 30.0)
        assert prob.weights[0] > 0

    def test_idle_candidate_weight_clipped_to_one(self):
        p, d = single_service([5.0, 6.0])
        gamma = PrimaryMapping(gamma=np.array([[10.0], [0.0]]))
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, epsilon=1e-3)
        assert prob.weights[0] == 1.0

    def test_no_candidate_raises(self):
        p, d = single_service([5.0])
        gamma = PrimaryMapping(gamma=np.array([[10.0]]))
        with pytest.raises(NoCandidateError):
            build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0)

    def test_unhealthy_candidates_excluded(self):
        p, d, gamma = fig_example()
        with pytest.raises(NoCandidateError):
            build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, healthy=[0])

    def test_scaling_defaults_to_inverse_delay_cap(self):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 80.0)
        assert prob.k1 == pytest.approx(1.0 / 80.0)
        assert prob.k2 == pytest.approx(1.0 / 80.0)

    def test_gathers_each_candidates_load_and_delay(self):
        # loads past the queue-model domain drop their candidate; the rest
        # keep node order and the values a per-candidate read gives
        rng = np.random.default_rng(11)
        E, S = 9, 4
        for _ in range(50):
            x = (rng.random((E, S)) < 0.6).astype(np.int64)
            g = rng.uniform(0.0, CAP, (E, S))
            g[rng.random((E, S)) < 0.2] = 2 * CAP - 2 * QUEUE_GUARD
            gamma, delay = PrimaryMapping(gamma=g * x), DelayModel(d=rng.uniform(0, 40, (E, S)))
            attacked, s = int(rng.integers(E)), int(rng.integers(S))
            healthy = set(rng.permutation(E)[:7].tolist())
            want = [e for e in np.flatnonzero(x[:, s]).tolist() if e != attacked and e in healthy
                    and gamma.gamma[e, s] < 2 * CAP - 2 * QUEUE_GUARD]
            if not want:
                with pytest.raises(NoCandidateError):
                    build_lb_psvm(gamma, PlacementDecision(x=x), attacked, s, delay, CAP, 50.0,
                                  healthy=healthy)
                continue
            prob = build_lb_psvm(gamma, PlacementDecision(x=x), attacked, s, delay, CAP, 50.0,
                                 healthy=healthy)
            loads = np.array([gamma.gamma[e, s] for e in want])
            assert prob.candidates == tuple(want)
            assert prob.prior_load.tobytes() == loads.tobytes()
            assert prob.delay.tobytes() == np.array([delay.d[e, s] for e in want]).tobytes()
            w = np.minimum(1.0, 1.0 - (loads - 1e-3) / CAP)
            assert prob.weights.tobytes() == w.tobytes()


class TestProblemChecks:
    """Each check of ``LbPsvmProblem`` raises its class and message."""

    GOOD = dict(weights=[0.5, 1.0], prior_load=[0.0, 3.0], delay=[1.0, 0.0], capacity=CAP,
                affected=2.0, delay_cap=50.0, k1=0.1, k2=0.1, epsilon=1e-3)

    @pytest.mark.parametrize("change, error, message", [
        (dict(weights=[], prior_load=[], delay=[]), NoCandidateError,
         "need at least one candidate node"),
        (dict(prior_load=[0.0]), ValueError,
         "weights, prior_load and delay must have equal length"),
        (dict(delay=[[1.0], [0.0]]), ValueError,
         "weights, prior_load and delay must have equal length"),
        (dict(weights=[0.5, 0.0]), ValueError, r"weights must lie in \(0, 1\]"),
        (dict(weights=[-0.5, 0.5]), ValueError, r"weights must lie in \(0, 1\]"),
        (dict(weights=[1.0 + 1e-11, 0.5]), ValueError, r"weights must lie in \(0, 1\]"),
        (dict(weights=np.array([[0.5, 2.0], [0.5, 0.5]])), ValueError,
         r"weights must lie in \(0, 1\]"),
        (dict(prior_load=[0.0, -1e-12]), ValueError, "prior loads and delays must be >= 0"),
        (dict(delay=[-1.0, 0.0]), ValueError, "prior loads and delays must be >= 0"),
        (dict(affected=-1.0), ValueError, "affected must be >= 0"),
        (dict(epsilon=0.0), ValueError, "capacity, delay_cap and epsilon must be > 0"),
        (dict(k2=-0.1), ValueError, "k1 and k2 must be >= 0"),
    ])
    def test_same_error(self, change, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            LbPsvmProblem(**{**self.GOOD, **change})

    def test_valid_problem_is_frozen_floats(self):
        prob = LbPsvmProblem(**{**self.GOOD, "weights": [1, 1.0 + 1e-13]})
        for arr in (prob.weights, prob.prior_load, prob.delay):
            assert arr.dtype == float and not arr.flags.writeable
        # as under the array comparisons, a nan passes the range checks
        LbPsvmProblem(**{**self.GOOD, "weights": [math.nan, 0.5], "delay": [math.nan, 0.0]})


def random_problem(rng, n=None, k_zero=False, budget_hi=40.0):
    n = n or int(rng.integers(1, 4))
    g = rng.uniform(0.0, 29.0, n)
    w = np.minimum(1.0, 1.0 - (g - 1e-3) / CAP)
    d = rng.uniform(1.0, 40.0, n)
    hi = min(budget_hi, 0.8 * float((2 * CAP - g).sum()))
    B = round(float(rng.uniform(1.0, hi)), 2)
    if k_zero:
        k1 = k2 = 0.0
    else:
        k1 = float(rng.uniform(0.005, 0.05))
        k2 = float(rng.uniform(0.005, 0.05))
    return LbPsvmProblem(
        weights=w, prior_load=g, delay=d, capacity=CAP, affected=B,
        delay_cap=float(rng.uniform(50, 120)), k1=k1, k2=k2, epsilon=1e-3,
    )


def reference_lb_psvm(problem, max_iters=200):
    """The plain bracket-and-bisect, evaluating every response, that
    solve_lb_psvm must match bit for bit."""
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
        out = [solvers._coord_solve(mu, w[i], d[i], g[i], C, k1, k2, bmax[i]) for i in range(n)]
        return [b for b, _ in out], [br for _, br in out]

    mu_lo = mu_hi = sum(w) / B
    step = max(1.0, abs(mu_lo))
    while sum(responses(mu_hi)[0]) > B:
        mu_hi += step
        step *= 2.0
    step = max(1.0, abs(mu_hi))
    while sum(responses(mu_lo)[0]) < B:
        mu_lo -= step
        step *= 2.0
    sum_tol = max(1e-11, 1e-12 * B)
    mu = 0.5 * (mu_lo + mu_hi)
    betas, branches = responses(mu)
    for _ in range(max_iters):
        total = sum(betas)
        if abs(total - B) <= sum_tol:
            break
        if total > B:
            mu_lo = mu
        else:
            mu_hi = mu
        nxt = 0.5 * (mu_lo + mu_hi)
        if nxt == mu_lo or nxt == mu_hi:
            break
        mu = nxt
        betas, branches = responses(mu)

    beta = np.array(betas)
    low = beta < BETA_FLOOR
    if low.any() and B > 10 * n * BETA_FLOOR:
        deficit = float((BETA_FLOOR - beta[low]).sum())
        beta[low] = BETA_FLOOR
        beta[int(np.argmax(beta))] -= deficit
    interior = [i for i in range(n) if branches[i] == "interior"]
    residual = 0.0
    if len(interior) >= 2:
        vals = [w[i] / beta[i] - k1 * d[i] - k2 * queue_term_slope(g[i], float(beta[i]), C)
                for i in interior]
        residual = max(vals) - min(vals)
    return LbPsvmSolution(beta, problem, mu=mu, residual=float(residual),
                          saturated="clamped" in branches, branches=tuple(branches))


@st.composite
def split_problems(draw):
    """Splits in every branch of the coordinate solve: prior loads up to
    1.9 C (queue region and guard-clamped), integer loads on the kinks,
    zero delay weights, and affected counts from 0 to past what the
    candidates absorb."""
    n = draw(st.integers(1, 4))
    C = draw(st.sampled_from([45.0, 30.0, 7.3]))
    load = st.one_of(st.integers(0, int(1.9 * C)).map(float), st.floats(0.0, 1.9 * C))
    g = np.array(draw(st.lists(load, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    d = np.array(draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n)))
    k = st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(0.0, 5.0))
    absorb = float((2.0 * C - g - QUEUE_GUARD).sum())
    # the queue-region solve stops at an absolute step of 1e-15, so a
    # candidate at or past capacity never responds much below that: an
    # affected count under about 1e-15 is never bracketed
    share = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1.1)))
    B = share * absorb
    if draw(st.booleans()):
        B = float(round(B))
    return LbPsvmProblem(weights=w, prior_load=g, delay=d, capacity=C, affected=B,
                         delay_cap=50.0, k1=draw(k), k2=draw(k), epsilon=1e-3)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestSolveLbPsvm:
    def test_pure_fairness_closed_form(self):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, k1=0.0, k2=0.0, epsilon=1e-9)
        sol = solve_lb_psvm(prob)
        assert sol.beta == pytest.approx([10.0, 15.0], abs=1e-6)

    def test_single_candidate_gets_everything(self):
        prob = LbPsvmProblem(
            weights=[0.5], prior_load=[10.0], delay=[5.0], capacity=CAP,
            affected=17.0, delay_cap=50.0, k1=0.3, k2=0.7, epsilon=1e-3,
        )
        sol = solve_lb_psvm(prob)
        assert sol.beta == pytest.approx([17.0], abs=1e-9)

    def test_zero_affected_degenerate(self):
        prob = LbPsvmProblem(
            weights=[0.5, 0.5], prior_load=[1.0, 2.0], delay=[5.0, 6.0], capacity=CAP,
            affected=0.0, delay_cap=50.0, k1=0.1, k2=0.1, epsilon=1e-3,
        )
        sol = solve_lb_psvm(prob)
        assert sol.beta.tolist() == [0.0, 0.0]
        assert sol.feasible_delay

    def test_unreachable_sum_raises_instead_of_hanging(self):
        # the candidate at capacity keeps a response near 1e-15 for every
        # mu, so no multiplier brings the sum down to 5e-16
        prob = LbPsvmProblem(
            weights=[0.5, 0.5], prior_load=[30.0, 10.0], delay=[5.0, 6.0], capacity=CAP,
            affected=5e-16, delay_cap=50.0, k1=0.1, k2=0.1, epsilon=1e-3,
        )

        def hung(signum, frame):
            raise AssertionError("solve_lb_psvm still running after 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(InfeasibleError, match="5e-16 affected"):
                solve_lb_psvm(prob)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_constraints_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            prob = random_problem(rng)
            sol = solve_lb_psvm(prob)
            assert abs(sol.beta.sum() - prob.affected) <= 1e-9
            assert (sol.beta >= 0).all()
            assert ((prob.prior_load + sol.beta) < 2 * CAP).all()

    def test_kkt_stationarity_equalized(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(200):
            prob = random_problem(rng, n=int(rng.integers(2, 4)))
            sol = solve_lb_psvm(prob)
            vals = []
            for i, br in enumerate(sol.branches):
                if br != "interior":
                    continue
                b = float(sol.beta[i])
                u = prob.prior_load[i] + b - CAP
                slope = 0.0 if u < 0 else 1.0 / (2.0 * (CAP - u) ** 2)
                vals.append(prob.weights[i] / b - prob.k1 * prob.delay[i] - prob.k2 * slope)
            if len(vals) >= 2:
                checked += 1
                assert max(vals) - min(vals) <= 1e-6
        assert checked > 100

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            prob = random_problem(rng, n=3, k_zero=True)
            base = solve_lb_psvm(prob)
            for c in (0.1, 4.0):
                scaled = LbPsvmProblem(
                    weights=np.minimum(1.0, c * prob.weights),
                    prior_load=prob.prior_load, delay=prob.delay,
                    capacity=prob.capacity, affected=prob.affected,
                    delay_cap=prob.delay_cap, k1=0.0, k2=0.0, epsilon=prob.epsilon,
                )
                if (scaled.weights < c * prob.weights - 1e-12).any():
                    continue  # clipped: not a pure rescaling
                got = solve_lb_psvm(scaled)
                assert np.abs(got.beta - base.beta).max() <= 1e-6

    def test_weight_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            prob = random_problem(rng, n=3, k_zero=True)
            sol = solve_lb_psvm(prob)
            w = np.array(prob.weights)
            j = int(rng.integers(0, 3))
            if w[j] >= 1.0:
                continue
            w2 = np.array(w)
            w2[j] = min(1.0, w[j] * 1.5)
            bumped = LbPsvmProblem(
                weights=w2, prior_load=prob.prior_load, delay=prob.delay,
                capacity=prob.capacity, affected=prob.affected,
                delay_cap=prob.delay_cap, k1=0.0, k2=0.0, epsilon=prob.epsilon,
            )
            sol2 = solve_lb_psvm(bumped)
            assert sol2.beta[j] >= sol.beta[j] - 1e-9

    def test_queue_term_zero_below_capacity(self):
        prob = LbPsvmProblem(
            weights=[0.9, 0.9], prior_load=[2.0, 3.0], delay=[5.0, 6.0], capacity=CAP,
            affected=10.0, delay_cap=120.0, k1=0.01, k2=0.9, epsilon=1e-3,
        )
        sol = solve_lb_psvm(prob)
        # both arrivals stay under capacity: the queue adds nothing
        assert (prob.prior_load + sol.beta <= CAP).all()
        expect = sum(
            -prob.weights[i] * math.log(sol.beta[i]) + prob.k1 * prob.delay[i] * sol.beta[i]
            for i in range(2)
        )
        assert sol.objective == pytest.approx(expect, rel=1e-12)

    def test_no_strict_interior_raises(self):
        prob = LbPsvmProblem(
            weights=[0.5], prior_load=[29.0], delay=[5.0], capacity=CAP,
            affected=35.0, delay_cap=50.0, k1=0.1, k2=0.1, epsilon=1e-3,
        )
        with pytest.raises(InfeasibleError):
            solve_lb_psvm(prob)

    def test_delay_cap_flag(self):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0)
        sol = solve_lb_psvm(prob)
        # 25 vehicles at ~6 ms each give a delay mass far above 50
        assert sol.delay_attained > 50.0
        assert not sol.feasible_delay
        roomy = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0)
        small = LbPsvmProblem(
            weights=roomy.weights, prior_load=roomy.prior_load, delay=roomy.delay,
            capacity=CAP, affected=1.0, delay_cap=50.0, k1=roomy.k1, k2=roomy.k2,
            epsilon=roomy.epsilon,
        )
        assert solve_lb_psvm(small).feasible_delay


    @settings(max_examples=300, deadline=None)
    @given(problem=split_problems(), max_iters=st.sampled_from([1, 3, 40, 200]))
    def test_same_bits_as_plain_bisection(self, problem, max_iters):
        try:
            want = reference_lb_psvm(problem, max_iters)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as got:
                solve_lb_psvm(problem, max_iters)
            assert str(got.value) == str(exc)
            return
        got = solve_lb_psvm(problem, max_iters)
        assert got.beta.tobytes() == want.beta.tobytes()
        assert bits(got.mu) == bits(want.mu)
        assert bits(got.residual) == bits(want.residual)
        assert got.branches == want.branches and got.saturated == want.saturated

    def test_few_response_evaluations(self, monkeypatch):
        # onset splits as the contention sweep meets them: two candidates
        # near capacity, a node's worth of vehicles to re-home; the plain
        # bisection evaluates the responses about 45 times per solve
        rng = np.random.default_rng(53)
        C = 45.0
        problems = []
        for _ in range(150):
            g = rng.integers(0, 46, 2).astype(float)
            cap = float(rng.uniform(40.0, 120.0))
            problems.append(LbPsvmProblem(
                weights=np.minimum(1.0, 1.0 - (g - 1e-3) / C), prior_load=g,
                delay=rng.uniform(8.0, 25.0, 2), capacity=C,
                affected=float(rng.integers(1, 46)), delay_cap=cap,
                k1=1.0 / cap, k2=1.0 / cap, epsilon=1e-3,
            ))
        calls = 0
        coord_solve = solvers._coord_solve

        def counted(*args):
            nonlocal calls
            calls += 1
            return coord_solve(*args)

        monkeypatch.setattr(solvers, "_coord_solve", counted)
        for problem in problems:
            solve_lb_psvm(problem)
        assert calls / (2 * len(problems)) <= 12.0

    def test_missed_sum_is_logged(self, caplog):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0)
        with caplog.at_level(logging.WARNING, logger="edgefail.solvers"):
            solve_lb_psvm(prob)
            assert not caplog.messages
            short = solve_lb_psvm(prob, max_iters=1)
        assert abs(short.beta.sum() - prob.affected) > 1e-11
        assert any(m.startswith("split sums to") for m in caplog.messages)


class TestOracle:
    def test_n1_matches_solver_exactly(self):
        prob = LbPsvmProblem(
            weights=[0.4], prior_load=[12.0], delay=[9.0], capacity=CAP,
            affected=8.0, delay_cap=60.0, k1=0.02, k2=0.02, epsilon=1e-3,
        )
        sol = solve_lb_psvm(prob)
        orc = oracle_lb_psvm(prob, 0.01)
        assert orc.beta == pytest.approx(sol.beta, abs=1e-9)

    def test_pure_fairness_grid_near_closed_form(self):
        p, d, gamma = fig_example()
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0, k1=0.0, k2=0.0, epsilon=1e-9)
        orc = oracle_lb_psvm(prob, 0.01)
        assert orc.beta == pytest.approx([10.0, 15.0], abs=0.01 * prob.n)

    def test_solver_never_loses_to_grid(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            prob = random_problem(rng, n=int(rng.integers(1, 4)))
            sol = solve_lb_psvm(prob)
            orc = oracle_lb_psvm(prob, 0.01)
            assert sol.objective <= orc.objective + 1e-4 * abs(orc.objective)

    def test_oracle_objective_consistent_with_lb_objective(self):
        rng = np.random.default_rng(47)
        prob = random_problem(rng, n=3)
        orc = oracle_lb_psvm(prob, 0.05)
        assert orc.objective == pytest.approx(lb_objective(prob, orc.beta), rel=1e-9)

    def test_refuses_large_n(self):
        prob = LbPsvmProblem(
            weights=[0.5] * 5, prior_load=[1.0] * 5, delay=[5.0] * 5, capacity=CAP,
            affected=10.0, delay_cap=50.0, k1=0.1, k2=0.1, epsilon=1e-3,
        )
        with pytest.raises(ValueError):
            oracle_lb_psvm(prob, 0.01)


class TestSolvePsvm:
    def test_lowest_delay_node_two(self):
        p, d, gamma = fig_example()
        m = solve_psvm(gamma, p, 0, 0, d)
        loads = gamma.gamma[list(m.candidates), 0] + m.beta
        assert loads.tolist() == [47.0, 18.0]

    def test_lowest_delay_node_three(self):
        p, _, gamma = fig_example()
        d = DelayModel(d=np.array([[5.0], [7.0], [6.0]]))
        m = solve_psvm(gamma, p, 0, 0, d)
        loads = gamma.gamma[list(m.candidates), 0] + m.beta
        assert loads.tolist() == [22.0, 43.0]

    def test_tie_breaks_to_lowest_index(self):
        p, _, gamma = fig_example()
        d = DelayModel(d=np.array([[5.0], [6.0], [6.0]]))
        m = solve_psvm(gamma, p, 0, 0, d)
        assert m.beta.tolist() == [25.0, 0.0]

    def test_single_candidate_matches_lb(self):
        p, d = single_service([5.0, 6.0])
        gamma = PrimaryMapping(gamma=np.array([[12.0], [7.0]]))
        m = solve_psvm(gamma, p, 0, 0, d)
        prob = build_lb_psvm(gamma, p, 0, 0, d, CAP, 50.0)
        sol = solve_lb_psvm(prob)
        assert m.beta == pytest.approx(sol.beta, abs=1e-9)
        assert m.candidates == prob.candidates

    def test_no_candidate_raises(self):
        p, d = single_service([5.0])
        gamma = PrimaryMapping(gamma=np.array([[3.0]]))
        with pytest.raises(NoCandidateError):
            solve_psvm(gamma, p, 0, 0, d)

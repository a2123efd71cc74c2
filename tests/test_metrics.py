import logging

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgefail.config import ExperimentConfig
from edgefail.errors import SaturationError
from edgefail.experiment import build_requests, simulate_policy
from edgefail.metrics import (
    QUEUE_GUARD,
    RunTable,
    average_elf,
    edge_load_factor,
    jain_fairness,
    queue_delay,
    service_delay,
)
from edgefail.model import SimPhase
from edgefail.simulation import Simulation, derive_inputs


class TestQueueDelay:
    def test_zero_below_capacity(self):
        assert queue_delay(20, 30) == 0.0
        assert queue_delay(30, 30) == 0.0

    def test_reference_value(self):
        # backlog 10 on capacity 30: 10 / (2*30*20) = 1/120 raw units
        assert queue_delay(40, 30) == pytest.approx(1.0 / 120.0, abs=1e-15)

    def test_ms_conversion(self):
        assert queue_delay(40, 30, ms_per_unit=1000.0) == pytest.approx(1000.0 / 120.0)

    def test_saturation_raises(self):
        with pytest.raises(SaturationError):
            queue_delay(60, 30)
        with pytest.raises(SaturationError):
            queue_delay(61, 30)

    def test_strictly_increasing_on_overload(self):
        xs = np.linspace(30.0, 60.0, 102)[1:-1]
        ys = [queue_delay(x, 30.0) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_divergence_toward_pole(self, frac):
        # closer to 2C means longer wait
        cap = 30.0
        near = queue_delay(cap + (1 - frac / 2) * cap * 0.999, cap)
        far = queue_delay(cap + (1 - frac) * cap * 0.5, cap)
        assert near >= far


def reference_service_delay(loads, delays, capacity, ms_per_unit=1000.0):
    """The per-node loop service_delay must match bit for bit."""
    total = float(loads.sum())
    if total <= 0:
        return 0.0
    acc = 0.0
    for load, d in zip(loads, delays):
        if load <= 0:
            continue
        arrival = float(load)
        if arrival >= 2.0 * capacity:
            arrival = 2.0 * capacity - QUEUE_GUARD
        acc += load * (d + queue_delay(arrival, capacity, ms_per_unit))
    return acc / total


class TestServiceDelay:
    @settings(max_examples=200, deadline=None)
    @given(E=st.integers(8, 40), S=st.integers(1, 8), T=st.integers(1, 4),
           capacity=st.sampled_from([30.7, 30.0, 2.9]), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_per_node_loop(self, E, S, T, capacity, seed):
        # fractional loads, idle nodes, and arrivals at, just below and past
        # 2C; a (T, E, S) call equals T (E, S) calls and every column's loop
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.0, 2.4 * capacity, (T, E, S))
        loads[rng.random((T, E, S)) < 0.3] = 0.0
        loads[rng.random((T, E, S)) < 0.1] = 2.0 * capacity
        loads[rng.random((T, E, S)) < 0.05] = 2.0 * capacity - QUEUE_GUARD / 2
        loads[:, :, rng.random(S) < 0.2] = 0.0
        delays = rng.uniform(1.0, 40.0, (T, E, S))
        batch = service_delay(loads, delays, capacity)
        assert batch.shape == (T, S)
        for t in range(T):
            got = service_delay(loads[t], delays[t], capacity)
            assert got.shape == (S,)
            assert np.array_equal(batch[t], got)
            for s in range(S):
                want = reference_service_delay(loads[t, :, s], delays[t, :, s], capacity)
                assert got[s] == want
                assert service_delay(loads[t, :, s], delays[t, :, s], capacity) == want

    def test_single_node_no_queue(self):
        assert service_delay([10.0, 0.0], [5.0, 9.0], 30.0) == 5.0

    def test_zero_vehicles_is_zero(self):
        assert service_delay([0.0, 0.0], [5.0, 9.0], 30.0) == 0.0

    def test_load_weighted_mix(self):
        # loads (32, 33) on cap 30 add queue terms with backlogs 2 and 3
        q32 = queue_delay(32, 30, 1000.0)
        q33 = queue_delay(33, 30, 1000.0)
        expect = (32 * (6.0 + q32) + 33 * (7.0 + q33)) / 65.0
        got = service_delay([32.0, 33.0], [6.0, 7.0], 30.0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_propagation_linear_in_distance(self):
        base = service_delay([10.0, 20.0], [5.0, 9.0], 100.0)
        doubled = service_delay([10.0, 20.0], [10.0, 18.0], 100.0)
        assert doubled == pytest.approx(2 * base)

    def test_clamp_mode_survives_saturation(self):
        v = service_delay([70.0], [5.0], 30.0)
        assert np.isfinite(v) and v > 1e5


class TestEdgeLoadFactor:
    def test_no_added_load(self):
        added = np.zeros((3, 2))
        avail = np.full((3, 2), 30.0)
        assert edge_load_factor(added, avail).tolist() == [0.0, 0.0, 0.0]

    def test_overload_is_visible(self):
        # 25 vehicles into 8 free slots: 312.5 percent
        added = np.array([[25.0], [0.0]])
        avail = np.array([[8.0], [12.0]])
        elf = edge_load_factor(added, avail)
        assert elf[0] == pytest.approx(312.5)
        assert elf[1] == 0.0

    def test_node_mean_over_loaded_instances(self):
        added = np.array([[10.0, 5.0]])
        avail = np.array([[20.0, 20.0]])
        assert edge_load_factor(added, avail)[0] == pytest.approx((50.0 + 25.0) / 2)

    def test_average_over_loaded_nodes_only(self):
        per_node = np.array([50.0, 0.0, 30.0])
        assert average_elf(per_node) == pytest.approx(40.0)
        assert average_elf(np.zeros(3)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(E=st.integers(1, 10), S=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_per_node_mean(self, E, S, seed):
        # each node gets 0 to S loaded instances, past numpy's 8-term pairwise block
        rng = np.random.default_rng(seed)
        added = rng.random((E, S)) * 10.0 ** rng.integers(-6, 4, (E, S))
        for e in range(E):
            added[e, rng.permutation(S)[:rng.integers(0, S + 1)]] = 0.0
        avail = rng.random((E, S)) * 30.0 + 1e-3
        want = np.zeros(E)
        for e in range(E):  # the per-node loop the function replaces
            hit = added[e] > 0
            if hit.any():
                want[e] = float(np.mean(100.0 * added[e, hit] / avail[e, hit]))
        assert edge_load_factor(added, avail).tobytes() == want.tobytes()
        loaded = added.sum(axis=1) > 0
        want_avg = float(want[loaded].mean()) if loaded.any() else 0.0
        assert average_elf(want, loaded) == want_avg

    def test_many_loaded_instances_on_one_node(self):
        added = np.zeros((2, 12))
        added[1] = np.linspace(0.1, 1e5, 12)
        avail = np.full((2, 12), 0.3)
        want = float(np.mean(100.0 * added[1] / avail[1]))
        assert edge_load_factor(added, avail).tolist() == [0.0, want]


class TestJainFairness:
    def test_equal_is_one(self):
        assert jain_fairness([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_single_positive_is_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_all_zero_defined_as_one(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"^values must be >= 0$"):
            jain_fairness([1.0, -0.5])
        with pytest.raises(ValueError, match=r"^values must be >= 0$"):
            jain_fairness([[1.0], [-0.5]])
        with pytest.raises(ValueError, match=r"^need at least one value$"):
            jain_fairness([])

    def test_same_bits_as_array_methods(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 17, 40):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, n)
            s, sq = float(x.sum()), float((x * x).sum())
            assert jain_fairness(x) == s * s / (n * sq)

    def test_single_positive_of_tiny_values(self):
        # squares of values this small underflow to subnormals or to 0
        assert jain_fairness([1e-170, 0.0]) == 0.5
        assert jain_fairness([1e-160, 1e-160, 0.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @example(values=[1.7078879972143106e-159, 1.7078879972143106e-159], c=2.0)
    def test_scale_invariance(self, values, c):
        x = np.array(values)
        assert jain_fairness(c * x) == pytest.approx(jain_fairness(x), rel=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(0, 10, rng.integers(1, 9))
            f = jain_fairness(x)
            assert 1.0 / len(x) - 1e-12 <= f <= 1.0 + 1e-12


class TestRunTableDerived:
    """``sla_violated`` is derived from the table's columns when a record
    is read."""

    def test_sla_violated_lists_services_over_their_cap(self):
        # all-to-one failover at 500 vehicles pushes a candidate past its
        # capacity, so some attack units exceed a service's delay cap
        cfg = ExperimentConfig.from_sources(overrides={
            "horizon": 40, "attack.every": 10, "mobility.vehicles": 500, "seed": 1,
            "service.capacity": 15.0, "services.count": 4})
        table = simulate_policy(cfg, "psvm")
        caps = [s.delay_threshold for s in cfg.services()]
        violated = []
        for r in table:
            late = tuple(s for s, ms in enumerate(r.per_service_delay.tolist()) if ms > caps[s])
            assert r.sla_violated == late, r.time
            violated += [r.time] * bool(late)
        assert violated and all(table[t - 1].state is SimPhase.ATTACK for t in violated)

    def test_rows_read_back_their_derived_fields(self):
        # a delay at its cap meets it
        table = RunTable(2, num_nodes=3, thresholds=np.array([50.0, 60.0, 70.0]))
        table.write(slice(0, 2), time=np.array([1, 2]),
                    per_service_delay=np.array([[50.0, 60.5, 0.0], [51.0, 60.0, 70.0]]))
        for state in (SimPhase.PRE_ATTACK, SimPhase.ATTACK):
            table.commit(state, 1.0)
        assert (table[0].sla_violated, table[1].sla_violated) == ((1,), (0,))

    def test_no_service_loses_every_instance_in_a_run(self, caplog):
        # only a run's first recovery can find no room: every later one has
        # the last target back and empty, with room for all the next target
        # hosted.  The first leaves services 6 and 7 on two of three
        # instances, and no recovery or re-placement leaves a service on none
        cfg = ExperimentConfig.from_sources(overrides={
            "horizon": 60, "attack.every": 6, "attack.quarantine": 3, "node.capacity": 46,
            "mobility.vehicles": 60, "seed": 5})
        inputs = derive_inputs(cfg, build_requests(cfg))
        for policy in cfg.policy_list():
            sim, fewest = Simulation(cfg, policy), []
            for name in ("recover", "_place"):
                def checked(*args, method=getattr(sim, name)):
                    method(*args)
                    fewest.append(int(sim.state.placement.instance_counts().min()))
                setattr(sim, name, checked)
            with caplog.at_level(logging.WARNING, logger="edgefail.simulation"):
                caplog.clear()
                sim.run(inputs)
            assert [m for m in caplog.messages if "unrecovered" in m] == [
                "t=7: unrecovered services (6, 7)"]
            # the t=1 placement and nine recoveries
            assert len(fewest) == 10 and min(fewest) >= 1, policy

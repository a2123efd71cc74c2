import copy
import dataclasses
import itertools
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from edgefail.config import POLICIES, ExperimentConfig
from edgefail.errors import (
    ConcurrentAttackError,
    ConfigError,
    InfeasibleError,
    NoCandidateError,
)
from edgefail import experiment, simulation
from edgefail.experiment import build_requests, run, simulate_policy, summarize
from edgefail.metrics import MetricsRecord, RunTable
from edgefail.model import DelayModel, SimPhase
from edgefail.placement import place_services, reserve_backup
from edgefail.simulation import Simulation, derive_inputs, evaluate_quality
from edgefail.solvers import build_lb_psvm, solve_lb_psvm


SMALL = {
    "horizon": 30,
    "attack.every": 10,
    "mobility.vehicles": 120,
    "mobility.p_request": 0.6,
    "seed": 5,
}


def small_cfg(**over):
    return ExperimentConfig.from_sources(overrides={**SMALL, **over})


def derived(cfg):
    """The config's request stream as the derived units a simulation steps over."""
    return derive_inputs(cfg, build_requests(cfg))


def run_sim(cfg, policy="lb-psvm"):
    sim = Simulation(cfg, policy)
    records = sim.run(derived(cfg))
    return sim, records


def direct_split(sim, plc, gamma, d, healthy, target, s):
    """The policy's split for (target, s) solved straight from the given
    inputs over the ``healthy`` nodes but the target, or None when none is
    feasible; psvm's all-to-one rule is written out here."""
    cfg = sim.cfg
    try:
        if sim.policy == "br":
            reserved = [e for e in plc.reserved_nodes(s) if e != target and e in healthy]
            if reserved:
                best = min(reserved, key=lambda e: (d.d[e, s], e))
                return (best,), np.array([gamma.gamma[target, s]])
        if sim.policy in ("psvm", "br"):
            cands = tuple(e for e in plc.nodes_hosting(s) if e != target and e in healthy)
            if not cands:
                return None
            beta = np.zeros(len(cands))
            beta[cands.index(min(cands, key=lambda e: (d.d[e, s], e)))] = gamma.gamma[target, s]
            return cands, beta
        problem = build_lb_psvm(
            gamma, plc, target, s, d, sim.capacity, sim.services[s].delay_threshold,
            k1=cfg.lbpsvm_k1, k2=cfg.lbpsvm_k2, epsilon=cfg.lbpsvm_epsilon, healthy=healthy,
        )
        m = solve_lb_psvm(problem, max_iters=cfg.solver_max_iters,
                          kkt_tol=cfg.lbpsvm_kkt_tol).to_secondary()
        return m.candidates, m.beta
    except (NoCandidateError, InfeasibleError):
        return None


def check_onsets_against_previous_unit(cfg, policy):
    """Run ``policy`` over ``cfg`` and, at every onset, compare the stored
    splits with splits solved directly from the primary mapping, delay
    matrix and healthy nodes seen after step t-1.  An onset whose unit
    began with a recovery, or whose target was down at t-1, must have no
    split.  Returns counts of what was checked."""
    sim = Simulation(cfg, policy)
    seen = {}
    counts = {"onsets": 0, "splits": 0, "recoveries": 0, "onsets_after_heal": 0}
    step, inject, recover, heal = sim.step, sim.inject_attack, sim.recover, sim.heal

    def spy_step(unit, t):
        step(unit, t)
        st = sim.state
        record = st.history[-1]
        seen.update(placement=st.placement, gamma=st.primary, d=st.delay,
                    healthy=st.healthy_ids(), recovered=False, healed=False,
                    phase=record.state)

    def spy_recover(t):
        recover(t)
        seen["recovered"] = True
        counts["recoveries"] += 1

    def spy_heal(t):
        heal(t)
        seen["healed"] = True

    def spy_inject(target, t):
        ok = inject(target, t)
        if not ok:
            return ok
        counts["onsets"] += 1
        counts["onsets_after_heal"] += seen["healed"]
        stored = sim.state.proactive
        if seen["recovered"] or target not in seen["healthy"]:
            assert stored == {}, t
            return ok
        assert seen["phase"] is not SimPhase.ATTACK
        pairs = seen["placement"].services_on(target)
        assert set(stored) == {(target, s) for s in pairs}, t
        for s in pairs:
            want = direct_split(sim, seen["placement"], seen["gamma"], seen["d"],
                                seen["healthy"], target, s)
            got = stored[(target, s)]
            if want is None:
                assert got is None, (t, s)
                continue
            counts["splits"] += 1
            assert got.candidates == want[0], (t, s)
            np.testing.assert_allclose(got.beta, want[1], rtol=0, atol=1e-12)
            assert got.affected == pytest.approx(float(seen["gamma"].gamma[target, s]),
                                                 abs=1e-9), (t, s)
        return ok

    sim.step, sim.inject_attack = spy_step, spy_inject
    sim.recover, sim.heal = spy_recover, spy_heal
    sim.run(derived(cfg))
    return counts


# the phase a record may follow each phase with
LEGAL_NEXT = {
    SimPhase.PRE_ATTACK: {SimPhase.PRE_ATTACK, SimPhase.ATTACK},
    SimPhase.ATTACK: {SimPhase.ATTACK, SimPhase.RECOVERED},
    SimPhase.RECOVERED: {SimPhase.RECOVERED, SimPhase.PRE_ATTACK, SimPhase.ATTACK},
}


def onsets(records):
    out = []
    prev = SimPhase.PRE_ATTACK
    for r in records:
        if r.state is SimPhase.ATTACK and prev is not SimPhase.ATTACK:
            out.append(r.time)
        prev = r.state
    return out


class TestStateMachine:
    def test_attack_onsets_on_schedule(self):
        _, records = run_sim(small_cfg())
        assert onsets(records) == [10, 20, 30]

    def test_phase_sequence_legal(self):
        _, records = run_sim(small_cfg())
        for a, b in zip(records, records[1:]):
            assert b.state in LEGAL_NEXT[a.state], (a.time, a.state, b.state)

    def test_recovery_after_one_unit(self):
        _, records = run_sim(small_cfg())
        by_time = {r.time: r for r in records}
        assert by_time[10].state is SimPhase.ATTACK
        assert by_time[11].state is SimPhase.RECOVERED
        assert by_time[19].state is SimPhase.RECOVERED

    def test_longer_recovery_delay(self):
        _, records = run_sim(small_cfg(**{"recovery.delay": 3}))
        by_time = {r.time: r for r in records}
        for t in (10, 11, 12):
            assert by_time[t].state is SimPhase.ATTACK
        assert by_time[13].state is SimPhase.RECOVERED

    def test_delay_spikes_then_settles(self):
        _, records = run_sim(small_cfg(**{"mobility.vehicles": 400,
                                          "mobility.p_request": 0.8}))
        by_time = {r.time: r for r in records}
        pre = np.mean([by_time[t].avg_delay for t in range(5, 10)])
        post = np.mean([by_time[t].avg_delay for t in range(14, 19)])
        # recovered delay returns near the pre-attack level
        assert abs(post - pre) < 0.5 * pre

    def test_concurrent_attack_rejected(self):
        sim, _ = run_sim(small_cfg())
        sim.heal(31)  # end the attack of t=30 before its recovery
        assert sim.state.phase is SimPhase.PRE_ATTACK
        assert sim.inject_attack(0, 1000) or True
        with pytest.raises(ConcurrentAttackError):
            sim.inject_attack(1, 1001)

    def test_recover_and_heal_outside_their_phase_raise(self):
        # a misused recover or heal names its unit and changes no state
        cfg = ExperimentConfig.from_sources(overrides={"seed": 1})
        sim, units = Simulation(cfg, "lb-psvm"), derived(cfg)
        sim.step(units, 1)

        def unchanged(call, match):
            before = dataclasses.replace(sim.state)
            with pytest.raises(ValueError, match=match):
                call()
            assert all(getattr(sim.state, f.name) is getattr(before, f.name)
                       for f in dataclasses.fields(before))

        unchanged(lambda: sim.heal(2), "^heal at t=2: no attack is active$")
        unchanged(lambda: sim.recover(2), "^recover at t=2: the phase is PreAttack, not Attack$")
        assert sim.inject_attack(sim._pick_target(), 2)
        sim.step(units, 2)
        sim.recover(3)
        unchanged(lambda: sim.recover(3), "^recover at t=3: the phase is Recovered, not Attack$")
        sim.heal(3)
        unchanged(lambda: sim.heal(4), "^heal at t=4: no attack is active$")
        sim.step(units, 3)
        assert [r.state for r in sim.state.history] == [
            SimPhase.PRE_ATTACK, SimPhase.ATTACK, SimPhase.PRE_ATTACK]

    def test_attack_on_a_node_outside_the_grid_raises(self):
        # an id outside 0..8 is refused before any state changes: nodes[-1]
        # would reach node 8 and leave its vehicles without a split
        cfg = ExperimentConfig.from_sources(overrides={"seed": 1})
        sim, units = Simulation(cfg, "lb-psvm"), derived(cfg)
        for t in range(1, 6):
            sim.step(units, t)
        before = dataclasses.replace(sim.state)
        for node in (-1, 9):
            with pytest.raises(ValueError, match=rf"^attack at t=6 on node {node}: nodes are 0..8$"):
                sim.inject_attack(node, 6)
            assert all(getattr(sim.state, f.name) is getattr(before, f.name)
                       for f in dataclasses.fields(before))
        assert sim.inject_attack(8, 6)
        assert sim.state.healthy_ids() == list(range(8))
        assert set(sim.state.proactive) == {(8, s) for s in sim.state.placement.services_on(8)}

    def test_attack_on_empty_node_is_noop(self):
        cfg = small_cfg(**{"grid.rows": 4, "placement.instances_per_service": 2,
                           "services.count": 2})
        sim = Simulation(cfg, "lb-psvm")
        reqs = derived(cfg)
        sim.step(reqs, 1)
        empty = [e for e in range(12) if not sim.state.placement.services_on(e, True)]
        assert empty, "scenario needs an empty node"
        assert sim.inject_attack(empty[0], 2) is False
        assert sim.state.phase is SimPhase.PRE_ATTACK
        assert sim.state.attack_target is None

    def test_heal_before_recovery_ends_the_attack(self):
        # the node returns while its recovery is still due: the attack ends
        # with it, and the next unit is served by the primary mapping
        cfg = small_cfg(**{"recovery.delay": 3})
        sim, units = Simulation(cfg, "lb-psvm"), derived(cfg)
        sim.step(units, 1)
        target = sim._pick_target()
        assert sim.inject_attack(target, 2)
        sim.step(units, 2)
        sim.heal(3)
        sim.step(units, 3)
        assert sim.state.phase is SimPhase.PRE_ATTACK
        assert sim.state.recover_at is None and sim.state.heal_at is None
        assert [r.state for r in sim.state.history] == [
            SimPhase.PRE_ATTACK, SimPhase.ATTACK, SimPhase.PRE_ATTACK]
        assert target in sim.state.healthy_ids()
        assert sim.state.placement.services_on(target)  # never recovered away
        assert sim.inject_attack(target, 4)
        assert sim.state.proactive  # solved from unit 3, a non-attack unit
        sim.step(units, 4)
        sim.heal(5)
        assert sim.inject_attack(target, 5)
        assert sim.state.proactive == {}  # unit 4 was an attack unit

    def test_explicit_schedule(self):
        cfg = small_cfg(**{"attack.schedule": "7:4,23:1", "attack.target": "most-loaded"})
        _, records = run_sim(cfg)
        assert onsets(records) == [7, 23]

    def test_random_targeting_deterministic(self):
        cfg = small_cfg(**{"attack.target": "random"})
        _, a = run_sim(cfg)
        _, b = run_sim(cfg)
        assert [r.avg_delay for r in a] == [r.avg_delay for r in b]


class TestServingInvariants:
    @pytest.mark.parametrize("policy", ["lb-psvm", "psvm", "br"])
    def test_no_request_dropped(self, policy):
        _, records = run_sim(small_cfg(), policy)
        for r in records:
            served = float(r.served_per_service.sum() + r.unserved_per_service.sum())
            assert served == pytest.approx(float(r.demand_per_service.sum()), abs=1e-6)
            assert float(r.unserved_per_service.sum()) == 0.0

    def test_determinism_bit_identical(self):
        cfg = small_cfg()
        _, a = run_sim(cfg)
        _, b = run_sim(cfg)
        for ra, rb in zip(a, b):
            assert ra.time == rb.time and ra.state == rb.state
            assert np.array_equal(ra.per_service_delay, rb.per_service_delay)
            assert ra.avg_delay == rb.avg_delay
            assert np.array_equal(ra.elf_per_node, rb.elf_per_node)
            assert ra.fairness == rb.fairness and ra.q_value == rb.q_value

    def test_identical_requests_identical_mapping(self):
        cfg = small_cfg()
        sim = Simulation(cfg, "lb-psvm")
        reqs = derived(cfg)
        same = simulation.StreamInputs(reqs.demand[[0, 0]], reqs.delay[[0, 0]])
        sim.step(same, 1)
        g1 = np.array(sim.state.primary.gamma)
        sim.step(same, 2)
        g2 = np.array(sim.state.primary.gamma)
        assert np.array_equal(g1, g2)

    def test_zero_demand_unit(self):
        cfg = small_cfg()
        sim = Simulation(cfg, "lb-psvm")
        first = build_requests(cfg)[:1]  # then a unit without requests
        reqs = derive_inputs(cfg, dataclasses.replace(
            first, offsets=np.append(first.offsets, first.offsets[-1])))
        sim.step(reqs, 1)
        sim.step(reqs, 2)
        record = sim.state.history[-1]
        assert record.avg_delay == 0.0
        assert record.fairness == 1.0
        assert float(record.demand_per_service.sum()) == 0.0
        assert sim.state.phase is SimPhase.PRE_ATTACK

    def test_proactive_mapping_from_previous_unit(self):
        # at every onset the split of each pair on the target equals the
        # one solved directly from the data seen after step t-1; the
        # random-target run recovers after 2 units and heals each
        # quarantine in the unit of the next onset
        random_cfg = small_cfg(**{"attack.target": "random", "attack.every": 7,
                                  "recovery.delay": 2, "horizon": 60, "seed": 3})
        for cfg, policy in itertools.product((small_cfg(), random_cfg),
                                             ("lb-psvm", "psvm", "br")):
            checked = check_onsets_against_previous_unit(cfg, policy)
            assert checked["onsets"] == cfg.horizon // cfg.attack_every
            assert checked["splits"] > 0
            assert checked["recoveries"] and checked["onsets_after_heal"]

    def test_proactive_covers_every_hosting_pair(self):
        # attacking any hosting node stores one split per service it
        # hosts, each re-homing exactly the node's primary load at t-1
        cfg = small_cfg()
        reqs = derived(cfg)
        for policy in ("lb-psvm", "psvm", "br"):
            sim = Simulation(cfg, policy)
            for t in range(1, 4):
                sim.step(reqs, t)
            plc = sim.state.placement
            gamma = sim.state.primary.gamma
            hosting = [e for e in range(9) if plc.services_on(e)]
            assert len(hosting) > 1
            for e in hosting:
                trial = copy.deepcopy(sim)
                assert trial.inject_attack(e, 4)
                stored = trial.state.proactive
                assert set(stored) == {(e, s) for s in plc.services_on(e)}
                for (_, s), mapping in stored.items():
                    assert mapping is not None
                    assert mapping.affected == pytest.approx(float(gamma[e, s]), abs=1e-9)
                    assert float(np.sum(mapping.beta)) == pytest.approx(mapping.affected)

    def test_no_split_for_target_down_at_previous_unit(self):
        # unit t-1 was an Attack unit: a bare heal before the recovery, then
        # an onset in the same unit, on the node that was down or another,
        # gets no split, while the same onset a unit later gets them
        cfg = small_cfg()
        reqs = derived(cfg)
        sim = Simulation(cfg, "lb-psvm")
        sim.step(reqs, 1)
        target = sim._pick_target()
        assert sim.inject_attack(target, 2)
        sim.step(reqs, 2)
        sim.heal(3)
        other = next(e for e in sim.state.healthy_ids()
                     if e != target and sim.state.placement.services_on(e))
        for node in (target, other):
            trial = copy.deepcopy(sim)
            assert trial.inject_attack(node, 3)
            assert trial.state.proactive == {}, node
            trial = copy.deepcopy(sim)
            trial.step(reqs, 3)
            assert trial.inject_attack(node, 4)
            assert trial.state.proactive, node

    def test_recovery_precedes_the_next_onset(self):
        # a recovery in the unit of the next onset leaves unit t-1 an attack
        # unit, so that attack would get no splits: validation rejects it
        with pytest.raises(ConfigError, match="attack.quarantine"):
            small_cfg(**{"recovery.delay": 10, "attack.quarantine": 10, "horizon": 100})
        cfg = small_cfg(**{"recovery.delay": 9, "attack.quarantine": 10, "horizon": 100})
        requests = derived(cfg)
        for policy in ("lb-psvm", "psvm", "br"):
            sim = Simulation(cfg, policy)
            stored = {}
            inject = sim.inject_attack

            def spy(target, t):
                ok = inject(target, t)
                stored[t] = dict(sim.state.proactive)
                return ok

            sim.inject_attack = spy
            records = sim.run(requests)
            assert sorted(stored) == list(range(10, 101, 10)), policy
            for t, splits in stored.items():
                assert splits and None not in splits.values(), (policy, t)
            for r in records:
                assert float(r.unserved_per_service.sum()) == 0.0, (policy, r.time)
                np.testing.assert_allclose(r.served_per_service, r.demand_per_service,
                                           rtol=0, atol=1e-9)

    def test_attack_with_zero_affected_vehicles(self):
        # a hosting node carrying no load fails: nothing to re-home, the
        # record looks like a normal unit apart from the phase flag
        cfg = small_cfg()
        sim = Simulation(cfg, "lb-psvm")
        reqs = derived(cfg)
        sim.step(reqs, 1)
        plc = sim.state.placement
        loads = sim.state.primary.gamma.sum(axis=1)
        idle = [e for e in range(9) if plc.services_on(e) and loads[e] == 0.0]
        if not idle:
            pytest.skip("every hosting node carries load in this draw")
        assert sim.inject_attack(idle[0], 2)
        sim.step(reqs, 2)
        record = sim.state.history[-1]
        assert record.state is SimPhase.ATTACK
        assert not record.failover_active
        assert record.avg_elf == 0.0
        assert record.fairness == 1.0

    def test_attack_unit_uses_scaled_proportions(self):
        cfg = small_cfg()
        sim = Simulation(cfg, "psvm")
        reqs = derived(cfg)
        for t in range(1, 10):
            sim.step(reqs, t)
        gamma_prev = np.array(sim.state.primary.gamma)
        lam_prev = np.array(sim.state.primary_demand)
        target = sim._pick_target()
        sim.inject_attack(target, 10)
        sim.step(reqs, 10)
        record = sim.state.history[-1]
        lam_now = record.demand_per_service
        for s in range(cfg.services_count):
            if lam_prev[s] > 0 and lam_now[s] > 0:
                expect = lam_now[s] / lam_prev[s] * gamma_prev[:, s].sum()
                assert float(record.served_per_service[s]) == pytest.approx(expect, rel=1e-9)


def per_service_attack_serve(sim, lam, d):
    """An attack unit's loads, added and unserved by a loop over services,
    the rule ``Simulation._attack_serve`` states in columns; and how many
    services, with demand now but none at t-1, filled their hosts."""
    st, C = sim.state, sim.capacity
    target = st.attack_target
    loads = np.zeros((len(st.nodes), sim.num_services))
    added = np.zeros_like(loads)
    unserved = np.zeros(sim.num_services)
    fresh = 0
    for s in range(sim.num_services):
        if lam[s] <= 0:
            continue
        prev = st.primary_demand[s]
        if prev <= 0:
            fresh += 1
            remaining = float(lam[s])
            hosts = [e for e in st.placement.nodes_hosting(s) if e != target]
            for e in sorted(hosts, key=lambda e: (d[e, s], e)):
                if remaining <= 0:
                    break
                loads[e, s] = min(remaining, C)
                remaining -= loads[e, s]
            unserved[s] = remaining
            continue
        scaled = st.primary_gamma[:, s] * (float(lam[s]) / float(prev))
        affected = float(scaled[target])
        scaled[target] = 0.0
        loads[:, s] = scaled
        if affected <= 0:
            continue
        mapping = st.proactive.get((target, s))
        if mapping is None:
            unserved[s] = affected
            continue
        share = affected / mapping.affected
        for i, e in enumerate(mapping.candidates):
            added[e, s] += mapping.beta[i] * share
    return (loads, added, unserved), fresh


ATTACK_UNIT_CONFIGS = [
    ({"mobility.vehicles": 20, "mobility.p_request": 0.3, "attack.every": 5, "horizon": 300,
      "seed": 4}, True),
    ({"mobility.vehicles": 15, "mobility.p_request": 0.2, "services.count": 12,
      "grid.rows": 4, "grid.cols": 4, "placement.instances_per_service": 4,
      "attack.every": 3, "attack.quarantine": 3, "horizon": 300, "seed": 9}, True),
    ({"node.capacity": 46}, False),  # unrecovered services, br with no room
]


@pytest.mark.parametrize("over, fresh", ATTACK_UNIT_CONFIGS)
def test_attack_serve_same_bits_as_per_service_loop(over, fresh):
    cfg = ExperimentConfig.from_sources(overrides=over)
    units = derived(cfg)
    counts = {"units": 0, "fresh": 0}
    for policy in cfg.policy_list():
        sim = Simulation(cfg, policy)
        serve = sim._attack_serve

        def checked(lam, d, sim=sim, serve=serve):
            got = serve(lam, d)
            want, n = per_service_attack_serve(sim, lam, d)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            counts["units"] += 1
            counts["fresh"] += n
            return got

        sim._attack_serve = checked
        sim.run(units)
    assert counts["units"] > 0
    assert (counts["fresh"] > 0) == fresh, counts


def per_node_attack_record(sim, loads, added):
    """An attack unit's ELF per node, average ELF and fairness by loops over
    nodes and services, each share read as a scalar."""
    avail = np.maximum(sim.capacity - loads, sim.cfg.lbpsvm_epsilon)
    elf = np.zeros(len(loads))
    for e in range(len(loads)):
        hit = added[e] > 0
        if hit.any():
            elf[e] = float(np.mean(100.0 * added[e, hit] / avail[e, hit]))
    loaded = added.sum(axis=1) > 0
    avg = float(elf[loaded].mean()) if loaded.any() else 0.0
    jains = []
    for s in [s for s in range(sim.num_services) if added[:, s].sum() > 0]:
        m = sim.state.proactive[(sim.state.attack_target, s)]
        x = np.array([added[e, s] / avail[e, s] for e in m.candidates])
        x = x / x.max() if x.max() < sys.float_info.min ** 0.5 else x  # no subnormal squares
        jains.append(float(x.sum()) ** 2 / (len(x) * float((x * x).sum())))
    return elf, avg, float(np.mean(jains)) if jains else 1.0


@pytest.mark.parametrize("over, fresh", ATTACK_UNIT_CONFIGS)
def test_attack_record_same_bits_as_per_node_loops(over, fresh):
    cfg = ExperimentConfig.from_sources(overrides=over)
    units = derived(cfg)
    counts = {"units": 0, "failover": 0, "fresh": 0}
    for policy in cfg.policy_list():
        sim = Simulation(cfg, policy)
        serve, record = sim._attack_serve, sim._attack_record

        def served(lam, d, sim=sim, serve=serve):
            counts["fresh"] += per_service_attack_serve(sim, lam, d)[1]
            return serve(lam, d)

        def checked(t, lam, d, loads, added, unserved, sim=sim, record=record):
            elf, avg, fairness = per_node_attack_record(sim, loads, added)
            record(t, lam, d, loads, added, unserved)
            cols, i = sim.state.history.cols, len(sim.state.history)  # the row just written
            assert cols["elf_per_node"][i].tobytes() == elf.tobytes()
            assert cols["avg_elf"][i] == avg and cols["fairness"][i] == fairness
            assert cols["unserved_per_service"][i].tobytes() == unserved.tobytes()
            total = loads.sum(axis=-2) + added.sum(axis=-2)
            assert cols["served_per_service"][i].tobytes() == total.tobytes()
            counts["units"] += 1
            counts["failover"] += bool(cols["failover_active"][i])

        sim._attack_serve, sim._attack_record = served, checked
        sim.run(units)
    assert counts["units"] >= counts["failover"] > 0
    assert (counts["fresh"] > 0) == fresh, counts


class TestQualityMonitor:
    CAPS = np.array([50.0, 60.0])

    def test_zero_delay_gives_one(self):
        assert evaluate_quality(self.CAPS, [np.zeros(2)]) == 1.0

    def test_delay_at_cap_gives_zero(self):
        assert evaluate_quality(self.CAPS, [np.array([50.0, 60.0])]) == 0.0

    def test_half_cap_sits_on_trigger_boundary(self):
        assert evaluate_quality(self.CAPS, [np.array([25.0, 30.0])]) == pytest.approx(0.5)

    def test_window_mean(self):
        q = evaluate_quality(np.array([100.0]), [np.array([0.0]), np.array([50.0])])
        assert q == pytest.approx(0.75)

    @settings(max_examples=300, deadline=None)
    @given(services=st.integers(1, 39), units=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 60.0, 1e6]))
    def test_same_bits_as_mean_and_clip(self, services, units, seed, scale):
        # up to 39 services passes numpy's 8-term pairwise-sum block; delays
        # range from far below to far above the caps, so both clip bounds act
        rng = np.random.default_rng(seed)
        caps = rng.uniform(1.0, 100.0, services)
        window = rng.random((units, services)) * rng.choice([0.0, 1.0, 2.0, 3.0]) * caps * scale
        want = float(np.mean(np.clip(1.0 - np.mean(window, axis=0) / caps, 0.0, 1.0)))
        got = evaluate_quality(caps, window)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert evaluate_quality(caps, list(window)) == got

    @settings(max_examples=300, deadline=None)
    @given(services=st.integers(1, 39), units=st.integers(1, 14), windows=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 60.0, 1e6]))
    def test_stack_same_bits_as_one_window_calls(self, services, units, windows, seed, scale):
        # a (k, P, S) stack scores each window as a one-window call does, bit
        # for bit, across numpy's 8-term pairwise block in both summed axes
        rng = np.random.default_rng(seed)
        caps = rng.uniform(1.0, 100.0, services)
        stack = (rng.random((windows, units, services)) * rng.choice([0.0, 1.0, 2.0, 3.0])
                 * caps * scale)
        got = evaluate_quality(caps, stack)
        assert got.shape == (windows,)
        want = [evaluate_quality(caps, window) for window in stack]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("period", [1, 3, 5])
    def test_score_over_the_last_period_records(self, period):
        # each evaluation scores the delays of the last ``period`` records,
        # units under attack included; bare steps from t=2 reach the first
        # evaluation with fewer records than that
        cfg = small_cfg(**{"monitor.period": period, "horizon": 40})
        units = derived(cfg)
        runs = [Simulation(cfg, policy).run(units) for policy in cfg.policy_list()]
        sim = Simulation(cfg, "psvm")
        for t in range(2, cfg.horizon + 1):
            sim.step(units, t)
        runs.append(sim.state.history)
        scores = []
        for records in runs:
            for i, r in enumerate(records):
                if r.time % period == 0:
                    window = [w.per_service_delay for w in records[max(0, i - period + 1):i + 1]]
                    assert r.q_value == evaluate_quality(sim.thresholds, window), r.time
                    scores.append(r.q_value)
        # three runs from t=1, the bare steps from t=2
        assert len(scores) == 4 * (cfg.horizon // period) - (period == 1)
        assert len(set(scores)) > len(scores) // 2
        assert any(r.state is SimPhase.ATTACK for r in runs[0])

    def test_recorded_q_in_range_and_cadence(self):
        _, records = run_sim(small_cfg())
        assert all(0.0 <= r.q_value <= 1.0 for r in records)
        # q updates only every 5 units: constant within each window
        assert records[0].q_value == records[3].q_value == 1.0
        assert records[4].q_value != 1.0 or records[4].avg_delay == 0.0

    def test_low_quality_triggers_replacement(self):
        cfg = small_cfg(**{"monitor.threshold": 1.0, "attack.every": 1000})
        sim = Simulation(cfg, "lb-psvm")
        reqs = derived(cfg)
        for t in range(1, 6):
            sim.step(reqs, t)
        # threshold 1.0 cannot be met, so the 5th unit flags a re-placement
        assert sim.state.pending_reopt


class TestBrPolicy:
    def test_failover_goes_to_reserved_instance(self):
        cfg = small_cfg()
        sim = Simulation(cfg, "br")
        reqs = derived(cfg)
        for t in range(1, 10):
            sim.step(reqs, t)
        plc = sim.state.placement
        target = sim._pick_target()
        lost = plc.services_on(target)
        assert lost
        sim.inject_attack(target, 10)
        sim.step(reqs, 10)
        record = sim.state.history[-1]
        reserved_nodes = {s: plc.reserved_nodes(s) for s in lost}
        for s in lost:
            mapping = sim.state.proactive.get((target, s))
            if mapping is not None and mapping.affected > 0:
                assert set(mapping.candidates) <= set(reserved_nodes[s])
        assert record.failover_active

    def test_reserved_promoted_on_recovery(self):
        cfg = small_cfg()
        sim = Simulation(cfg, "br")
        reqs = derived(cfg)
        for t in range(1, 12):
            if t == 10:
                sim.inject_attack(sim._pick_target(), t)
            sim.step(reqs, t)
        plc = sim.state.placement
        # after recovery every service is hosted on >= 2 nodes again
        assert (plc.instance_counts() >= 2).all()

    def test_no_room_for_any_backup_degrades_to_psvm(self, caplog):
        # node capacity 46 holds the three instances of every service (408
        # of 414 units) but no backup: br reserves none, logs every service
        # and serves exactly as psvm does
        cfg = small_cfg(**{"node.capacity": 46})
        with caplog.at_level(logging.WARNING, logger="edgefail.simulation"):
            _, br = run_sim(cfg, "br")
        _, ps = run_sim(cfg, "psvm")
        assert len(br) == cfg.horizon
        assert [same_record(a, b) for a, b in zip(br, ps)] == [True] * cfg.horizon
        skipped = [m for m in caplog.messages if m.startswith("t=1: no room to reserve")]
        assert skipped == [f"t=1: no room to reserve a backup of service {s}"
                           for s in (7, 6, 5, 4, 3, 2, 1, 0)]

    def test_backups_where_room_is_left(self):
        # at capacity 55 a strict reservation fails; br reserves each
        # service it can in footprint order and the run goes to the end
        cfg = small_cfg(**{"node.capacity": 55})
        units = derived(cfg)
        sim = Simulation(cfg, "br")
        sim.step(units, 1)
        plc = place_services(sim.services, sim.state.nodes, DelayModel(units.delay[0]),
                             cfg.placement_instances_per_service)
        order = sorted(range(8), key=lambda s: (-sim.services[s].resource_cost, s))
        plc, missing = reserve_backup(plc, order, sim.services, sim.state.nodes)
        assert missing and [s for s in order if s in missing] == missing
        assert np.array_equal(sim.state.placement.reserved, plc.reserved)
        assert 0 < plc.reserved.sum() < 8
        for t in range(2, cfg.horizon + 1):
            sim.step(units, t)
        assert len(sim.state.history) == cfg.horizon


def same_record(a, b):
    """Whether two metrics records agree in every field, bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def calls_by_policy(monkeypatch, name, weight=lambda *args: 1):
    """Calls of ``simulation.<name>``, each counted as ``weight(*args)``, by
    the policy that ``experiment.simulate_policy`` is running."""
    counts, policy = {}, []
    func, simulate = getattr(simulation, name), experiment.simulate_policy

    def counted(*args, **kwargs):
        counts[policy[-1]] = counts.get(policy[-1], 0) + weight(*args)
        return func(*args, **kwargs)

    def tagged(cfg, policy_name, *args, **kwargs):
        policy.append(policy_name)
        return simulate(cfg, policy_name, *args, **kwargs)

    monkeypatch.setattr(simulation, name, counted)
    monkeypatch.setattr(experiment, "simulate_policy", tagged)
    return counts


def primary_rows(monkeypatch):
    """Units passed to the simulation's primary solve, by policy."""
    return calls_by_policy(monkeypatch, "solve_primary_mapping",
                           lambda placement, demand, *args: len(np.atleast_2d(demand)))


class TestSharedInputs:
    def test_run_records_equal_standalone_runs(self, tmp_path):
        # run() derives each unit once for every policy and shares one
        # primary-serving store; each policy's records equal those of a
        # run that derives its own inputs and serves its own units
        cfg = small_cfg(horizon=24)
        art = run(cfg, out=str(tmp_path / "o"))
        for policy in cfg.policy_list():
            alone = simulate_policy(cfg, policy)
            assert len(art.records[policy]) == len(alone) == cfg.horizon
            assert all(same_record(a, b) for a, b in zip(art.records[policy], alone)), policy

    def test_calm_units_served_once_per_active_placement(self, tmp_path, monkeypatch):
        # psvm keeps lb-psvm's active instances, so every calm block it
        # needs is one lb-psvm served; lb-psvm serves what it serves alone
        rows = primary_rows(monkeypatch)
        cfg = small_cfg(horizon=80)
        run(cfg, out=str(tmp_path / "o"))
        shared = dict(rows)
        rows.clear()
        for policy in cfg.policy_list():
            experiment.simulate_policy(cfg, policy)
        assert shared["lb-psvm"] == rows["lb-psvm"] > 0
        assert "psvm" not in shared and rows["psvm"] > 0
        assert shared.get("br", 0) < rows["br"]

    def test_placements_and_recoveries_computed_once(self, tmp_path, monkeypatch):
        # the inputs own placement searches and recoveries too: psvm places
        # and recovers as lb-psvm does, so it computes none of them; br
        # reserves on lb-psvm's placements and recovers its own backups;
        # lb-psvm computes what it computes alone
        places = calls_by_policy(monkeypatch, "place_services")
        recoveries = calls_by_policy(monkeypatch, "recover_placement")
        cfg = small_cfg(horizon=80, **{"monitor.threshold": 0.99})

        def counts():
            got = {p: (places.pop(p, 0), recoveries.pop(p, 0)) for p in cfg.policy_list()}
            assert not places and not recoveries
            return got

        run(cfg, out=str(tmp_path / "o"))
        shared = counts()
        for policy in cfg.policy_list():
            experiment.simulate_policy(cfg, policy)
        alone = counts()
        assert shared["lb-psvm"] == alone["lb-psvm"] and min(alone["lb-psvm"]) > 1
        assert shared["psvm"] == (0, 0) and min(alone["psvm"]) > 1
        assert sum(shared["br"]) < sum(alone["br"])

    def test_store_holds_only_readable_recoveries(self, tmp_path, monkeypatch):
        # br's recoveries are keyed on its backups, which no other policy
        # has, so they are computed and not stored; br's rows stay its own
        inputs, derive = [], experiment.derive_inputs
        monkeypatch.setattr(experiment, "derive_inputs",
                            lambda *args: inputs.append(derive(*args)) or inputs[-1])
        cfg = small_cfg(horizon=80, **{"monitor.threshold": 0.99})
        art = run(cfg, out=str(tmp_path / "o"))
        recoveries = [key for key in inputs[0].placed if len(key) == 5]
        assert recoveries and not any(any(reserved) for _, _, _, reserved, _ in recoveries)
        alone = simulate_policy(cfg, "br")
        assert len(art.records["br"]) == len(alone) == cfg.horizon
        assert all(map(same_record, art.records["br"], alone))

    def test_runs_in_one_process_give_standalone_bytes(self, tmp_path, monkeypatch):
        # a store that outlived its run would serve the second seed's calm
        # units from the first seed's blocks
        src = os.path.dirname(os.path.dirname(simulation.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        seeds, want = (5, 6), {}
        for seed in seeds:
            conf, out = tmp_path / f"{seed}.conf", tmp_path / f"alone{seed}"
            conf.write_text("".join(f"{k} = {v}\n" for k, v in {**SMALL, "seed": seed}.items()))
            subprocess.run([sys.executable, "-m", "edgefail.cli", "run", "--config", str(conf),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            want[seed] = [(out / name).read_bytes() for name in ("metrics.csv", "summary.csv")]
        rows = primary_rows(monkeypatch)
        for seed in seeds:
            run(small_cfg(seed=seed), out=str(tmp_path / f"run{seed}"))
            got = [(tmp_path / f"run{seed}" / name).read_bytes()
                   for name in ("metrics.csv", "summary.csv")]
            assert got == want[seed], seed
        assert "psvm" not in rows and rows["lb-psvm"] > 0

    def test_delay_matrix_derived_once_per_unit(self, tmp_path, monkeypatch):
        calls = []
        derive = simulation.derive_delay_matrix

        def counted(*args, **kwargs):
            calls.append(args[0])
            return derive(*args, **kwargs)

        monkeypatch.setattr(simulation, "derive_delay_matrix", counted)
        cfg = small_cfg()
        assert len(cfg.policy_list()) == 3
        run(cfg, out=str(tmp_path / "o"))
        assert sum(map(len, calls)) == cfg.horizon


def left_state(st):
    """What a step leaves for the next unit: the inputs of an onset split
    and the monitor's state, as bytes."""
    arrays = (st.primary_gamma, st.primary_demand, st.delay_matrix)
    return (*(None if a is None else a.tobytes() for a in arrays), st.q_value, st.pending_reopt)


def stepped(cfg, policy, units, states=None):
    """The records of ``run``, from bare ``step`` calls: run's loop, unit by
    unit.  Checks each served vector against a sum over one unit's loads;
    ``states``, when given, gets each unit's ``left_state``."""
    sim = Simulation(cfg, policy)
    st = sim.state
    for t in range(1, len(units) + 1):
        if st.recover_at == t:
            sim.recover(t)
        if st.heal_at == t:
            sim.heal(t)
        target = sim._scheduled_target(t)
        if target is not None:
            sim.inject_attack(target, t)
        sim.step(units, t)
        record = st.history[-1]
        if record.state is not SimPhase.ATTACK:
            assert np.array_equal(record.served_per_service, st.primary.gamma.sum(axis=0)), t
        if states is not None:
            states[t] = left_state(st)
    return st.history


# a monitor re-placement at t=16, while node 1 is quarantined, finds the
# healthy nodes too small for every instance
SATURATED_REPLACEMENT = {
    "grid.rows": 2, "grid.cols": 2, "services.count": 4, "node.capacity": 50,
    "placement.instances_per_service": 3, "horizon": 40, "attack.every": 10,
    "mobility.vehicles": 120, "mobility.p_request": 0.2, "monitor.threshold": 0.9,
    "seed": 0,
}


# the default fleet, whose quality crosses this threshold now and then:
# some placements outlive several monitor evaluations, then get replaced
# inside a later lookahead
INTERMITTENT_REPLACEMENT = {
    "horizon": 300, "attack.every": 300, "monitor.threshold": 0.855,
    "mobility.vehicles": 500, "mobility.p_request": 0.2, "seed": 1,
}


def lookaheads(monkeypatch):
    """Record (active instances, first unit, rows) of every lookahead a
    simulation computes."""
    seen = []
    look_ahead = Simulation._look_ahead

    def counted(self, unit, t):
        look = look_ahead(self, unit, t)
        seen.append((look.x, look.t0, len(look.gamma)))
        return look

    monkeypatch.setattr(Simulation, "_look_ahead", counted)
    return seen


class TestLookahead:
    @pytest.mark.parametrize("over", [
        {"monitor.threshold": 0.97},
        {"monitor.threshold": 0.99, "monitor.period": 3},
        {"attack.target": "random", "attack.every": 7, "recovery.delay": 3},
        {"attack.schedule": "10:4,30:0,55:8"},
        {"mobility.vehicles": 650},
        {"service.capacity": 30.7},
        {"grid.rows": 4, "grid.cols": 4, "services.count": 12, "mobility.vehicles": 900},
        SATURATED_REPLACEMENT,
        INTERMITTENT_REPLACEMENT,
        {"services.count": 1, "mobility.vehicles": 120, "service.capacity": 30.7},
    ], ids=["q097", "q099-period3", "random7-recovery3", "schedule", "vehicles650",
            "capacity30.7", "grid4x4", "saturated-replacement", "intermittent-replacement",
            "one-service"])
    def test_run_equals_bare_steps(self, over):
        # a lookahead's rows are the bits a one-unit step computes
        cfg = small_cfg(**{"horizon": 80, **over})
        units = derived(cfg)
        for policy in cfg.policy_list():
            got = Simulation(cfg, policy).run(units)
            want = stepped(cfg, policy, units)
            assert len(got) == len(want) == cfg.horizon
            for a, b in zip(got, want):
                assert same_record(a, b), (policy, a.time)

    @pytest.mark.parametrize("over, replacements, carried", [
        ({"horizon": 2000, "attack.every": 2000, "monitor.threshold": 0.99}, 100, False),
        (INTERMITTENT_REPLACEMENT, 10, False),
        ({"horizon": 400, "attack.every": 150}, 0, True),
    ], ids=["replacement-storm", "intermittent-replacement", "calm"])
    def test_rows_computed_within_twice_rows_used(self, monkeypatch, over, replacements,
                                                  carried):
        seen, placed, recovered = lookaheads(monkeypatch), [], []
        place, recover = Simulation._place, Simulation.recover

        def spy_place(sim, d, t):
            before = sim.state.placement
            place(sim, d, t)
            if sim.state.placement is not before:  # a failed re-placement keeps it
                placed.append(t)

        monkeypatch.setattr(Simulation, "_place", spy_place)
        monkeypatch.setattr(Simulation, "recover",
                            lambda sim, t: recovered.append(t) or recover(sim, t))
        cfg = small_cfg(**over)
        period = cfg.monitor_period
        records = Simulation(cfg, "psvm").run(derived(cfg))
        served = sum(r.state is not SimPhase.ATTACK for r in records)

        def since(units, i):  # whether one of the units falls in (block i - 1's t0, block i's]
            return any(seen[i - 1][1] < u <= seen[i][1] for u in units)

        # the first lookahead after a placement ends at the next monitor
        # unit; any other is at most twice the one before it, also across
        # a recovery, which changes the active instances
        firsts = {i for i in range(len(seen)) if i == 0 or since(placed, i)}
        rows = sum(n for _, _, n in seen)
        assert len(seen) < served / 4
        assert served <= rows <= 2 * served + period * len(placed)
        assert len(placed) > replacements
        for i, (x, t0, n) in enumerate(seen):
            if i in firsts:  # through the next monitor evaluation at most
                assert t0 + n - 1 <= t0 + (-t0) % period, t0
            else:
                assert n <= 2 * seen[i - 1][2], t0
        if carried:  # a block after a recovery may run past the next monitor unit
            after = [i for i in range(1, len(seen)) if i not in firsts and since(recovered, i)]
            assert recovered and len(after) == len(recovered)
            assert any(seen[i][1] + seen[i][2] - 1 > seen[i][1] + (-seen[i][1]) % period
                       for i in after), [seen[i][1:] for i in after]

    def test_default_blocks_carry_their_reach_over_recoveries(self):
        # the default run: only a placement restarts a block's reach, so
        # lb-psvm serves its calm units in 11 blocks, psvm reads them all
        # and br, whose recoveries promote backups, serves its own in 6;
        # the rows stay the bits of one-unit steps
        cfg = ExperimentConfig.from_sources(overrides={"seed": 1})
        units = derived(cfg)
        gained = {}
        for policy in cfg.policy_list():
            before = len(units.served)
            got = simulate_policy(cfg, policy, inputs=units)
            gained[policy] = len(units.served) - before
            want = stepped(cfg, policy, units)
            assert len(got) == len(want) == cfg.horizon
            for a, b in zip(got, want):
                assert same_record(a, b), (policy, a.time)
        assert gained == {"lb-psvm": 11, "psvm": 0, "br": 6}

    @pytest.mark.parametrize("policy", ["lb-psvm", "psvm", "br"])
    def test_overload_raises_at_its_unit(self, policy):
        cfg = small_cfg()
        units = derived(cfg)
        demand = np.array(units.demand)
        demand[6, 0] = 1000.0
        units = simulation.StreamInputs(demand, units.delay)
        sim = Simulation(cfg, policy)
        with pytest.raises(InfeasibleError) as exc:
            sim.run(units)
        assert str(exc.value) == "t=7: service 0: demand 1000 exceeds capacity 90 across 3 instance(s)"
        assert [r.time for r in sim.state.history] == list(range(1, 7))

    def test_overload_stores_the_block_cut_before_it(self):
        # the block holding the overloaded unit is stored cut before it, the
        # unit's own serving raises and stores nothing, and psvm reads the
        # blocks lb-psvm stored; stored arrays are read-only
        cfg = small_cfg()
        units = derived(cfg)
        demand = np.array(units.demand)
        demand[6, 0] = 1000.0
        units = simulation.StreamInputs(demand, units.delay)
        for policy in ("lb-psvm", "psvm"):
            with pytest.raises(InfeasibleError, match="^t=7: service 0"):
                Simulation(cfg, policy).run(units)
        # keyed (x, t0, uncut end, service capacity, queue scale)
        looks = sorted(units.served.items(), key=lambda item: item[0][1])
        assert [(t0, end - t0, len(look.gamma)) for (_x, t0, end, *_), look in looks] == [
            (1, 5, 5), (6, 4, 1)]
        assert not any(a.flags.writeable for _key, look in looks for a in (look.delay, look.gamma))

    @pytest.mark.parametrize("policy", ["lb-psvm", "psvm", "br"])
    def test_failed_replacement_keeps_placement(self, policy, caplog):
        cfg = small_cfg(**SATURATED_REPLACEMENT)
        with caplog.at_level(logging.WARNING, logger="edgefail.simulation"):
            records = Simulation(cfg, policy).run(derived(cfg))
        assert [r.time for r in records] == list(range(1, cfg.horizon + 1))
        assert "t=16: re-placement failed, keeping the current placement" in caplog.text

    def test_failed_first_placement_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise InfeasibleError("no room")

        monkeypatch.setattr(simulation, "place_services", fail)
        cfg = small_cfg()
        with pytest.raises(InfeasibleError, match="no room"):
            Simulation(cfg, "psvm").step(derived(cfg), 1)

    @pytest.mark.parametrize("t", [0, 31])
    def test_step_outside_the_units_raises(self, t):
        # row t - 1 of the inputs: t = 0 must not read the last unit
        with pytest.raises(IndexError, match=f"t={t} is outside units 1..30"):
            Simulation(small_cfg(), "psvm").step(derived(small_cfg()), t)


# configs (the small fleet over 80 units unless named) whose stretches of rows
# closed ahead end at every kind of event: a monitor unit that triggers a
# re-placement, the unit before an onset, the unit before a heal, a
# lookahead's end and the horizon; the flag says whether any row is closed ahead
CLOSE_AHEAD = {
    # at period 1 every unit's score is below the threshold: none is closed ahead
    **{f"replace-period{p}": ({"horizon": 120, "attack.every": 40, "monitor.period": p,
                              "monitor.threshold": 0.99}, p > 1) for p in (1, 2, 3, 7, 13)},
    "schedule-quarantine15": ({"attack.schedule": "10:4,25:0,40:8,55:4",
                               "attack.quarantine": 15}, True),
    "heal-before-onset": ({"horizon": 100, "attack.schedule": "10:4,40:0,70:8",
                           "attack.quarantine": 12, "recovery.delay": 2}, True),
    "random7-recovery3": ({"attack.target": "random", "attack.every": 7,
                           "recovery.delay": 3}, True),
    "every3": ({"attack.every": 3, "attack.quarantine": 3, "recovery.delay": 2}, False),
    "horizon83-period5": ({"horizon": 83, "attack.every": 30}, True),
    "horizon97-period7": ({"horizon": 97, "attack.every": 30, "monitor.period": 7}, True),
    # a score below the threshold inside a lookahead, not at its end
    "intermittent-replacement": (INTERMITTENT_REPLACEMENT, True),
}


def closed_ahead_run(monkeypatch, cfg, policy, units):
    """Run ``policy`` and return its records, the units whose step took the
    full path (it closed its own row), the step calls per unit, the heal
    units, each unit's ``left_state`` and the (first, last) unit of each
    lookahead read."""
    full, calls, heals, states, blocks = [], {}, [], {}, []
    commit, step, heal = RunTable.commit, Simulation.step, Simulation.heal
    look_ahead = Simulation._look_ahead

    def spy_commit(table, *args):
        full.append(len(table) + 1)  # a run's row i is unit i + 1
        return commit(table, *args)

    def spy_step(sim, inputs, t):
        calls[t] = calls.get(t, 0) + 1
        step(sim, inputs, t)
        states[t] = left_state(sim.state)

    def spy_heal(sim, t):
        heals.append(t)
        heal(sim, t)

    def spy_look_ahead(sim, inputs, t):
        look = look_ahead(sim, inputs, t)
        blocks.append((t, t + len(look.gamma) - 1))
        return look

    with monkeypatch.context() as m:
        m.setattr(RunTable, "commit", spy_commit)
        m.setattr(Simulation, "step", spy_step)
        m.setattr(Simulation, "heal", spy_heal)
        m.setattr(Simulation, "_look_ahead", spy_look_ahead)
        records = Simulation(cfg, policy).run(units)
    return records, sorted(set(full)), calls, heals, states, blocks


class TestCloseAhead:
    @pytest.mark.parametrize("over, ahead", CLOSE_AHEAD.values(), ids=CLOSE_AHEAD)
    def test_run_equals_bare_steps(self, monkeypatch, over, ahead):
        # rows closed ahead are the bits of one-unit steps; the last unit of
        # a stretch leaves the state its bare step does; run steps each unit
        # once, and the units before an onset or a heal take the full path
        cfg = small_cfg(**{"horizon": 80, **over})
        units = derived(cfg)
        for policy in cfg.policy_list():
            want_states = {}
            want = stepped(cfg, policy, units, want_states)
            got, full, calls, heals, states, _ = closed_ahead_run(monkeypatch, cfg, policy, units)
            assert len(got) == len(want) == cfg.horizon
            for a, b in zip(got, want):
                assert same_record(a, b), (policy, a.time)
            assert calls == {t: 1 for t in range(1, cfg.horizon + 1)}, policy
            assert (len(full) < cfg.horizon) == ahead, policy
            # a stretch's last unit is followed by a full step or the horizon
            for t in full + [u - 1 for u in full] + [cfg.horizon]:
                if t >= 1:
                    assert states[t] == want_states[t], (policy, t)
            for t in onsets(got) + heals:
                assert t == 1 or t - 1 in full, (policy, t)

    def test_stretches_end_at_every_event(self, monkeypatch):
        # the configs above close stretches at each kind of end, and at no other
        kinds = set()
        for over, _ in CLOSE_AHEAD.values():
            cfg = small_cfg(**{"horizon": 80, **over})
            _, full, _, heals, states, blocks = closed_ahead_run(
                monkeypatch, cfg, "psvm", derived(cfg))
            # an attack may start there, even if its target hosts nothing
            onset_units = ({t for t, _ in cfg.schedule_list()}
                           or set(range(cfg.attack_every, cfg.horizon + 1, cfg.attack_every)))
            starts = [t for t in full if t + 1 not in full and t < cfg.horizon]
            for t in starts:  # the stretch from t + 1 to the unit before the next full step
                end = next((u - 1 for u in full if u > t), cfg.horizon)
                block_end = [last for first, last in blocks if first <= t][-1]
                after = end + 2  # the event a stretch must end two units before
                kinds.add("re-placement" if states[end][-1] and end < block_end
                          else "horizon" if end == cfg.horizon
                          else "onset" if after in onset_units
                          else "heal" if after in heals
                          else "lookahead" if end == block_end else ("other", t, end))
        assert kinds == {"re-placement", "onset", "heal", "lookahead", "horizon"}


class TestSingleCandidateCollapse:
    def test_lb_and_psvm_identical_when_one_candidate(self):
        cfg = small_cfg(**{"placement.instances_per_service": 2})
        _, lb = run_sim(cfg, "lb-psvm")
        _, ps = run_sim(cfg, "psvm")
        saw_failover = False
        for a, b in zip(lb, ps):
            assert a.avg_delay == pytest.approx(b.avg_delay, abs=1e-9)
            assert a.avg_elf == pytest.approx(b.avg_elf, abs=1e-9)
            assert a.fairness == pytest.approx(b.fairness, abs=1e-9)
            saw_failover |= a.failover_active
        assert saw_failover


class TestRecordShape:
    def test_record_fields(self):
        _, records = run_sim(small_cfg())
        assert len(records) == 30
        r = records[0]
        assert isinstance(r, MetricsRecord)
        assert r.per_service_delay.shape == (8,)
        assert r.elf_per_node.shape == (9,)
        assert (r.per_service_delay >= 0).all()


class TestRunTable:
    def test_summarize_same_bits_as_per_record_means(self):
        # column means are the pairwise sums np.mean takes over lists of the
        # records' values
        cfg = small_cfg(**{"mobility.vehicles": 400, "mobility.p_request": 0.8})
        for policy in cfg.policy_list():
            _, records = run_sim(cfg, policy)
            failover = [r for r in records if r.failover_active]
            assert failover
            assert summarize(records) == {
                "avg_delay_ms": float(np.mean([r.avg_delay for r in records])),
                "avg_elf_attack_pct": float(np.mean([r.avg_elf for r in failover])),
                "mean_fairness": float(np.mean([r.fairness for r in failover])),
            }

    def test_bare_steps_past_the_horizon_grow_the_table(self):
        # the table is preallocated over the horizon of 4 units; bare steps
        # over 30 units, attacks included, give the rows of a 30-unit run
        cfg = small_cfg(**{"horizon": 4})
        assert len(Simulation(cfg, "psvm").state.history.cols["time"]) == cfg.horizon
        units = derived(small_cfg())
        for policy in cfg.policy_list():
            history = stepped(cfg, policy, units)
            want = Simulation(small_cfg(), policy).run(units)
            assert len(history) == len(want) == len(units) <= len(history.cols["time"])
            assert all(same_record(a, b) for a, b in zip(history, want)), policy
            assert onsets(history) == [10, 20, 30]

    def test_sequence_of_records(self):
        _, records = run_sim(small_cfg())
        rows = list(records)
        assert all(isinstance(r, MetricsRecord) for r in rows)
        assert same_record(records[-1], rows[-1]) and records[-1].time == 30
        assert [r.time for r in records[5:8]] == [6, 7, 8]
        with pytest.raises(IndexError):
            records[30]
        with pytest.raises(ValueError):  # the table's arrays are read-only views
            records[0].per_service_delay[0] = 1.0

    def test_validated_at_write(self):
        sim = Simulation(small_cfg(), "psvm")
        table = sim.state.history
        with pytest.raises(ValueError, match="q_value"):
            table.commit(SimPhase.PRE_ATTACK, 1.5)
        with pytest.raises(ValueError, match="q_value"):  # a row closed ahead is checked too
            table.commit(SimPhase.PRE_ATTACK, 0.5, 0.5, -0.1)
        with pytest.raises(ValueError, match="fairness"):
            table.write(slice(0, 1), fairness=0.0)
        assert len(table) == 0

    @pytest.mark.parametrize("over", [
        {"attack.schedule": "10:4,30:0,55:3", "attack.quarantine": 15},
        {"attack.schedule": "10:4,30:0,55:2", "attack.quarantine": 20},  # a gap of 20 fires
        {"attack.schedule": "3:1,9:2,21:5,40:0", "attack.quarantine": 6, "recovery.delay": 2},
    ])
    def test_every_scheduled_onset_appears(self, over):
        # validate() rejects an attack inside the previous one's quarantine,
        # so each one on a hosting node starts
        cfg = small_cfg(**{"horizon": 80, **over})
        for policy in cfg.policy_list():
            _, records = run_sim(cfg, policy)
            assert onsets(records) == [t for t, _ in cfg.schedule_list()], policy


@st.composite
def small_configs(draw):
    """Overrides of a small config that passes ``validate()``: 2 to 9 nodes,
    tight to loose capacities that meet the footprint budget (a placement
    at t=1 may still fail), attacks by cadence or by a drawn schedule."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2 if rows == 1 else 1, 3))
    services = draw(st.integers(1, 5))
    instances = draw(st.integers(2, min(4, rows * cols)))
    need = instances * sum(10 + 2 * s for s in range(services))
    recovery = draw(st.integers(1, 4))
    quarantine = draw(st.integers(recovery + 1, recovery + 6))
    over = {
        "grid.rows": rows,
        "grid.cols": cols,
        "services.count": services,
        "placement.instances_per_service": instances,
        "node.capacity": draw(st.sampled_from(
            [c for c in (30.0, 46.0, 60.0, 100.0, 200.0) if c * rows * cols >= need])),
        "service.capacity": draw(st.sampled_from([5.0, 15.0, 30.0])),
        "mobility.vehicles": draw(st.integers(10, 150)),
        "mobility.p_request": draw(st.sampled_from([0.1, 0.3, 0.6])),
        "monitor.period": draw(st.integers(1, 5)),
        "monitor.threshold": draw(st.sampled_from([0.5, 0.9, 0.99])),
        "recovery.delay": recovery,
        "attack.quarantine": quarantine,
        "attack.target": draw(st.sampled_from(["most-loaded", "random"])),
        "horizon": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**16)),
    }
    if draw(st.booleans()):
        over["attack.every"] = draw(st.integers(1, 15))
    else:
        # each scheduled attack at least a quarantine after the one before
        times = [draw(st.integers(1, 40))]
        for _ in range(draw(st.integers(0, 3))):
            times.append(times[-1] + draw(st.integers(quarantine, quarantine + 12)))
        over["attack.schedule"] = ",".join(
            f"{t}:{draw(st.integers(0, rows * cols - 1))}" for t in times)
    return over


# the failures ROADMAP item 1 still leaves open: no placement at t=1, and
# demand beyond the capacity of a service's instances
OVERLOAD = re.compile(r"t=\d+: service \d+: demand \S+ exceeds capacity")


def check_splits_at_onset(sim):
    """Wrap ``inject_attack`` to check that each stored split re-homes
    exactly its affected vehicles."""
    inject = sim.inject_attack

    def checked(target, t):
        ok = inject(target, t)
        for mapping in sim.state.proactive.values():
            if mapping is not None:
                assert float(np.sum(mapping.beta)) == pytest.approx(mapping.affected, abs=1e-9)
        return ok

    sim.inject_attack = checked


def check_instances_kept(sim):
    """Wrap ``recover`` and ``_place`` to check that no recovery or
    (re-)placement leaves a service without an active instance."""
    for name in ("recover", "_place"):
        def checked(*args, method=getattr(sim, name)):
            method(*args)
            assert sim.state.placement.instance_counts().min() >= 1

        setattr(sim, name, checked)


@settings(max_examples=150, deadline=None)
@given(small_configs())
def test_every_valid_config_runs_or_fails_cleanly(over):
    try:
        cfg = ExperimentConfig.from_sources(overrides=over)
    except ConfigError:
        return
    units = derived(cfg)
    for policy in cfg.policy_list():
        sim = Simulation(cfg, policy)
        check_splits_at_onset(sim)
        check_instances_kept(sim)
        try:
            records = sim.run(units)
        except InfeasibleError as exc:
            assert not sim.state.history or OVERLOAD.match(str(exc)), str(exc)
            continue
        assert [r.time for r in records] == list(range(1, cfg.horizon + 1))
        assert records[0].state is SimPhase.PRE_ATTACK
        for r in records:
            np.testing.assert_allclose(r.served_per_service + r.unserved_per_service,
                                       r.demand_per_service, rtol=0, atol=1e-9)
            assert 0.0 <= r.q_value <= 1.0
        for a, b in zip(records, records[1:]):
            assert b.state in LEGAL_NEXT[a.state], (a.time, a.state, b.state)


def records_or_error(simulate):
    """The records ``simulate()`` returns, or the message of its InfeasibleError."""
    try:
        return list(simulate())
    except InfeasibleError as exc:
        return str(exc)


# at t=1 a node of capacity 15 holds one instance and one of 30 holds
# two: the same instance count, placed otherwise
SHARED_PLACEMENT = {
    "grid.rows": 2, "grid.cols": 2, "services.count": 2, "placement.instances_per_service": 2,
    "node.capacity": 30.0, "service.capacity": 5.0, "mobility.vehicles": 10,
    "mobility.p_request": 0.1, "monitor.period": 1, "monitor.threshold": 0.5,
    "recovery.delay": 1, "attack.quarantine": 2, "attack.target": "most-loaded", "horizon": 1,
    "seed": 0, "attack.schedule": "1:0",
}
# a recovery of a placement that nodes of capacity 60 and 120 make alike,
# which the bigger nodes recover otherwise; three instances of each
# service are placed otherwise than two
SHARED_RECOVERY = {
    "grid.rows": 2, "grid.cols": 2, "services.count": 5, "placement.instances_per_service": 2,
    "node.capacity": 60.0, "service.capacity": 15.0, "mobility.vehicles": 121,
    "mobility.p_request": 0.1, "monitor.period": 2, "monitor.threshold": 0.9,
    "recovery.delay": 2, "attack.quarantine": 5, "attack.target": "random", "horizon": 21,
    "seed": 5, "attack.every": 2,
}


@settings(max_examples=60, deadline=None)
@given(small_configs(), st.sampled_from([5.0, 15.0, 30.0, 60.0]), st.sampled_from([1000.0, 250.0]),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([-1, 0, 1]))
@example(SHARED_PLACEMENT, 5.0, 1000.0, 0.5, 0)
@example(SHARED_RECOVERY, 15.0, 1000.0, 1.0, 1)
@example(SHARED_RECOVERY, 15.0, 1000.0, 2.0, 0)
def test_shared_inputs_give_standalone_records(over, capacity, ms_per_unit, node_scale, more):
    # a sibling config with another service capacity or queue scale, half,
    # the same or twice the node capacity and one instance fewer, the same
    # or one more serves the shared inputs first, then bare steps and a run
    # over them; each gives the records of a run over inputs of its own.  A
    # sibling above every drawn capacity (60) stores blocks that load an
    # instance past the config's capacity, and one with other nodes or
    # instances stores placements and recoveries the config would not make:
    # a store keyed without them would serve those
    try:
        cfg = ExperimentConfig.from_sources(overrides=over)
    except ConfigError:
        return
    # built without validation: a sibling whose instances outgrow its nodes
    # fails its t=1 placement and stores nothing
    sibling = dataclasses.replace(
        cfg, service_capacity=capacity, queue_ms_per_unit=ms_per_unit,
        node_capacity=cfg.node_capacity * node_scale,
        placement_instances_per_service=max(2, cfg.placement_instances_per_service + more))
    shared = derived(cfg)
    for policy in cfg.policy_list():
        records_or_error(lambda: Simulation(sibling, policy).run(shared))
        want = records_or_error(lambda: Simulation(cfg, policy).run(derived(cfg)))
        for got in (records_or_error(lambda: stepped(cfg, policy, shared)),
                    records_or_error(lambda: Simulation(cfg, policy).run(shared))):
            if isinstance(want, str):
                assert got == want, policy
            else:
                assert not isinstance(got, str), (policy, got)
                assert len(got) == len(want) and all(map(same_record, got, want)), policy


@st.composite
def machine_configs(draw):
    """Overrides of a small config that passes ``validate()``: 2 to 9 nodes,
    tight to loose capacities.  Attacks come from the machine's rules."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2 if rows == 1 else 1, 3))
    services = draw(st.integers(1, 5))
    instances = draw(st.integers(2, min(4, rows * cols)))
    need = instances * sum(10 + 2 * s for s in range(services))
    return {
        "grid.rows": rows,
        "grid.cols": cols,
        "services.count": services,
        "placement.instances_per_service": instances,
        "node.capacity": draw(st.sampled_from(
            [c for c in (30.0, 46.0, 60.0, 100.0, 200.0) if c * rows * cols >= need])),
        "service.capacity": draw(st.sampled_from([5.0, 15.0, 30.0])),
        "mobility.vehicles": draw(st.integers(10, 150)),
        "mobility.p_request": draw(st.sampled_from([0.1, 0.3, 0.6])),
        "monitor.period": draw(st.integers(1, 5)),
        "monitor.threshold": draw(st.sampled_from([0.5, 0.9, 0.99])),
        "horizon": 30,
        "seed": draw(st.integers(0, 2**16)),
    }


class BareSteps(RuleBasedStateMachine):
    """Bare ``step``, ``inject_attack``, ``recover`` and ``heal`` calls in
    ``run``'s order: within a unit, a recovery or the node's return, then an
    onset, then the step.  A recovery comes at least one unit after its
    onset; the node may also return in its place.  Each onset's splits are
    checked to sum to their affected counts (``check_splits_at_onset``),
    and every service keeps an active instance once placed."""

    @initialize(over=machine_configs(), policy=st.sampled_from(POLICIES))
    def start(self, over, policy):
        self.cfg = ExperimentConfig.from_sources(overrides=over)
        self.units = derived(self.cfg)
        self.sim = Simulation(self.cfg, policy)
        check_splits_at_onset(self.sim)
        self.t = 0  # units stepped
        self.onset = None  # unit of the current attack's onset
        self.done = set()  # what unit t + 1 has seen before its step
        self.ended = False  # an InfeasibleError or the last unit ends the case

    @property
    def state(self):
        return self.sim.state

    def may_end_attack(self):
        state = self.state
        return (not self.ended and not self.done and state.attack_target is not None
                and self.onset < self.t + 1)

    @precondition(lambda self: self.may_end_attack() and self.state.recover_at is not None)
    @rule()
    def recover(self):
        assert self.state.phase is SimPhase.ATTACK
        self.sim.recover(self.t + 1)
        self.done.add("recover")
        assert self.state.phase is SimPhase.RECOVERED

    @precondition(may_end_attack)
    @rule()
    def heal(self):
        target, bare = self.state.attack_target, self.state.phase is SimPhase.ATTACK
        self.sim.heal(self.t + 1)
        self.done.add("bare heal" if bare else "heal")
        assert self.state.phase is SimPhase.PRE_ATTACK
        assert target in self.state.healthy_ids()

    @precondition(lambda self: not self.ended and "inject" not in self.done
                  and self.state.attack_target is None)
    @rule(node=st.integers(0, 8))
    def inject(self, node):
        target = node % len(self.state.nodes)
        if self.sim.inject_attack(target, self.t + 1):
            self.onset = self.t + 1
            assert self.state.phase is SimPhase.ATTACK
            assert target not in self.state.healthy_ids()
        else:
            assert self.state.phase is SimPhase.PRE_ATTACK
        self.done.add("inject")

    @rule()
    def step(self):
        if self.ended:
            return
        state, before = self.state, self.state.phase
        prev = state.history[-1].state if len(state.history) else SimPhase.PRE_ATTACK
        try:
            self.sim.step(self.units, self.t + 1)
        except InfeasibleError as exc:
            assert not state.history or OVERLOAD.match(str(exc)), str(exc)
            self.ended = True
            return
        self.t += 1
        self.ended = self.t == len(self.units)
        row = state.history[-1].state
        assert state.phase is before is row
        # the node's return in place of the recovery is the one way out of
        # Attack other than Recovered
        assert row in LEGAL_NEXT[prev] or (
            (prev, row) == (SimPhase.ATTACK, SimPhase.PRE_ATTACK) and "bare heal" in self.done)
        self.done = set()

    @invariant()
    def consistent(self):
        state = self.state
        assert (state.phase is SimPhase.PRE_ATTACK) == (state.attack_target is None)
        assert len(state.history) == self.t
        assert state.placement is None or state.placement.instance_counts().min() >= 1
        if state.phase is SimPhase.RECOVERED:
            # from the recovery until the heal the node hosts nothing, so a
            # heal never adds a candidate to a split solved in its unit
            assert not state.placement.services_on(state.attack_target, include_reserved=True)
        if self.t:
            r = state.history[-1]
            np.testing.assert_allclose(r.served_per_service + r.unserved_per_service,
                                       r.demand_per_service, rtol=0, atol=1e-9)
            assert 0.0 <= r.q_value <= 1.0


BareSteps.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestBareSteps = BareSteps.TestCase

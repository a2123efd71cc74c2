"""Discrete-time failure/recovery simulation.

The loop walks a three-phase state machine per attack cycle, whose phase
and node health are read from the attack record, not stored: every node
but the target is healthy (``SimulationState.phase``, ``healthy_ids``).

* PreAttack -- demand is served by the primary mapping; the state keeps
  the unit's loads and delay matrix, the inputs of a failover split.
* Attack -- at onset the hit node's splits are solved from these inputs
  of t-1, within the same unit (zero-gap failover); the previous unit's
  mapping acts as routing proportions rescaled to the current demand.
* Recovered -- lost instances are restored elsewhere after the recovery
  delay.  The attacked node returns after a quarantine, by default the
  remainder of the attack cycle; its return clears the attack record, so
  a return before the recovery ends the attack too.

Every policy steps over the same ``StreamInputs``: ``derive_inputs`` turns
the request stream into (T, S) demand and (T, E, S) delay matrices once,
in chunks of whole units; a matrix reads node locations, not health.  A
``DelayModel`` of one unit is built only where one is read: at a
placement, an onset split, a recovery, and ``state.delay``.

Outputs go to a ``RunTable``: columns preallocated over the horizon.
``step`` returns nothing; it closes the unit's row, which is checked
when written.  ``run`` returns the table, whose records are row views
built on read.  A quality score stands in for a learned critic: every
``monitor.period`` units ``evaluate_quality`` scores a slice of the delay
column and, below ``monitor.threshold``, triggers a re-placement.

A non-attack unit depends only on the active instances (``placement.x``)
and on its inputs, so it is served from a lookahead: one batched pass
over slices of the next T units' inputs, whose rows are written as one
block.  The inputs own the lookaheads (``StreamInputs.served``), so
every simulation over one inputs object shares them: a later policy
under the same instances reuses a block instead of serving it again.  A
simulation reads its lookahead while its active instances are those the
block was served under; a re-placement or a recovery that changes them
starts another (which rewrites the rows the last one wrote ahead).  A
lookahead ends before the next unit at which ``run`` may start an
attack, before the first unit whose demand its instances cannot serve
(that unit's step raises), and at the end of the units.  The first
lookahead after a placement (at t=1 or a monitor re-placement) ends at
the next monitor evaluation; each later one is at most twice the
previous one, also across a recovery.  A ``step`` outside ``run`` is a
one-unit lookahead.  Inside ``run``, a full step also closes its block's
later rows (phase, and monitor scores from one call over a stack of
windows) up to its end, a re-placement, or two units before an onset or
heal; in that stretch ``step`` only counts its row.

The inputs own the placement decisions too (``StreamInputs.placed``):
``place_services`` and ``recover_placement`` are pure and return frozen
placements, so a result a simulation inside ``run`` computes serves
every later one whose state gives the same arguments.  A placement at
unit t reads unit t's delay row, every node but the attack target, the
node capacity and the instance count; a recovery at t reads unit t-1's
delay row, the old placement's active and reserved instances, the
target and the node capacity.  The keys name exactly these; the catalog
and the node count are fixed by the inputs' shape.  Backup reservation,
onset splits and attack units stay per policy; bare ``step`` and
``recover`` calls compute directly, and so does a recovery of a
placement with backups, which only br has.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import POLICIES, ExperimentConfig
from .errors import ConcurrentAttackError, InfeasibleError, NoCandidateError
from .metrics import RunTable, average_elf, edge_load_factor, jain_fairness, service_delay
from .mobility import derive_delay_matrix, derive_demand, unit_chunks
from .model import (
    DelayModel,
    PlacementDecision,
    PrimaryMapping,
    RequestStream,
    SecondaryMapping,
    SimPhase,
    _freeze,
    check_gamma,
)
from .placement import footprint_order, place_services, recover_placement, reserve_backup
from .solvers import (
    build_lb_psvm,
    fill_cheapest,
    over_capacity,
    solve_lb_psvm,
    solve_primary_mapping,
    solve_psvm,
)

logger = logging.getLogger(__name__)


def evaluate_quality(caps, delays):
    """Delay-based stand-in for a learned critic, in [0, 1]: the mean over
    services of clip(1 - mean window delay / cap, 0, 1), so 1 when recent
    delays are negligible and 0 once they reach the per-service ``caps``;
    ``delays`` holds one row of per-service delays per unit of a (P, S) window,
    or of each of k windows in a (k, P, S) stack: k scores, as k calls give."""
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise ValueError("need at least one unit")
    # np.mean and np.clip without their Python wrappers: the same bits
    score = np.add.reduce(delays, axis=-2) / delays.shape[-2] / caps
    score = np.add.reduce(np.minimum(np.maximum(1.0 - score, 0.0), 1.0), axis=-1) / len(caps)
    return float(score) if delays.ndim == 2 else score


@dataclass(frozen=True)
class StreamInputs:
    """A request stream as every policy sees it, read-only: unit t (0-based)
    has demand ``demand[t]`` (lambda_s) and delay matrix ``delay[t]``.

    Every simulation over these inputs shares what they store.
    ``served`` holds the ``Lookahead`` blocks served from them, keyed by
    (``x.tobytes()``, first unit, uncut end, service capacity, queue ms
    per unit).  ``placed`` holds the placements searched at unit t
    (1-based), keyed by (t, attack target, node capacity, instances per
    service), and the (placement, unrecovered services) of the
    recoveries at t of placements without backups, keyed by (t, target,
    old ``x.tobytes()``, old ``reserved.tobytes()``, node capacity):
    each key names every input of its call that the inputs' shape does
    not fix."""

    demand: np.ndarray  # (T, S)
    delay: np.ndarray  # (T, E, S) in ms
    served: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    placed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.delay < 0).any() or not np.isfinite(self.delay).all():
            raise ValueError("delay entries must be finite and >= 0")
        _freeze(self.demand)
        _freeze(self.delay)

    def __len__(self) -> int:
        return len(self.demand)


def derive_inputs(cfg: ExperimentConfig, requests: RequestStream) -> StreamInputs:
    """Demand and delay matrices of every unit of a request stream, derived
    over chunks of whole units (``mobility.unit_chunks``)."""
    nodes, S, center = cfg.nodes(), cfg.services_count, cfg.grid().center()
    demand, delay = np.empty((len(requests), S)), np.empty((len(requests), len(nodes), S))
    for first, end in unit_chunks(requests, len(nodes)):
        chunk = requests[first:end]
        demand[first:end] = derive_demand(chunk, S)
        delay[first:end] = derive_delay_matrix(
            chunk, nodes, S, alpha_ms_per_km=cfg.delay_alpha_ms_per_km,
            base_ms=cfg.delay_base_ms, fallback_point=center)
    return StreamInputs(demand, delay)


@dataclass(frozen=True)
class Lookahead:
    """Primary serving of the T units from ``t0`` on under the active
    instances ``x`` (``placement.x.tobytes()``), cut before the first unit
    whose demand they cannot serve, with the row columns every reader
    writes; read-only."""

    x: bytes
    t0: int
    delay: np.ndarray  # (T, S) per-service delays
    gamma: np.ndarray  # (T, E, S) primary loads
    served: np.ndarray  # (T, S) loads summed over nodes
    avg_delay: np.ndarray  # (T,) demand-weighted delays


@dataclass
class SimulationState:
    nodes: tuple  # EdgeNode by id
    history: RunTable
    placement: PlacementDecision | None = None
    # while a step only counts a row closed ahead, the fields below keep their values
    primary_gamma: np.ndarray | None = None  # (E, S) loads of the last non-attack unit
    primary_demand: np.ndarray | None = None
    delay_matrix: np.ndarray | None = None  # (E, S) delays of the last unit
    proactive: dict = field(default_factory=dict)  # (target, s) -> split of the attack
    attack_target: int | None = None  # the attacked node until it heals
    recover_at: int | None = None  # set only during an attack, until its recovery
    heal_at: int | None = None  # set only during an attack
    pending_reopt: bool = False  # the last monitor score asks for a re-placement
    q_value: float = 1.0  # the last monitor score

    @property
    def phase(self) -> SimPhase:
        """PreAttack without an attack target, Attack until its recovery, then Recovered."""
        if self.attack_target is None:
            return SimPhase.PRE_ATTACK
        return SimPhase.ATTACK if self.recover_at is not None else SimPhase.RECOVERED

    @property
    def primary(self) -> PrimaryMapping | None:
        """The last non-attack unit's mapping, built when read."""
        return None if self.primary_gamma is None else PrimaryMapping(self.primary_gamma)

    @property
    def delay(self) -> DelayModel | None:
        """The last unit's delay matrix, built when read."""
        return None if self.delay_matrix is None else DelayModel(self.delay_matrix)

    def healthy_ids(self) -> list[int]:
        """Every node but the attack target, ascending."""
        return [e for e in range(len(self.nodes)) if e != self.attack_target]


class Simulation:
    """Single-policy simulation owning all mutable state."""

    def __init__(self, cfg: ExperimentConfig, policy: str):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.cfg = cfg
        self.policy = policy
        self.uses_reserves = policy == "br"  # one idle backup instance per service
        self.services = cfg.services()
        self.capacity = cfg.service_capacity
        self.num_services = len(self.services)
        self.thresholds = np.array([s.delay_threshold for s in self.services])
        self.target_rng: np.random.Generator | None = None  # built on the first random target
        self.schedule = dict(cfg.schedule_list())
        nodes = tuple(cfg.nodes())
        self.state = SimulationState(nodes=nodes,
                                     history=RunTable(cfg.horizon, len(nodes), self.thresholds))
        self.inputs: StreamInputs | None = None  # those of the current run
        self.lookahead: Lookahead | None = None
        self.reach = 0  # the last block's length, or 0 once a placement restarts it
        self.calm_to = 0  # last unit to close ahead: the block's, or 2 before an onset or heal
        self.stretch = (0, 1.0, False)  # the last unit closed ahead and the state it leaves

    # ---- driver ---------------------------------------------------------

    def run(self, inputs: StreamInputs) -> RunTable:
        """Advance the clock over the derived units; clock is 1-based."""
        st = self.state
        self.inputs, self.lookahead, self.reach = inputs, None, 0
        try:
            for t in range(1, len(inputs) + 1):
                if t > self.stretch[0]:  # no event falls on a row closed ahead
                    if st.recover_at == t:
                        self.recover(t)
                    if st.heal_at == t:
                        self.heal(t)
                    target = self._scheduled_target(t)
                    if target is not None:
                        self.inject_attack(target, t)
                self.step(inputs, t)
        finally:
            self.inputs, self.lookahead, self.stretch = None, None, (0, 1.0, False)
        return st.history

    def _next_onset(self, t: int) -> int | float:
        """The first unit after t at which ``run`` may start an attack;
        inf when the schedule has none left."""
        if self.schedule:
            return min((u for u in self.schedule if u > t), default=math.inf)
        return (t // self.cfg.attack_every + 1) * self.cfg.attack_every

    def _scheduled_target(self, t: int) -> int | None:
        onset = t in self.schedule if self.schedule else t % self.cfg.attack_every == 0
        if self.state.attack_target is not None or not onset:
            return None
        return self.schedule[t] if self.schedule else self._pick_target()

    def _pick_target(self) -> int | None:
        st = self.state
        if st.placement is None:
            return None
        busy = (st.placement.x | st.placement.reserved).any(axis=1).tolist()
        hosting = [e for e, b in enumerate(busy) if b]  # no attack is active: every node is up
        if not hosting:
            return None
        if self.cfg.attack_target == "random":
            if self.target_rng is None:
                self.target_rng = np.random.default_rng([self.cfg.seed, 0xA77AC])
            return int(self.target_rng.choice(hosting))
        loads = st.primary_gamma.sum(axis=1).tolist()
        return max(hosting, key=lambda e: (loads[e], -e))

    # ---- state transitions ----------------------------------------------

    def inject_attack(self, target: int, t: int) -> bool:
        """Solve the target's failover splits from t-1 data, then mark it down.

        Returns False (a warned no-op) when the target hosts nothing.

        Raises:
            ValueError: if ``target`` is no node id; nothing changes.
            ConcurrentAttackError: if an attack is already active.
        """
        st = self.state
        if not 0 <= target < len(st.nodes):
            raise ValueError(f"attack at t={t} on node {target}: nodes are 0..{len(st.nodes) - 1}")
        if st.attack_target is not None:
            raise ConcurrentAttackError(
                f"attack on node {target} at t={t} while node "
                f"{st.attack_target} is still down"
            )
        if st.placement is None or not st.placement.services_on(target, include_reserved=True):
            logger.warning("attack at t=%d on node %d hosting nothing: no-op", t, target)
            return False
        # splits only after a non-attack unit t-1 (a validated config has one before
        # each onset), which left st.primary and st.delay; without an active attack
        # every node is up, and a node back at t hosts nothing
        states = st.history.column("state")
        st.proactive = {}
        if len(states) and states[-1] is not SimPhase.ATTACK:
            primary, d = st.primary, st.delay
            st.proactive = {(target, s): self._policy_secondary(primary, d, target, s)
                            for s in st.placement.services_on(target)}
        st.attack_target = target
        st.recover_at = t + self.cfg.recovery_delay
        st.heal_at = t + self.cfg.quarantine_units()
        return True

    def recover(self, t: int) -> None:
        """Restore the attacked node's instances (``recover_placement``, or
        its result stored in ``inputs.placed`` inside ``run``, unless the
        placement holds backups: only br reserves and a run holds br once,
        so no other simulation could read it); with reserves, each service
        it hosted that has no healthy backup left then reserves a new one.
        Outside the Attack phase, raise ValueError and change nothing."""
        st = self.state
        if st.phase is not SimPhase.ATTACK:
            raise ValueError(f"recover at t={t}: the phase is {st.phase.value}, not Attack")
        target, old, healthy = st.attack_target, st.placement, st.healthy_ids()
        key = (t, target, old.x.tobytes(), old.reserved.tobytes(), self.cfg.node_capacity)
        placed = self.inputs.placed if self.inputs is not None and not old.reserved.any() else {}
        if key not in placed:
            placed[key] = recover_placement(old, target, old.services_on(target),
                                            self.services, st.nodes, st.delay, healthy)
        plc, unrecovered = placed[key]
        if unrecovered:
            logger.warning("t=%d: unrecovered services %s", t, unrecovered)
        if self.uses_reserves:
            backed = plc.reserved[healthy].any(axis=0).tolist()
            unreserved = [s for s in old.services_on(target, include_reserved=True)
                          if not backed[s]]
            plc = self._reserve(plc, unreserved, t)
        st.placement = plc
        st.recover_at = None

    def heal(self, t: int) -> None:
        """End the quarantine, and the attack with it: the node is placeable
        again.  Without an active attack, raise ValueError and change nothing."""
        st = self.state
        if st.attack_target is None:
            raise ValueError(f"heal at t={t}: no attack is active")
        st.attack_target = st.recover_at = st.heal_at = None

    # ---- per-unit work ----------------------------------------------------

    def step(self, inputs: StreamInputs, t: int) -> None:
        """Serve unit t of ``inputs`` (its row t - 1) and close its row of the
        run table, or only count the row when an earlier step closed it ahead."""
        st = self.state
        if 0 < t <= self.stretch[0]:  # only ``run`` closes rows ahead, within its units
            st.history.n += 1
            if t == self.stretch[0]:  # the state the unit's full step would leave
                _, q_value, reopt = self.stretch
                look = self.lookahead
                st.primary_gamma, st.primary_demand = look.gamma[t - look.t0], inputs.demand[t - 1]
                st.delay_matrix, st.q_value, st.pending_reopt = inputs.delay[t - 1], q_value, reopt
            return
        if not 0 < t <= len(inputs):
            raise IndexError(f"t={t} is outside units 1..{len(inputs)}")
        lam, d = inputs.demand[t - 1], inputs.delay[t - 1]
        phase = st.phase
        attack = phase is SimPhase.ATTACK
        if not attack and (st.placement is None or st.pending_reopt):
            self._place(d, t)
            st.pending_reopt = False
        if attack:
            self._attack_record(t, lam, d, *self._attack_serve(lam, d))
        else:
            look = self.lookahead if self.inputs is not None else None  # bare steps: one unit
            i = t - look.t0 if look is not None else 0
            if look is None or look.x != st.placement.x.tobytes() or not 0 <= i < len(look.gamma):
                look, i = self._look_ahead(inputs, t), 0
            st.primary_gamma = look.gamma[i]
            st.primary_demand = lam
        end = t if attack else max(t, self.calm_to)
        if end == t and t % self.cfg.monitor_period:  # one row, no score
            st.history.commit(phase, st.q_value)
        else:
            self._close(t, end, phase)
        st.delay_matrix = d

    def _close(self, t: int, end: int, phase: SimPhase) -> None:
        """Close the rows of units t..end with ``phase`` and their monitor scores (each over
        its row and the period - 1 before) up to the first low one; count t's row only."""
        st, table, period = self.state, self.state.history, self.cfg.monitor_period
        first = t + (-t) % period  # the first monitor unit from t on
        k = (end - first) // period + 1  # the monitor units up to end
        qs, reopt = [st.q_value] * (first - t), False  # each row's score
        if k:
            col, row = table.cols["per_service_delay"], table.n + first - t - period + 1
            if k == 1:  # 2-D, cheaper; bare steps from after unit 1 may cut it short
                scores = [evaluate_quality(self.thresholds, col[max(0, row):row + period])]
            else:  # the windows of units a period apart tile the rows from the first on
                windows = col[row:row + k * period].reshape(k, period, -1)
                scores = evaluate_quality(self.thresholds, windows).tolist()
            thr = self.cfg.monitor_threshold
            if min(scores) < thr and phase is not SimPhase.ATTACK:  # the first low one ends them
                end, reopt = first + period * next(j for j, q in enumerate(scores) if q < thr), True
            for q in scores:
                qs += [q] * period
        del qs[end + 1 - t:]
        table.commit(phase, *qs)
        st.q_value, st.pending_reopt = qs[0], st.pending_reopt or reopt and end == t
        if end > t:
            self.stretch = (end, qs[-1], reopt)

    def _look_ahead(self, inputs: StreamInputs, t: int) -> Lookahead:
        """Serve unit t and the units after it under the same active instances
        by the primary mapping in one batched pass, or read them from
        ``inputs.served``; write their rows.  Inside ``run`` the block is at
        most twice the last one (``reach``), or after a placement runs
        through the next monitor unit, so the rows computed stay within
        twice the rows used plus one monitor period per placement."""
        st, x = self.state, self.state.placement.x.tobytes()
        if self.inputs is None:
            stop = onset = t + 1
        else:
            if self.reach:  # at most twice the last block, also across a recovery
                stop = t + 2 * self.reach
            else:  # the first after a placement: through the next monitor evaluation
                stop = t + (-t) % self.cfg.monitor_period + 1
            onset = self._next_onset(t)
            stop = min(stop, onset, len(inputs) + 1)
        key = (x, t, stop, self.capacity, self.cfg.queue_ms_per_unit)
        look = inputs.served.get(key)
        if look is None:
            lam = inputs.demand[t - 1 : stop - 1]
            over = np.flatnonzero(over_capacity(st.placement, lam, self.capacity).any(axis=-1))
            cut = max(over[0], 1) if len(over) else None  # stop before an overload, or raise at t
            lam, d = lam[:cut], inputs.delay[t - 1 : stop - 1][:cut]
            try:
                gamma = solve_primary_mapping(st.placement, lam, d, self.capacity)
            except InfeasibleError as exc:
                raise InfeasibleError(f"t={t}: {exc}") from exc
            check_gamma(gamma)
            delay = service_delay(gamma, d, self.capacity, ms_per_unit=self.cfg.queue_ms_per_unit)
            look = inputs.served[key] = Lookahead(
                x, t, *map(_freeze, (delay, gamma, gamma.sum(axis=-2), _mean_delay(lam, delay))))
        lam = inputs.demand[t - 1 : t - 1 + len(look.gamma)]
        self._write_rows(t, lam, look.delay, look.served, look.avg_delay)
        self.lookahead, self.reach = look, len(look.gamma)
        self.calm_to = min(t + len(look.gamma) - 1, onset - 2, (st.heal_at or math.inf) - 2)
        return look

    def _place(self, d: np.ndarray, t: int) -> None:
        """Place every service from unit t's delay matrix ``d``, or read the
        placement from ``inputs.placed``; a failed re-placement keeps the
        current one."""
        st = self.state
        instances = self.cfg.placement_instances_per_service
        key = (t, st.attack_target, self.cfg.node_capacity, instances)
        placed = self.inputs.placed if self.inputs is not None else {}
        plc = placed.get(key)
        if plc is None:
            try:
                plc = place_services(self.services, st.nodes, DelayModel(d), instances,
                                     st.healthy_ids())
            except InfeasibleError as exc:
                if st.placement is None:
                    raise
                logger.warning("t=%d: re-placement failed, keeping the current placement: %s",
                               t, exc)
                return
            placed[key] = plc
        if self.uses_reserves:
            plc = self._reserve(plc, footprint_order(self.services, range(self.num_services)), t)
        st.placement, self.reach = plc, 0

    def _reserve(self, plc: PlacementDecision, order: list[int], t: int) -> PlacementDecision:
        """One idle backup per service, in the given order, where room is
        left; a service without room fails over as psvm would."""
        st = self.state
        plc, missing = reserve_backup(plc, order, self.services, st.nodes, st.healthy_ids())
        for s in missing:
            logger.warning("t=%d: no room to reserve a backup of service %d", t, s)
        return plc

    def _policy_secondary(self, gamma: PrimaryMapping, d: DelayModel, target: int,
                          service: int) -> SecondaryMapping | None:
        """The split of (target, service) from ``gamma`` and ``d``, onto nodes but the target."""
        st = self.state
        try:
            if self.uses_reserves:
                reserved = st.placement.reserved_nodes(service)
                if reserved:
                    affected = float(gamma.gamma[target, service])
                    return SecondaryMapping(candidates=(d.nearest(reserved, service),),
                                            beta=np.array([affected]), affected=affected)
            if self.policy != "lb-psvm":
                # br without a reserve left degrades to psvm
                return solve_psvm(gamma, st.placement, target, service, d)
            problem = build_lb_psvm(
                gamma,
                st.placement,
                target,
                service,
                d,
                self.capacity,
                self.services[service].delay_threshold,
                k1=self.cfg.lbpsvm_k1,
                k2=self.cfg.lbpsvm_k2,
                epsilon=self.cfg.lbpsvm_epsilon,
            )
            return solve_lb_psvm(
                problem,
                max_iters=self.cfg.solver_max_iters,
                kkt_tol=self.cfg.lbpsvm_kkt_tol,
            ).to_secondary()
        except NoCandidateError:
            return None
        except InfeasibleError as exc:
            logger.warning("onset split for node %d service %d infeasible: %s",
                           target, service, exc)
            return None

    def _attack_serve(self, lam: np.ndarray, d: np.ndarray):
        """Serve via stored splits, the t-1 proportions scaled to today; a
        service without demand at t-1 fills its instances off the target
        cheapest first."""
        st = self.state
        target, prev = st.attack_target, st.primary_demand
        ratio = np.divide(lam, prev, out=np.zeros_like(lam), where=prev > 0)
        loads = st.primary_gamma * ratio
        unserved = np.zeros_like(lam)
        fresh = np.flatnonzero((lam > 0) & (prev <= 0))
        if len(fresh):  # fill only those columns: each column fills on its own
            hosts = st.placement.x[:, fresh] > 0
            hosts[target] = False
            filled, left = fill_cheapest(hosts, lam[None, fresh], d[None, :, fresh], self.capacity)
            loads[:, fresh], unserved[fresh] = filled[0], left[0]
        affected = loads[target].copy()
        loads[target] = 0.0
        added = np.zeros_like(loads)
        for s in np.flatnonzero(affected > 0).tolist():
            mapping = st.proactive.get((target, s))
            if mapping is None:
                unserved[s] = affected[s]
            else:
                added[list(mapping.candidates), s] = mapping.beta * (affected[s] / mapping.affected)
        return loads, added, unserved

    def _attack_record(self, t, lam, d, loads, added, unserved) -> None:
        per_service = service_delay(
            loads + added, d, self.capacity, ms_per_unit=self.cfg.queue_ms_per_unit
        )
        # added >= 0, so a node or service with failover load is one with a positive entry
        hit = added > 0
        failover = bool(hit.any())
        avail = np.maximum(self.capacity - loads, self.cfg.lbpsvm_epsilon)
        elf_per_node, avg_elf, fairness = np.zeros(len(loads)), 0.0, 1.0
        if failover:
            elf_per_node = edge_load_factor(added, avail)
            avg_elf = average_elf(elf_per_node, hit.any(axis=1))
            # fairness over each split's candidates, for the services it loaded
            target, share = self.state.attack_target, added / avail
            jains = [
                jain_fairness(share[list(self.state.proactive[(target, s)].candidates), s])
                for s in np.flatnonzero(hit.any(axis=0)).tolist()
            ]
            fairness = float(np.add.reduce(jains) / len(jains))
        lam, per_service = lam[None], per_service[None]
        served = loads.sum(axis=-2) + added.sum(axis=-2)
        self._write_rows(t, lam, per_service, served[None], _mean_delay(lam, per_service),
                         elf_per_node=elf_per_node, avg_elf=avg_elf, fairness=fairness,
                         unserved_per_service=unserved, failover_active=failover)

    def _write_rows(self, t, lam, per_service, served, avg_delay, **failover) -> None:
        """Write the rows of units t, t + 1, ... from their (T, S) demand, delays
        and served loads and (T,) average delays; ``failover`` holds an attack
        unit's failover fields."""
        table, T = self.state.history, len(lam)
        table.write(slice(len(table), len(table) + T), time=np.arange(t, t + T),
                    demand_per_service=lam, per_service_delay=per_service,
                    served_per_service=served, avg_delay=avg_delay, **failover)


def _mean_delay(lam, per_service):
    """Demand-weighted mean of the per-service delays over the last axis;
    0 without demand."""
    total = np.add.reduce(lam, axis=-1)
    weighted = np.add.reduce(lam * per_service, axis=-1)
    return np.divide(weighted, total, out=np.zeros_like(total), where=total > 0)

"""Discrete-time failure/recovery simulation.

The loop walks a three-phase state machine per attack cycle, whose phase
is read from the attack record (``SimulationState.phase``), not stored:

* PreAttack -- demand is served by the primary mapping; the state keeps
  the unit's loads, delay matrix and node health, the inputs of a
  failover split.
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
lookahead under a set of active instances ends at the next monitor
evaluation; each later one is at most twice the previous one.  A
``step`` outside ``run`` is a one-unit lookahead.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import ConcurrentAttackError, InfeasibleError, NoCandidateError
from .metrics import RunTable, average_elf, edge_load_factor, jain_fairness, service_delay
from .mobility import derive_delay_matrix, derive_demand, unit_chunks
from .model import (
    DelayModel,
    EdgeNode,
    NodeStatus,
    PlacementDecision,
    PrimaryMapping,
    RequestStream,
    SecondaryMapping,
    SimPhase,
    check_gamma,
)
from .placement import footprint_order, place_services, recover_placement, reserve_backup
from .solvers import (
    build_lb_psvm,
    failover_candidates,
    fill_cheapest,
    over_capacity,
    solve_lb_psvm,
    solve_primary_mapping,
    solve_psvm,
)

logger = logging.getLogger(__name__)


def evaluate_quality(caps, delays) -> float:
    """Delay-based stand-in for a learned critic, in [0, 1]: the mean over
    services of clip(1 - mean window delay / cap, 0, 1), so 1 when recent
    delays are negligible and 0 once they reach the per-service ``caps``;
    ``delays`` holds one row of per-service delays per unit of the window."""
    delays = np.asarray(delays, dtype=float)
    if len(delays) == 0:
        raise ValueError("need at least one unit")
    return float(np.mean(np.clip(1.0 - np.mean(delays, axis=0) / caps, 0.0, 1.0)))


@dataclass(frozen=True)
class StreamInputs:
    """A request stream as every policy sees it, read-only: unit t (0-based)
    has demand ``demand[t]`` (lambda_s) and delay matrix ``delay[t]``.
    ``served`` holds the ``Lookahead`` blocks served from them, keyed by
    (``x.tobytes()``, first unit, uncut end, service capacity, queue ms
    per unit): every simulation over these inputs shares it."""

    demand: np.ndarray  # (T, S)
    delay: np.ndarray  # (T, E, S) in ms
    served: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.delay < 0).any() or not np.isfinite(self.delay).all():
            raise ValueError("delay entries must be finite and >= 0")
        self.demand.flags.writeable = self.delay.flags.writeable = False

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
    whose demand they cannot serve; read-only."""

    x: bytes
    t0: int
    delay: np.ndarray  # (T, S) per-service delays
    gamma: np.ndarray  # (T, E, S) primary loads


@dataclass
class SimulationState:
    nodes: tuple  # EdgeNode by id; only set_status replaces it
    history: RunTable
    placement: PlacementDecision | None = None
    primary_gamma: np.ndarray | None = None  # (E, S) loads of the last non-attack unit
    primary_demand: np.ndarray | None = None
    delay_matrix: np.ndarray | None = None  # (E, S) delays of the last unit
    primary_nodes: tuple | None = None  # nodes of the last non-attack unit since the last onset
    proactive: dict = field(default_factory=dict)  # (target, s) -> split of the attack
    attack_target: int | None = None  # the attacked node until it heals
    recover_at: int | None = None  # set only during an attack, until its recovery
    heal_at: int | None = None  # set only during an attack
    pending_reopt: bool = False
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

    def set_status(self, node: int, status: NodeStatus) -> None:
        """The one writer of ``nodes``: a new tuple, so a kept one stays as it was."""
        nodes = list(self.nodes)
        nodes[node] = nodes[node].with_status(status)
        self.nodes = tuple(nodes)

    def healthy_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.healthy]


class Simulation:
    """Single-policy simulation owning all mutable state."""

    def __init__(self, cfg: ExperimentConfig, policy: str):
        if policy not in ("lb-psvm", "psvm", "br"):
            raise ValueError(f"unknown policy {policy!r}")
        self.cfg = cfg
        self.policy = policy
        # br keeps one idle backup instance per service unless disabled
        self.uses_reserves = policy == "br" and cfg.br_enabled
        self.services = cfg.services()
        self.capacity = cfg.service_capacity
        self.num_services = len(self.services)
        self.thresholds = np.array([s.delay_threshold for s in self.services])
        self.target_rng = np.random.default_rng([cfg.seed, 0xA77AC])
        self.schedule = dict(cfg.schedule_list())
        self.state = SimulationState(
            nodes=tuple(cfg.nodes()),
            history=RunTable(cfg.horizon, len(cfg.nodes()), self.thresholds),
        )
        self.inputs: StreamInputs | None = None  # those of the current run
        self.lookahead: Lookahead | None = None

    # ---- driver ---------------------------------------------------------

    def run(self, inputs: StreamInputs) -> RunTable:
        """Advance the clock over the derived units; clock is 1-based."""
        st = self.state
        self.inputs, self.lookahead = inputs, None
        try:
            for t in range(1, len(inputs) + 1):
                if st.recover_at == t:
                    self.recover(t)
                if st.heal_at == t:
                    self.heal(t)
                target = self._scheduled_target(t)
                if target is not None:
                    self.inject_attack(target, t)
                self.step(inputs, t)
        finally:
            self.inputs = self.lookahead = None
        return st.history

    def _next_onset(self, t: int) -> int | float:
        """The first unit after t at which ``run`` may start an attack;
        inf when the schedule has none left."""
        if self.schedule:
            return min((u for u in self.schedule if u > t), default=math.inf)
        return (t // self.cfg.attack_every + 1) * self.cfg.attack_every

    def _scheduled_target(self, t: int) -> int | None:
        if self.state.attack_target is not None or self._next_onset(t - 1) != t:
            return None
        return self.schedule[t] if self.schedule else self._pick_target()

    def _pick_target(self) -> int | None:
        st = self.state
        if st.placement is None:
            return None
        hosting = [
            e for e in st.healthy_ids()
            if st.placement.services_on(e, include_reserved=True)
        ]
        if not hosting:
            return None
        if self.cfg.attack_target == "random":
            return int(self.target_rng.choice(hosting))
        loads = st.primary_gamma.sum(axis=1)
        return max(hosting, key=lambda e: (loads[e], -e))

    # ---- state transitions ----------------------------------------------

    def inject_attack(self, target: int, t: int) -> bool:
        """Solve the target's failover splits from t-1 data, then mark it down.

        Returns False (a warned no-op) when the target hosts nothing.

        Raises:
            ConcurrentAttackError: if an attack is already active.
        """
        st = self.state
        if st.attack_target is not None:
            raise ConcurrentAttackError(
                f"attack on node {target} at t={t} while node "
                f"{st.attack_target} is still down"
            )
        if st.placement is None or not st.placement.services_on(target, include_reserved=True):
            logger.warning("attack at t=%d on node %d hosting nothing: no-op", t, target)
            return False
        # unit t-1 was served by the primary mapping and left st.primary and
        # st.delay at its values; no split when no such unit ran since the last
        # onset (a validated config has one) or the target was down at t-1
        healthy = {n.id for n in st.primary_nodes or () if n.healthy}
        st.proactive = {}
        if target in healthy:
            primary, d = st.primary, st.delay
            st.proactive = {
                (target, s): self._policy_secondary(primary, d, healthy, target, s)
                for s in st.placement.services_on(target)
            }
        st.set_status(target, NodeStatus.ATTACKED)
        st.attack_target, st.primary_nodes = target, None
        st.recover_at = t + self.cfg.recovery_delay
        st.heal_at = t + self.cfg.quarantine_units()
        return True

    def recover(self, t: int) -> None:
        """Restore the attacked node's instances (``recover_placement``);
        with reserves, each service it hosted that has no healthy backup
        left then reserves a new one.  Outside the Attack phase, raise
        ValueError and change nothing."""
        st = self.state
        if st.phase is not SimPhase.ATTACK:
            raise ValueError(f"recover at t={t}: the phase is {st.phase.value}, not Attack")
        target = st.attack_target
        touched = st.placement.services_on(target, include_reserved=True)
        plc, unrecovered = recover_placement(st.placement, target, st.placement.services_on(target),
                                             self.services, st.nodes, st.delay)
        if unrecovered:
            logger.warning("t=%d: unrecovered services %s", t, unrecovered)
        if self.uses_reserves:
            healthy = st.healthy_ids()
            unreserved = [s for s in touched if not plc.reserved[healthy, s].any()]
            plc = self._reserve(plc, unreserved, t)
        st.placement = plc
        st.recover_at = None

    def heal(self, t: int) -> None:
        """End the quarantine, and the attack with it: the node is placeable
        again.  Without an active attack, raise ValueError and change nothing."""
        st = self.state
        if st.attack_target is None:
            raise ValueError(f"heal at t={t}: no attack is active")
        st.set_status(st.attack_target, NodeStatus.HEALTHY)
        st.attack_target = st.recover_at = st.heal_at = None

    # ---- per-unit work ----------------------------------------------------

    def step(self, inputs: StreamInputs, t: int) -> None:
        """Serve unit t of ``inputs`` (its row t - 1) and close its row of the run table."""
        if not 0 < t <= len(inputs):
            raise IndexError(f"t={t} is outside units 1..{len(inputs)}")
        st = self.state
        lam, d = inputs.demand[t - 1], inputs.delay[t - 1]
        phase = st.phase
        attack = phase is SimPhase.ATTACK
        if not attack and (st.placement is None or st.pending_reopt):
            self._place(DelayModel(d), t)
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
            st.primary_nodes = st.nodes
        table, period = st.history, self.cfg.monitor_period
        if t % period == 0:
            # this unit's row and the period - 1 rows before it
            first = max(0, len(table) - period + 1)
            window = table.cols["per_service_delay"][first:len(table) + 1]
            st.q_value = evaluate_quality(self.thresholds, window)
            if st.q_value < self.cfg.monitor_threshold and not attack:
                st.pending_reopt = True
        table.commit(phase, st.q_value)
        st.delay_matrix = d

    def _look_ahead(self, inputs: StreamInputs, t: int) -> Lookahead:
        """Serve unit t and the units after it under the same active instances
        by the primary mapping in one batched pass, or read them from
        ``inputs.served``; write their rows."""
        st = self.state
        prev, x = self.lookahead, st.placement.x.tobytes()
        if self.inputs is None:
            stop = t + 1
        else:
            if prev is not None and prev.x == x:
                stop = t + 2 * len(prev.gamma)
            else:  # through the next monitor evaluation
                stop = t + (-t) % self.cfg.monitor_period + 1
            stop = min(stop, self._next_onset(t), len(inputs) + 1)
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
            for a in (delay, gamma):
                a.flags.writeable = False
            look = inputs.served[key] = Lookahead(x, t, delay, gamma)
        lam = inputs.demand[t - 1 : t - 1 + len(look.gamma)]
        self._write_rows(t, lam, look.delay, look.gamma.sum(axis=-2))
        self.lookahead = look
        return look

    def _place(self, d: DelayModel, t: int) -> None:
        """Place every service; a failed re-placement keeps the current one."""
        st = self.state
        try:
            plc = place_services(
                self.services, st.nodes, d, self.cfg.placement_instances_per_service
            )
        except InfeasibleError as exc:
            if st.placement is None:
                raise
            logger.warning("t=%d: re-placement failed, keeping the current placement: %s",
                           t, exc)
            return
        if self.uses_reserves:
            plc = self._reserve(plc, footprint_order(self.services, range(self.num_services)), t)
        st.placement = plc

    def _reserve(self, plc: PlacementDecision, order: list[int], t: int) -> PlacementDecision:
        """One idle backup per service, in the given order, where room is
        left; a service without room fails over as psvm would."""
        plc, missing = reserve_backup(plc, order, self.services, self.state.nodes)
        for s in missing:
            logger.warning("t=%d: no room to reserve a backup of service %d", t, s)
        return plc

    def _policy_secondary(self, gamma: PrimaryMapping, d: DelayModel, healthy: set, target: int,
                          service: int) -> SecondaryMapping | None:
        """The split of (target, service) from ``gamma``, ``d`` and ``healthy``."""
        st = self.state
        try:
            if self.uses_reserves:
                reserved = [
                    e for e in st.placement.reserved_nodes(service)
                    if e != target and e in healthy
                ]
                if reserved:
                    affected = float(gamma.gamma[target, service])
                    return SecondaryMapping(
                        source_node=target,
                        service=service,
                        candidates=(d.nearest(reserved, service),),
                        beta=np.array([affected]),
                        affected=affected,
                    )
            if self.policy != "lb-psvm":
                # br without reserves (disabled or exhausted) degrades to psvm
                return solve_psvm(gamma, st.placement, target, service, d, healthy)
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
                healthy=healthy,
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
        """Serve via stored splits; previous proportions scaled to today."""
        st = self.state
        target = st.attack_target
        loads = np.zeros((len(st.nodes), self.num_services))
        added = np.zeros_like(loads)
        unserved = np.zeros(self.num_services)
        for s in range(self.num_services):
            if lam[s] <= 0:
                continue
            prev = st.primary_demand[s]
            if prev <= 0:
                hosts = failover_candidates(st.placement, target, s)
                loads[:, s], unserved[s] = fill_cheapest(
                    hosts, float(lam[s]), d[:, s], self.capacity
                )
                continue
            ratio = float(lam[s]) / float(prev)
            scaled = st.primary_gamma[:, s] * ratio
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
        return loads, added, unserved

    def _attack_record(self, t, lam, d, loads, added, unserved) -> None:
        per_service = service_delay(
            loads + added, d, self.capacity, ms_per_unit=self.cfg.queue_ms_per_unit
        )
        failover = bool(added.sum() > 0)
        avail = np.maximum(self.capacity - loads, self.cfg.lbpsvm_epsilon)
        elf_per_node, avg_elf = np.zeros(len(loads)), 0.0
        if failover:
            elf_per_node = edge_load_factor(added, avail)
            avg_elf = average_elf(elf_per_node, added.sum(axis=1) > 0)

        # fairness over each split's candidates, for the services it loaded
        target = self.state.attack_target
        jains = [
            jain_fairness([added[e, s] / avail[e, s]
                           for e in self.state.proactive[(target, s)].candidates])
            for s in range(self.num_services) if added[:, s].sum() > 0
        ]
        fairness = float(np.mean(jains)) if jains else 1.0
        served = loads.sum(axis=-2) + added.sum(axis=-2)
        self._write_rows(t, lam[None], per_service[None], served[None], elf_per_node=elf_per_node,
                         avg_elf=avg_elf, fairness=fairness, unserved_per_service=unserved,
                         failover_active=failover)

    def _write_rows(self, t, lam, per_service, served, **failover) -> None:
        """Write the rows of units t, t + 1, ... from their (T, S) demand, delays
        and served loads; ``failover`` holds an attack unit's failover fields."""
        table, T = self.state.history, len(lam)
        table.write(slice(len(table), len(table) + T), time=np.arange(t, t + T),
                    demand_per_service=lam, per_service_delay=per_service,
                    served_per_service=served, avg_delay=_mean_delay(lam, per_service),
                    degraded=self.state.placement.instance_counts() == 0, **failover)


def _mean_delay(lam, per_service):
    """Demand-weighted mean of the per-service delays over the last axis;
    0 without demand."""
    total = lam.sum(axis=-1)
    weighted = (lam * per_service).sum(axis=-1)
    return np.where(total > 0, weighted / np.where(total > 0, total, 1.0), 0.0)

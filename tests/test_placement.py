import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgefail.errors import InfeasibleError
from edgefail.mobility import GridMap, derive_delay_matrix, generate_synthetic
from edgefail.model import (
    DelayModel,
    EdgeNode,
    NodeStatus,
    PlacementDecision,
    ServiceType,
    placement_problems,
)
from edgefail.placement import (
    MAX_SEARCH_STATES,
    check_budget,
    footprint_order,
    place_services,
    recover_placement,
    reserve_backup,
)

GRID = GridMap()


def make_services(costs):
    return [
        ServiceType(id=i, delay_threshold=50.0 + 10 * i, resource_cost=c)
        for i, c in enumerate(costs)
    ]


def make_nodes(n, capacity=100.0):
    return [EdgeNode(id=i, location=(float(i), 0.0), capacity=capacity) for i in range(n)]


def uniform_delay(E, S, value=1.0):
    return DelayModel(d=np.full((E, S), value))


def grid_scenario(seed=0):
    nodes = [
        EdgeNode(id=i, location=loc, capacity=100.0)
        for i, loc in enumerate(GRID.node_locations())
    ]
    services = make_services([10.0 + 2 * s for s in range(8)])
    units = generate_synthetic(seed=seed, vehicles=100, grid=GRID, horizon=1)
    delay = DelayModel(derive_delay_matrix(units[:1], nodes, 8)[0])
    return nodes, services, delay


class TestPlaceServices:
    def test_two_nodes_forced_spread(self):
        nodes = make_nodes(2)
        services = make_services([10.0])
        p = place_services(services, nodes, uniform_delay(2, 1), instances_per_service=2)
        assert p.x[:, 0].tolist() == [1, 1]

    def test_default_scenario_feasible(self):
        nodes, services, delay = grid_scenario()
        p = place_services(services, nodes, delay, instances_per_service=3)
        assert placement_problems(p, nodes, services) == []
        assert (p.instance_counts() == 3).all()
        assert (p.resource_usage(services) <= 100.0).all()

    def test_small_node_hosts_nothing(self):
        nodes = [
            EdgeNode(id=0, location=(0, 0), capacity=100.0),
            EdgeNode(id=1, location=(1, 0), capacity=100.0),
            EdgeNode(id=2, location=(2, 0), capacity=5.0),
        ]
        services = make_services([10.0, 12.0])
        p = place_services(services, nodes, uniform_delay(3, 2), instances_per_service=2)
        assert p.x[2].sum() == 0

    def test_prefers_low_delay_nodes(self):
        nodes = make_nodes(3)
        services = make_services([10.0])
        d = DelayModel(d=np.array([[9.0], [2.0], [5.0]]))
        p = place_services(services, nodes, d, instances_per_service=2)
        assert p.x[:, 0].tolist() == [0, 1, 1]

    def test_aggregate_infeasibility(self):
        nodes = make_nodes(2, capacity=25.0)
        services = make_services([10.0, 12.0])
        with pytest.raises(InfeasibleError, match="aggregate"):
            place_services(services, nodes, uniform_delay(2, 2), instances_per_service=3)

    def test_backtracking_finds_tight_fit(self):
        # greedy-by-delay alone would strand the big service: both cheap
        # nodes must keep room for one 20-unit instance each
        nodes = make_nodes(3, capacity=30.0)
        services = make_services([20.0, 10.0])
        d = DelayModel(d=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 300.0]]))
        p = place_services(services, nodes, d, instances_per_service=2)
        assert placement_problems(p, nodes, services) == []

    def test_attacked_nodes_excluded(self):
        nodes = make_nodes(3)
        nodes[0] = nodes[0].with_status(NodeStatus.ATTACKED)
        services = make_services([10.0])
        p = place_services(services, nodes, uniform_delay(3, 1), instances_per_service=2)
        assert p.x[0, 0] == 0

    def test_redundancy_precondition(self):
        with pytest.raises(ValueError, match="at least 2"):
            place_services(make_services([10.0]), make_nodes(2), uniform_delay(2, 1),
                           instances_per_service=1)


def reserve_all(p, services, nodes):
    """Reserve a backup of every service, bigger footprints first."""
    order = sorted(range(len(services)), key=lambda s: (-services[s].resource_cost, s))
    return reserve_backup(p, order, services, nodes)


class TestReserveBackup:
    def test_only_legal_spot(self):
        nodes = make_nodes(3)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1], [0]]))
        q, missing = reserve_backup(p, [0], services, nodes)
        assert missing == []
        assert q.reserved[2, 0] == 1
        assert np.array_equal(q.x, p.x)

    def test_default_scenario_costs_extra_136_units(self):
        nodes, services, delay = grid_scenario()
        p = place_services(services, nodes, delay, instances_per_service=3)
        q, missing = reserve_all(p, services, nodes)
        assert missing == []
        extra = q.resource_usage(services).sum() - p.resource_usage(services).sum()
        assert extra == pytest.approx(sum(s.resource_cost for s in services))
        assert extra == pytest.approx(136.0)
        assert (q.reserved.sum(axis=0) == 1).all()
        assert placement_problems(q, nodes, services) == []

    def test_superset_of_input(self):
        nodes, services, delay = grid_scenario()
        p = place_services(services, nodes, delay, instances_per_service=3)
        q, _ = reserve_all(p, services, nodes)
        assert (q.x >= p.x).all()

    def test_full_nodes_reported(self):
        nodes = make_nodes(2, capacity=20.0)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1]]))
        # residual is 10 per node but both already host the service
        q, missing = reserve_backup(p, [0], services, nodes)
        assert missing == [0]
        assert q is p

    def test_only_subset(self):
        nodes = make_nodes(4)
        services = make_services([10.0, 12.0])
        p = PlacementDecision(x=np.array([[1, 1], [1, 1], [0, 0], [0, 0]]))
        q, _ = reserve_backup(p, [1], services, nodes)
        assert q.reserved[:, 0].sum() == 0
        assert q.reserved[:, 1].sum() == 1

    def test_order_is_the_callers(self):
        # only node 2 has room, for one instance: the first service of the
        # order gets it, the second is reported
        nodes = make_nodes(2, capacity=22.0) + [EdgeNode(id=2, location=(2.0, 0.0), capacity=12.0)]
        services = make_services([10.0, 12.0])
        p = PlacementDecision(x=np.array([[1, 1], [1, 1], [0, 0]]))
        for order in ([0, 1], [1, 0]):
            q, missing = reserve_backup(p, order, services, nodes)
            assert q.reserved[2].tolist() == [int(order[0] == 0), int(order[0] == 1)]
            assert missing == order[1:]


class TestRecoverPlacement:
    def attack(self, nodes, target):
        out = list(nodes)
        out[target] = out[target].with_status(NodeStatus.ATTACKED)
        return out

    def test_three_lost_services_reinstantiated(self):
        # node 0 under attack hosting three services; replacements land on
        # nodes that do not already host them
        nodes = make_nodes(4)
        services = make_services([10.0, 12.0, 14.0])
        x = np.array([
            [1, 1, 1],
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
        ])
        p = PlacementDecision(x=x)
        d = uniform_delay(4, 3)
        q, unrecovered = recover_placement(p, 0, [0, 1, 2], services, self.attack(nodes, 0), d)
        assert not unrecovered
        assert q.x[0].sum() == 0
        for s in range(3):
            assert q.x[:, s].sum() == x[:, s].sum()  # instance count restored
            assert not any(m.startswith(f"service {s}:")
                           for m in placement_problems(q, nodes, services))
        # the replacement node did not host the service before
        for s in range(3):
            new_hosts = set(np.flatnonzero(q.x[:, s])) - set(np.flatnonzero(x[1:, s]) + 1)
            assert len(new_hosts) == 1

    def test_forced_single_option(self):
        nodes = make_nodes(3, capacity=10.0)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1], [0]]))
        d = uniform_delay(3, 1)
        q, unrecovered = recover_placement(p, 0, [0], services, self.attack(nodes, 0), d)
        assert not unrecovered
        assert q.x[:, 0].tolist() == [0, 1, 1]

    def test_no_capacity_reports_unrecovered(self):
        nodes = make_nodes(2, capacity=10.0)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1]]))
        d = uniform_delay(2, 1)
        q, unrecovered = recover_placement(p, 0, [0], services, self.attack(nodes, 0), d)
        assert unrecovered == (0,)
        assert q.x[:, 0].tolist() == [0, 1]

    def test_never_places_on_attacked_node(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            nodes, services, delay = grid_scenario(seed=int(rng.integers(1000)))
            p = place_services(services, nodes, delay, instances_per_service=3)
            target = int(rng.integers(0, 9))
            lost = p.services_on(target)
            q, unrecovered = recover_placement(
                p, target, lost, services, self.attack(nodes, target), delay
            )
            assert q.x[target].sum() == 0
            assert q.reserved[target].sum() == 0
            problems = placement_problems(q, nodes, services, require_redundancy=not unrecovered)
            assert not any(m.startswith("node") for m in problems)

    def test_delay_tie_breaks_to_lowest_index(self):
        nodes = make_nodes(4)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1], [0], [0]]))
        d = uniform_delay(4, 1)
        q, _ = recover_placement(p, 0, [0], services, self.attack(nodes, 0), d)
        assert q.x[:, 0].tolist() == [0, 1, 1, 0]

    def test_promotes_nearest_healthy_backup(self):
        # node 0 is hit; service 0's backups sit on node 2 (down, nearest),
        # nodes 3 and 4 (tied); service 1 has no backup and gets a new instance
        nodes = self.attack(self.attack(make_nodes(5), 2), 0)
        services = make_services([10.0, 12.0])
        x = np.array([[1, 1], [1, 1], [0, 0], [0, 0], [0, 0]])
        reserved = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [1, 0]])
        d = DelayModel(d=np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, 3.0], [2.0, 2.0]]))
        q, unrecovered = recover_placement(
            PlacementDecision(x=x, reserved=reserved), 0, [0, 1], services, nodes, d
        )
        assert not unrecovered
        assert q.x.tolist() == [[0, 0], [1, 1], [0, 0], [1, 0], [0, 1]]
        assert q.reserved[:, 0].tolist() == [0, 0, 1, 0, 1]


def promote_then_recover(p, attacked, services, nodes, delay):
    """Reference: promote each lost service's nearest healthy backup, then
    re-instantiate the rest, bigger footprints first."""
    out, needed = p.without_node(attacked), []
    for s in p.services_on(attacked):
        backups = [e for e in out.reserved_nodes(s) if nodes[e].healthy]
        if backups:
            out = out.promote_reserved(min(backups, key=lambda e: (delay.d[e, s], e)), s)
        else:
            needed.append(s)
    unrecovered = []
    for s in sorted(needed, key=lambda s: (-services[s].resource_cost, s)):
        cost = services[s].resource_cost
        usage = out.resource_usage(services)
        options = [
            n.id for n in nodes
            if n.healthy and n.id != attacked and out.x[n.id, s] == 0
            and out.reserved[n.id, s] == 0 and n.capacity - usage[n.id] >= cost - 1e-9
        ]
        if options:
            out = out.with_instance(min(options, key=lambda e: (delay.d[e, s], e)), s)
        else:
            unrecovered.append(s)
    return out, tuple(sorted(unrecovered))


@st.composite
def reserved_placements(draw):
    E = draw(st.integers(2, 6))
    S = draw(st.integers(1, 4))
    cell = st.sampled_from([0, 1, 2])  # 0 none, 1 active, 2 reserved
    grid = np.array(draw(st.lists(st.lists(cell, min_size=S, max_size=S),
                                  min_size=E, max_size=E)))
    costs = draw(st.lists(st.sampled_from([10.0, 12.0, 14.0]), min_size=S, max_size=S))
    capacity = draw(st.lists(st.sampled_from([20.0, 30.0, 50.0]), min_size=E, max_size=E))
    delays = draw(st.lists(st.integers(0, 3), min_size=E * S, max_size=E * S))
    down = draw(st.sets(st.integers(0, E - 1), max_size=E - 1))
    attacked = draw(st.integers(0, E - 1))
    nodes = [
        EdgeNode(id=e, location=(float(e), 0.0), capacity=capacity[e],
                 status=NodeStatus.ATTACKED if e in down | {attacked} else NodeStatus.HEALTHY)
        for e in range(E)
    ]
    placement = PlacementDecision(x=(grid == 1).astype(int), reserved=(grid == 2).astype(int))
    delay = DelayModel(d=np.array(delays, dtype=float).reshape(E, S))
    return placement, attacked, make_services(costs), nodes, delay


@settings(max_examples=300, deadline=None)
@given(reserved_placements())
def test_recovery_equals_promote_then_recover(case):
    p, attacked, services, nodes, delay = case
    got, unrecovered = recover_placement(p, attacked, p.services_on(attacked), services, nodes,
                                         delay)
    expected, want = promote_then_recover(p, attacked, services, nodes, delay)
    assert got.x.tolist() == expected.x.tolist()
    assert got.reserved.tolist() == expected.reserved.tolist()
    assert unrecovered == want


def reference_place_services(services, nodes, delay, need):
    """Reference: the recursive search ``place_services`` replaced, which
    picks each service's hosts one by one from its ranked options and
    counts every pick against the budget."""
    check_budget(services, nodes, need)
    healthy = [n.id for n in nodes if n.healthy]
    order = footprint_order(services, range(len(services)))
    residual = {e: nodes[e].capacity for e in healthy}
    chosen = {}
    states = 0

    def search(idx):
        nonlocal states
        if idx == len(order):
            return True
        s = order[idx]
        cost = services[s].resource_cost
        options = [e for e in delay.ranked(healthy, s) if residual[e] >= cost - 1e-9]
        if len(options) < need:
            return False

        def pick(start, taken):
            nonlocal states
            if len(taken) == need:
                chosen[s] = list(taken)
                if search(idx + 1):
                    return True
                chosen.pop(s)
                return False
            if len(options) - start < need - len(taken):
                return False
            for j in range(start, len(options)):
                states += 1
                if states > MAX_SEARCH_STATES:
                    raise InfeasibleError("placement search exhausted its budget")
                e = options[j]
                residual[e] -= cost
                taken.append(e)
                if pick(j + 1, taken):
                    return True
                taken.pop()
                residual[e] += cost
            return False

        return pick(0, [])

    if not search(0):
        raise InfeasibleError("no feasible placement found for the given budgets")
    x = np.zeros((len(nodes), len(services)), dtype=np.int64)
    for s, hosts in chosen.items():
        x[hosts, s] = 1
    return x


@st.composite
def placement_cases(draw):
    """3 to 9 nodes, some tight, one maybe down; 1 to 8 services of 2 to 4
    instances; delays from a few values, so ranks tie."""
    E, S = draw(st.integers(3, 9)), draw(st.integers(1, 8))
    need = draw(st.integers(2, 4))
    capacity = draw(st.lists(st.sampled_from([15.0, 25.0, 40.0, 100.0]), min_size=E, max_size=E))
    costs = draw(st.lists(st.sampled_from([5.0, 10.0, 15.0, 20.0]), min_size=S, max_size=S))
    delays = draw(st.lists(st.integers(0, 3), min_size=E * S, max_size=E * S))
    down = draw(st.none() | st.integers(0, E - 1))
    nodes = [
        EdgeNode(id=e, location=(float(e), 0.0), capacity=capacity[e],
                 status=NodeStatus.ATTACKED if e == down else NodeStatus.HEALTHY)
        for e in range(E)
    ]
    return make_services(costs), nodes, DelayModel(d=np.array(delays, float).reshape(E, S)), need


def x_or_error(place, *args):
    try:
        return place(*args)
    except InfeasibleError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(placement_cases())
def test_search_equals_recursive_reference(case):
    # the same subsets in the same order: the same placement, or the same
    # error unless the reference, which counts more states, ran out of budget
    got = x_or_error(lambda *a: place_services(*a).x, *case)
    want = x_or_error(reference_place_services, *case)
    if isinstance(want, str):
        assert isinstance(got, str), want
        assert got == want or want == "placement search exhausted its budget", (got, want)
    else:
        assert not isinstance(got, str), got
        assert got.tolist() == want.tolist()

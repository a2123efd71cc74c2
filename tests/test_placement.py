from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgefail import placement
from edgefail.errors import InfeasibleError
from edgefail.mobility import GridMap, derive_delay_matrix, generate_synthetic
from edgefail.model import (
    DelayModel,
    EdgeNode,
    PlacementDecision,
    ServiceType,
    placement_problems,
    resource_usage,
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
        assert (resource_usage(p.x, p.reserved, services) <= 100.0).all()

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

    def test_budget_counts_healthy_nodes_only(self):
        nodes, services = make_nodes(2, capacity=25.0), make_services([10.0, 12.0])
        check_budget(services, nodes, 2)
        check_budget(services, nodes, 2, healthy=[0, 1])
        with pytest.raises(InfeasibleError, match="healthy capacity 25"):
            check_budget(services, nodes, 2, healthy=[1])

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
        services = make_services([10.0])
        p = place_services(services, nodes, uniform_delay(3, 1), instances_per_service=2,
                           healthy=[1, 2])
        assert p.x[0, 0] == 0
        assert place_services(services, nodes, uniform_delay(3, 1), 2).x[0, 0] == 1

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
        extra = (resource_usage(q.x, q.reserved, services).sum()
                 - resource_usage(p.x, p.reserved, services).sum())
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

    def test_skips_nodes_not_healthy(self):
        # nodes 2 and 3 tie on room: the backup goes to 2, or to 3 with 2 down
        nodes = make_nodes(4)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1], [0], [0]]))
        for healthy, want in ((None, 2), ([0, 1, 2, 3], 2), ([0, 1, 3], 3)):
            q, missing = reserve_backup(p, [0], services, nodes, healthy)
            assert missing == [] and q.reserved[:, 0].tolist().index(1) == want
        assert reserve_backup(p, [0], services, nodes, [0, 1]) == (p, [0])

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


def up(E, *down):
    """The ids of E nodes but ``down``."""
    return [e for e in range(E) if e not in down]


class TestRecoverPlacement:
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
        q, unrecovered = recover_placement(p, 0, [0, 1, 2], services, nodes, d, up(4, 0))
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
        q, unrecovered = recover_placement(p, 0, [0], services, nodes, d, up(3, 0))
        assert not unrecovered
        assert q.x[:, 0].tolist() == [0, 1, 1]

    def test_no_capacity_reports_unrecovered(self):
        nodes = make_nodes(2, capacity=10.0)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1]]))
        d = uniform_delay(2, 1)
        q, unrecovered = recover_placement(p, 0, [0], services, nodes, d, up(2, 0))
        assert unrecovered == (0,)
        assert q.x[:, 0].tolist() == [0, 1]

    def test_never_places_on_attacked_node(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            nodes, services, delay = grid_scenario(seed=int(rng.integers(1000)))
            p = place_services(services, nodes, delay, instances_per_service=3)
            target = int(rng.integers(0, 9))
            lost = p.services_on(target)
            # without ``healthy`` every node is, but the attacked one is still skipped
            healthy = up(9, target) if i % 2 else None
            q, _ = recover_placement(p, target, lost, services, nodes, delay, healthy)
            assert q.x[target].sum() == 0
            assert q.reserved[target].sum() == 0
            # three instances each: even one left unrecovered spans two nodes
            assert placement_problems(q, nodes, services) == []

    def test_delay_tie_breaks_to_lowest_index(self):
        nodes = make_nodes(4)
        services = make_services([10.0])
        p = PlacementDecision(x=np.array([[1], [1], [0], [0]]))
        d = uniform_delay(4, 1)
        q, _ = recover_placement(p, 0, [0], services, nodes, d, up(4, 0))
        assert q.x[:, 0].tolist() == [0, 1, 1, 0]

    def test_promotes_nearest_healthy_backup(self):
        # node 0 is hit; service 0's backups sit on node 2 (down, nearest),
        # nodes 3 and 4 (tied); service 1 has no backup and gets a new instance
        nodes = make_nodes(5)
        services = make_services([10.0, 12.0])
        x = np.array([[1, 1], [1, 1], [0, 0], [0, 0], [0, 0]])
        reserved = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [1, 0]])
        d = DelayModel(d=np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, 3.0], [2.0, 2.0]]))
        q, unrecovered = recover_placement(
            PlacementDecision(x=x, reserved=reserved), 0, [0, 1], services, nodes, d, up(5, 0, 2)
        )
        assert not unrecovered
        assert q.x.tolist() == [[0, 0], [1, 1], [0, 0], [1, 0], [0, 1]]
        assert q.reserved[:, 0].tolist() == [0, 0, 1, 0, 1]


def promote_then_recover(p, attacked, services, nodes, delay, healthy):
    """Reference on plain arrays: clear the attacked node, promote each lost
    service's nearest healthy backup, then re-instantiate the rest, bigger
    footprints first, on the nearest healthy node with room; returns the
    active and reserved arrays and the unrecovered services."""
    x, reserved = np.array(p.x), np.array(p.reserved)
    x[attacked] = reserved[attacked] = 0
    costs = np.array([s.resource_cost for s in services])
    needed = []
    for s in p.services_on(attacked):
        backups = [n.id for n in nodes if reserved[n.id, s] and n.id in healthy]
        if backups:
            e = min(backups, key=lambda e: (delay.d[e, s], e))
            x[e, s], reserved[e, s] = 1, 0
        else:
            needed.append(s)
    unrecovered = []
    for s in sorted(needed, key=lambda s: (-costs[s], s)):
        left = [n.capacity - float((x[n.id] + reserved[n.id]) @ costs) for n in nodes]
        options = [
            n.id for n in nodes
            if n.id in healthy and n.id != attacked and not x[n.id, s] and not reserved[n.id, s]
            and left[n.id] >= costs[s] - 1e-9
        ]
        if options:
            x[min(options, key=lambda e: (delay.d[e, s], e)), s] = 1
        else:
            unrecovered.append(s)
    return x, reserved, tuple(sorted(unrecovered))


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
    nodes = [EdgeNode(id=e, location=(float(e), 0.0), capacity=capacity[e]) for e in range(E)]
    placement = PlacementDecision(x=(grid == 1).astype(int), reserved=(grid == 2).astype(int))
    delay = DelayModel(d=np.array(delays, dtype=float).reshape(E, S))
    return placement, attacked, make_services(costs), nodes, delay, up(E, attacked, *down)


@settings(max_examples=300, deadline=None)
@given(reserved_placements())
def test_recovery_equals_promote_then_recover(case):
    p, attacked, services, nodes, delay, healthy = case
    got, unrecovered = recover_placement(p, attacked, p.services_on(attacked), services, nodes,
                                         delay, healthy)
    x, reserved, want = promote_then_recover(p, attacked, services, nodes, delay, healthy)
    assert got.x.tolist() == x.tolist()
    assert got.reserved.tolist() == reserved.tolist()
    assert unrecovered == want


@settings(max_examples=300, deadline=None)
@given(reserved_placements(), st.sampled_from([0.0, -5e-10, -2e-9, 0.35]))
def test_room_equals_per_node_reference(case, slack):
    # the attacked node and the others drawn down are never room; ``slack``
    # puts residuals that met a footprint exactly just inside (-5e-10) or
    # just outside (-2e-9) the 1e-9 tolerance
    p, attacked, services, nodes, _delay, healthy = case
    nodes = [EdgeNode(id=n.id, location=n.location, capacity=n.capacity + slack) for n in nodes]
    x, reserved = np.array(p.x), np.array(p.reserved)
    for s in range(p.num_services):
        usage = resource_usage(x, reserved, services)
        want = {n.id: n.capacity - usage[n.id] for n in nodes
                if n.id in healthy and x[n.id, s] == 0 and reserved[n.id, s] == 0
                and n.capacity - usage[n.id] >= services[s].resource_cost - 1e-9}
        got = placement._room(x, reserved, s, services, nodes, healthy)
        assert list(got) == list(want) and attacked not in got
        assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def reference_place_services(services, nodes, delay, need, healthy, budget=MAX_SEARCH_STATES):
    """Reference: the recursive search ``place_services`` replaced, which
    picks each service's hosts one by one from its ranked options and
    counts every pick against ``budget``."""
    check_budget(services, nodes, need, healthy)
    healthy = [n.id for n in nodes if healthy is None or n.id in healthy]
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
                if states > budget:
                    raise InfeasibleError(EXHAUSTED)
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
    """3 to 9 nodes, some tight, one maybe down (``healthy`` None when none
    is); 1 to 8 services of 2 to 4 instances; delays from a few values, so
    ranks tie."""
    E, S = draw(st.integers(3, 9)), draw(st.integers(1, 8))
    need = draw(st.integers(2, 4))
    capacity = draw(st.lists(st.sampled_from([15.0, 25.0, 40.0, 100.0]), min_size=E, max_size=E))
    costs = draw(st.lists(st.sampled_from([5.0, 10.0, 15.0, 20.0]), min_size=S, max_size=S))
    delays = draw(st.lists(st.integers(0, 3), min_size=E * S, max_size=E * S))
    down = draw(st.none() | st.integers(0, E - 1))
    nodes = [EdgeNode(id=e, location=(float(e), 0.0), capacity=capacity[e]) for e in range(E)]
    healthy = None if down is None else up(E, down)
    return (make_services(costs), nodes, DelayModel(d=np.array(delays, float).reshape(E, S)),
            need, healthy)


def x_or_error(place, *args):
    try:
        return place(*args)
    except InfeasibleError as exc:
        return str(exc)


def placed_or_error(case):
    """``place_services``' x, or its error message, and the number of host
    subsets it tried."""
    tried = 0

    def counted(options, need):
        nonlocal tried
        for hosts in combinations(options, need):
            tried += 1
            yield hosts

    with mock.patch.object(placement, "combinations", counted):
        return x_or_error(lambda *a: place_services(*a).x, *case), tried


EXHAUSTED = "placement search exhausted its budget"
# the reference runs out of its 200,000 picks here, while the search finishes
SLOW_REFERENCE = (
    make_services([5.0, 5.0, 5.0, 5.0, 15.0, 5.0, 15.0, 20.0]),
    [EdgeNode(id=e, location=(float(e), 0.0), capacity=c)
     for e, c in enumerate([100.0, 25.0, 25.0, 40.0, 40.0, 25.0, 15.0, 15.0, 40.0])],
    DelayModel(d=np.array([
        [0, 0, 0, 0, 3, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [2, 1, 0, 1, 3, 3, 0, 2],
        [3, 3, 3, 1, 1, 2, 1, 0],
        [0, 0, 2, 1, 0, 2, 0, 0],
    ], dtype=float)),
    4,
    None,
)


@settings(max_examples=300, deadline=None)
@given(placement_cases())
@example(case=SLOW_REFERENCE)
def test_search_equals_recursive_reference(case):
    # the same subsets in the same order: the same placement, or the same
    # error unless the reference, which counts every pick, ran out of budget
    got, tried = placed_or_error(case)
    want = x_or_error(reference_place_services, *case)
    need = case[3]
    if isinstance(want, str) and not isinstance(got, str):
        # the reference ran out first: it makes at most about need * (need + 1)
        # picks per subset the search tried
        want = x_or_error(reference_place_services, *case, tried * need * (need + 1))
    if isinstance(got, str):
        assert isinstance(want, str) and want in (got, EXHAUSTED), (got, want)
    else:
        assert not isinstance(want, str), want
        assert got.tolist() == want.tolist()

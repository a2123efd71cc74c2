"""Service placement: initial siting, backup reservation, post-attack recovery."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InfeasibleError
from .model import (
    DelayModel,
    EdgeNode,
    PlacementDecision,
    ServiceType,
    placement_problems,
)

# Budget of host subsets the placement search tries; the default scenario
# (9 nodes, 8 services, 3 instances) never gets near it.
MAX_SEARCH_STATES = 200_000


def check_budget(services: list[ServiceType], nodes: list[EdgeNode], instances: int) -> None:
    """Raise InfeasibleError when ``instances`` instances of every service
    need more resource units than the healthy nodes have in total."""
    total_need = sum(instances * s.resource_cost for s in services)
    total_have = sum(n.capacity for n in nodes if n.healthy)
    if total_need > total_have + 1e-9:
        raise InfeasibleError(
            f"aggregate demand {total_need:.6g} resource units exceeds "
            f"healthy capacity {total_have:.6g}"
        )


def footprint_order(services: list[ServiceType], ids) -> list[int]:
    """Service ids ``ids``, bigger footprint first (ties to the lower id),
    the order in which services are sited, recovered, and reserved at a placement."""
    return sorted(ids, key=lambda s: (-services[s].resource_cost, s))


def _room(p: PlacementDecision, s: int, services, nodes) -> dict[int, float]:
    """Residual capacity of each healthy node that hosts no instance of
    service s, active or reserved, and has room left for one."""
    cost = services[s].resource_cost
    usage = p.resource_usage(services)
    return {
        n.id: n.capacity - usage[n.id]
        for n in nodes
        if n.healthy
        and p.x[n.id, s] == 0
        and p.reserved[n.id, s] == 0
        and n.capacity - usage[n.id] >= cost - 1e-9
    }


def place_services(
    services: list[ServiceType],
    nodes: list[EdgeNode],
    delay: DelayModel,
    instances_per_service: int = 3,
) -> PlacementDecision:
    """Greedy-by-delay siting with capacity backtracking.

    Each service gets its instances on distinct healthy nodes with room
    for one; services are processed from the most resource-hungry down so
    big footprints are placed while room is plentiful.  A service tries the
    ``instances_per_service``-subsets of those nodes in ascending
    propagation-delay order, lexicographically (``itertools.combinations``),
    and the first subset with which every later service fits wins.

    Raises:
        InfeasibleError: when the aggregate budget cannot fit all
            instances, or the search tries more than ``MAX_SEARCH_STATES``
            subsets.
    """
    E, S, need = len(nodes), len(services), instances_per_service
    if need < 2:
        raise ValueError("each service needs at least 2 instances (redundancy)")

    check_budget(services, nodes, need)
    healthy = [n.id for n in nodes if n.healthy]

    order = footprint_order(services, range(S))
    residual = {e: nodes[e].capacity for e in healthy}
    chosen: dict[int, tuple[int, ...]] = {}
    states = 0

    def search(idx: int) -> bool:
        nonlocal states
        if idx == len(order):
            return True
        s = order[idx]
        cost = services[s].resource_cost
        options = [e for e in delay.ranked(healthy, s) if residual[e] >= cost - 1e-9]
        for hosts in combinations(options, need):
            states += 1
            if states > MAX_SEARCH_STATES:
                raise InfeasibleError("placement search exhausted its budget")
            for e in hosts:
                residual[e] -= cost
            chosen[s] = hosts
            if search(idx + 1):
                return True
            for e in hosts:
                residual[e] += cost
        return False

    if not search(0):
        raise InfeasibleError("no feasible placement found for the given budgets")

    x = np.zeros((E, S), dtype=np.int64)
    for s, hosts in chosen.items():
        x[list(hosts), s] = 1
    decision = PlacementDecision(x=x)
    problems = placement_problems(decision, nodes, services)
    assert not problems, problems
    return decision


def reserve_backup(
    p: PlacementDecision,
    order: list[int],
    services: list[ServiceType],
    nodes: list[EdgeNode],
) -> tuple[PlacementDecision, list[int]]:
    """Add one idle backup instance of each service in ``order``, in that order.

    The backup lands on the healthy node with the most residual capacity
    that does not already host the service (ties to the lowest index).
    Reserved instances consume node resources immediately but carry no
    primary load.  Existing instances are never moved or removed.

    Returns the placement and the services of ``order`` with no node with
    room left, which get no backup, in ``order``.
    """
    missing = []
    for s in order:
        room = _room(p, s, services, nodes)
        if not room:
            missing.append(s)
            continue
        p = p.with_instance(max(room, key=lambda e: (room[e], -e)), s, reserved=True)
    return p, missing


def recover_placement(
    p: PlacementDecision,
    attacked: int,
    services_lost: list[int],
    services: list[ServiceType],
    nodes: list[EdgeNode],
    delay: DelayModel,
) -> tuple[PlacementDecision, tuple[int, ...]]:
    """Restore the instances of ``services_lost`` that the attacked node
    hosted, bigger footprints first.

    A lost service with a backup on a healthy node promotes the one of
    lowest propagation delay (ties to the lowest node index).  A service
    without one gets a new instance on the lowest-delay healthy node that
    hosts no instance of it, active or reserved, and has room left.  The
    attacked node ends up hosting nothing.

    Returns the placement and the lost services with no room anywhere,
    which stay on fewer instances, in id order.
    """
    out = p.without_node(attacked)
    unrecovered: list[int] = []
    for s in footprint_order(services, services_lost):
        backups = [e for e in out.reserved_nodes(s) if nodes[e].healthy]
        if backups:
            out = out.promote_reserved(delay.nearest(backups, s), s)
            continue
        options = [e for e in _room(out, s, services, nodes) if e != attacked]
        if not options:
            unrecovered.append(s)
            continue
        out = out.with_instance(delay.nearest(options, s), s)
    return out, tuple(sorted(unrecovered))

import numpy as np
import pytest

from edgefail.errors import StructuralError
from edgefail.model import (
    EdgeNode,
    NodeStatus,
    PlacementDecision,
    PrimaryMapping,
    SecondaryMapping,
    ServiceType,
    placement_problems,
)


def make_services(costs):
    return [
        ServiceType(id=i, delay_threshold=50.0 + 10 * i, resource_cost=c)
        for i, c in enumerate(costs)
    ]


def make_nodes(n, capacity=100.0):
    return [EdgeNode(id=i, location=(float(i), 0.0), capacity=capacity) for i in range(n)]


class TestServiceType:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            ServiceType(id=0, delay_threshold=0, resource_cost=10)


class TestPlacementDecision:
    def test_arrays_are_read_only(self):
        p = PlacementDecision(x=np.array([[1], [1]]))
        with pytest.raises(ValueError):
            p.x[0, 0] = 0

    def test_rejects_double_instance(self):
        with pytest.raises(ValueError):
            PlacementDecision(x=np.array([[2], [0]]))

    def test_rejects_active_plus_reserved_overlap(self):
        with pytest.raises(ValueError):
            PlacementDecision(x=np.array([[1], [0]]), reserved=np.array([[1], [0]]))


class TestValidatePlacement:
    def test_two_nodes_one_service_passes(self):
        p = PlacementDecision(x=np.array([[1], [1]]))
        assert placement_problems(p, make_nodes(2), make_services([10.0])) == []

    def test_single_node_fails_redundancy(self):
        # both instances on one node is unrepresentable; one instance total
        # still violates the two-node spread
        p = PlacementDecision(x=np.array([[1], [0]]))
        assert placement_problems(p, make_nodes(2), make_services([10.0])) == [
            "service 0: hosted on 1 node(s), needs >= 2"]

    def test_resource_overrun_reported_per_node(self):
        # node messages first, in id order, then service messages
        p = PlacementDecision(x=np.array([[1, 1], [1, 0]]))
        nodes = make_nodes(2, capacity=15.0)
        assert placement_problems(p, nodes, make_services([10.0, 10.0])) == [
            "node 0: resource use 20.000 exceeds capacity 15.000",
            "service 1: hosted on 1 node(s), needs >= 2",
        ]
        p = PlacementDecision(x=np.array([[1, 1], [1, 1]]))
        assert placement_problems(p, nodes, make_services([10.0, 10.0])) == [
            "node 0: resource use 20.000 exceeds capacity 15.000",
            "node 1: resource use 20.000 exceeds capacity 15.000",
        ]

    def test_default_scenario_passes(self):
        # 9 nodes at 100 units, 8 services with footprints 10..24, 3 instances
        costs = [10.0 + 2 * s for s in range(8)]
        services = make_services(costs)
        nodes = make_nodes(9)
        x = np.zeros((9, 8), dtype=int)
        for s in range(8):
            for k in range(3):
                x[(s + k * 3) % 9, s] = 1
        assert placement_problems(PlacementDecision(x=x), nodes, services) == []

    def test_dimension_mismatch_is_structural(self):
        p = PlacementDecision(x=np.array([[1], [1]]))
        with pytest.raises(StructuralError):
            placement_problems(p, make_nodes(3), make_services([10.0]))

    def test_redundancy_waivable(self):
        p = PlacementDecision(x=np.array([[1], [0]]))
        assert placement_problems(p, make_nodes(2), make_services([10.0]),
                                  require_redundancy=False) == []


class TestSecondaryMapping:
    def test_sum_must_match_affected(self):
        with pytest.raises(ValueError):
            SecondaryMapping(source_node=0, service=0, candidates=(1, 2),
                             beta=np.array([1.0, 2.0]), affected=4.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            SecondaryMapping(source_node=0, service=0, candidates=(1,),
                             beta=np.array([-1.0]), affected=-1.0)


class TestNodeStatus:
    def test_with_status_copies(self):
        n = EdgeNode(id=0, location=(0, 0), capacity=10)
        m = n.with_status(NodeStatus.ATTACKED)
        assert n.healthy and not m.healthy

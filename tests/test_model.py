import numpy as np
import pytest

from edgefail.errors import StructuralError
from edgefail.model import (
    DelayModel,
    EdgeNode,
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

    def test_host_lists_are_plain_ints(self):
        p = PlacementDecision(x=np.array([[1, 0], [0, 1], [1, 1]]),
                              reserved=np.array([[0, 1], [1, 0], [0, 0]]))
        assert p.nodes_hosting(0) == [0, 2] and p.nodes_hosting(1) == [1, 2]
        assert p.reserved_nodes(1) == [0] and p.reserved_nodes(0) == [1]
        assert p.services_on(0) == [0] and p.services_on(0, include_reserved=True) == [0, 1]
        assert p.services_on(2, include_reserved=True) == [0, 1]
        lists = [p.nodes_hosting(0), p.reserved_nodes(0), p.services_on(1, include_reserved=True)]
        assert all(type(v) is int for v in sum(lists, []))


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


class TestDelayModel:
    def test_ranked_ties_to_the_lower_id(self):
        d = DelayModel(np.array([[3.0, 1.0], [1.0, 1.0], [3.0, 0.0], [1.0, 1.0], [0.5, 1.0]]))
        assert d.ranked([0, 1, 2, 3, 4], 0) == [4, 1, 3, 0, 2]
        assert d.ranked([3, 2, 4, 0, 1], 0) == [4, 1, 3, 0, 2]
        assert d.ranked([4, 3, 1, 0], 1) == [0, 1, 3, 4]
        assert d.nearest([3, 1], 0) == 1 and d.nearest((4, 2), 1) == 2
        assert d.ranked([], 0) == []

    def test_ranked_equals_numpy_scalar_keys(self):
        rng = np.random.default_rng(5)
        d = DelayModel(rng.integers(0, 4, (12, 3)).astype(float) * 0.1)
        for s in range(3):
            nodes = rng.permutation(12)[:8].tolist()
            assert d.ranked(nodes, s) == sorted(nodes, key=lambda e: (d.d[e, s], e))


class TestSecondaryMapping:
    def test_sum_must_match_affected(self):
        with pytest.raises(ValueError, match=r"^beta must sum to the affected vehicle count$"):
            SecondaryMapping(candidates=(1, 2), beta=np.array([1.0, 2.0]), affected=4.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match=r"^beta entries must be >= 0$"):
            SecondaryMapping(candidates=(1,), beta=np.array([-1.0]), affected=-1.0)
        with pytest.raises(ValueError, match=r"^beta entries must be >= 0$"):
            SecondaryMapping(candidates=(1, 2, 3), beta=[2.0, -0.0, -1e-300], affected=2.0)

    def test_length_must_match_candidates(self):
        with pytest.raises(StructuralError, match=r"^beta length must match candidates$"):
            SecondaryMapping(candidates=(1, 2), beta=np.array([1.0]), affected=1.0)

    def test_sum_within_tolerance_passes(self):
        m = SecondaryMapping(candidates=(1, 2), beta=[0.1, 0.2], affected=0.30000000000000004)
        assert m.beta.tolist() == [0.1, 0.2] and not m.beta.flags.writeable

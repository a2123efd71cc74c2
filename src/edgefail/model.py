"""Core domain types: services, edge nodes, requests, placements, mappings.

All types are immutable value objects; numpy array fields are marked
read-only after construction so instances can be shared freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError


class SimPhase(enum.Enum):
    """Network state of the discrete-time loop."""

    PRE_ATTACK = "PreAttack"
    ATTACK = "Attack"
    RECOVERED = "Recovered"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ServiceType:
    """One service class: delay bound and footprint.

    Attributes:
        id: service index in [0, S).
        delay_threshold: maximum tolerable delay in milliseconds.
        resource_cost: resource units one instance consumes on a node.
    """

    id: int
    delay_threshold: float
    resource_cost: float

    def __post_init__(self):
        if self.delay_threshold <= 0:
            raise ValueError(f"service {self.id}: delay_threshold must be > 0")
        if self.resource_cost <= 0:
            raise ValueError(f"service {self.id}: resource_cost must be > 0")


@dataclass(frozen=True)
class EdgeNode:
    """An edge node: position in km and resource budget."""

    id: int
    location: tuple[float, float]
    capacity: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"node {self.id}: capacity must be > 0")
        if not all(math.isfinite(c) for c in self.location):
            raise ValueError(f"node {self.id}: location must be finite")


@dataclass(frozen=True)
class ServiceRequest:
    """One service request: <vehicle, location, time, service>."""

    vehicle: str
    location: tuple[float, float]
    time: int
    service: int

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("request time must be >= 0")


def _freeze_columns(obj, *extra: str) -> None:
    """Store ``obj``'s request columns read-only: ``xy`` as (n, 2) floats,
    ``service``, ``vehicle`` and the ``extra`` columns as int64."""
    object.__setattr__(obj, "xy", _freeze(np.ascontiguousarray(obj.xy, dtype=float).reshape(-1, 2)))
    for name in ("service", "vehicle", *extra):
        object.__setattr__(obj, name, _freeze(np.asarray(getattr(obj, name), dtype=np.int64)))
    if not len(obj.xy) == len(obj.service) == len(obj.vehicle):
        raise StructuralError("xy, service and vehicle must have one row per request")


@dataclass(frozen=True, eq=False)
class RequestBatch:
    """One time unit's requests as columns: vehicle ``vehicles[vehicle[i]]``
    at ``xy[i]`` asks for ``service[i]``.  Indexing or iterating yields
    ``ServiceRequest`` objects."""

    time: int
    xy: np.ndarray
    service: np.ndarray
    vehicle: np.ndarray
    vehicles: tuple[str, ...]

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("request time must be >= 0")
        _freeze_columns(self)

    def __len__(self) -> int:
        return len(self.service)

    def __getitem__(self, i: int) -> ServiceRequest:
        vehicle, xy = self.vehicles[self.vehicle[i]], tuple(self.xy[i].tolist())
        return ServiceRequest(vehicle, xy, self.time, int(self.service[i]))


@dataclass(frozen=True, eq=False)
class RequestStream:
    """The requests of time units 0..T-1 as one set of read-only columns,
    each row as in ``RequestBatch``; unit t's are rows ``offsets[t]:offsets[t + 1]``.
    ``stream[t]`` and iteration give a unit's ``RequestBatch`` of views, and
    ``stream[a:b]`` the stream of units a..b-1."""

    xy: np.ndarray
    service: np.ndarray
    vehicle: np.ndarray
    offsets: np.ndarray
    vehicles: tuple[str, ...]

    def __post_init__(self):
        _freeze_columns(self, "offsets")
        off = self.offsets
        if off.ndim != 1 or not len(off) or off[0] != 0 or off[-1] != len(self.service) \
                or (off[1:] < off[:-1]).any():
            raise StructuralError("offsets must rise from 0 to the number of requests")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t):  # iteration stops at the IndexError of t = len(self)
        units, off = range(len(self))[t], self.offsets
        if isinstance(units, int):
            lo, hi = off[units], off[units + 1]
            return RequestBatch(units, self.xy[lo:hi], self.service[lo:hi], self.vehicle[lo:hi],
                                self.vehicles)
        if units.step != 1:
            raise ValueError("a stream slice must be contiguous")
        off = off[units.start:units.start + len(units) + 1]
        lo, hi = off[0], off[-1]
        return RequestStream(self.xy[lo:hi], self.service[lo:hi], self.vehicle[lo:hi], off - lo,
                             self.vehicles)


@dataclass(frozen=True)
class PlacementDecision:
    """Which nodes host which service instances.

    ``x[e, s]`` is 1 when node e hosts an active instance of service s,
    ``reserved[e, s]`` marks idle backup instances that carry no primary
    load.  At most one instance of a given service sits on one node, so
    the count of hosting nodes equals the instance count I_s.  Building
    one freezes the caller's int64 arrays in place: build it from final arrays.
    """

    x: np.ndarray
    reserved: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        if x.ndim != 2:
            raise StructuralError("placement matrix must be 2-D (nodes x services)")
        if (x < 0).any() or (x > 1).any():
            raise ValueError("placement entries must be 0/1")
        reserved = self.reserved
        if reserved is None:
            reserved = np.zeros_like(x)
        else:
            reserved = np.asarray(reserved, dtype=np.int64)
            if reserved.shape != x.shape:
                raise StructuralError("reserved matrix shape must match x")
            if (reserved < 0).any() or (reserved > 1).any():
                raise ValueError("reserved entries must be 0/1")
        if ((x + reserved) > 1).any():
            raise ValueError("a node cannot host two instances of one service")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "reserved", _freeze(reserved))

    @property
    def num_services(self) -> int:
        return self.x.shape[1]

    def nodes_hosting(self, service: int) -> list[int]:
        return self.x[:, service].nonzero()[0].tolist()

    def reserved_nodes(self, service: int) -> list[int]:
        return self.reserved[:, service].nonzero()[0].tolist()

    def services_on(self, node: int, include_reserved: bool = False) -> list[int]:
        m = self.x[node] | self.reserved[node] if include_reserved else self.x[node]
        return m.nonzero()[0].tolist()

    def instance_counts(self) -> np.ndarray:
        """Active instances per service, I_s."""
        return self.x.sum(axis=0)


def check_gamma(g: np.ndarray) -> None:
    """Primary loads, of one unit or a block of units, are finite and >= 0."""
    if (g < 0).any() or not np.isfinite(g).all():
        raise ValueError("gamma entries must be finite and >= 0")


@dataclass(frozen=True)
class PrimaryMapping:
    """Vehicles served per (node, service) in normal operation: gamma[e, s]."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise StructuralError("gamma must be 2-D (nodes x services)")
        check_gamma(g)
        object.__setattr__(self, "gamma", _freeze(g))


@dataclass(frozen=True)
class SecondaryMapping:
    """Failover assignment of one attacked (node, service) pair, which is
    the key it is stored under (``SimulationState.proactive``).

    ``beta[i]`` vehicles are re-homed onto ``candidates[i]``; the betas
    sum to the affected vehicle count at the attacked node.
    """

    candidates: tuple[int, ...]
    beta: np.ndarray
    affected: float

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if b.shape != (len(self.candidates),):
            raise StructuralError("beta length must match candidates")
        if any(v < 0 for v in b.tolist()):
            raise ValueError("beta entries must be >= 0")
        if abs(float(np.add.reduce(b)) - self.affected) > 1e-9 * max(1.0, abs(self.affected)):
            raise ValueError("beta must sum to the affected vehicle count")
        object.__setattr__(self, "beta", _freeze(b))


@dataclass(frozen=True)
class DelayModel:
    """Average propagation delay in ms for service s at node e: d[e, s]."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2:
            raise StructuralError("delay matrix must be 2-D (nodes x services)")
        if (d < 0).any() or not np.isfinite(d).all():
            raise ValueError("delay entries must be finite and >= 0")
        object.__setattr__(self, "d", _freeze(d))

    def ranked(self, nodes, s: int) -> list[int]:
        """``nodes`` in ascending delay for service s, ties to the lower id."""
        col = self.d[:, s].tolist()
        return sorted(nodes, key=lambda e: (col[e], e))

    def nearest(self, nodes, s: int) -> int:
        """The lowest-delay node of ``nodes`` for service s."""
        return self.ranked(nodes, s)[0]


def resource_usage(x: np.ndarray, reserved: np.ndarray, services: list[ServiceType]) -> np.ndarray:
    """Resource units consumed per node by the active ``x`` and reserved instances."""
    costs = np.array([s.resource_cost for s in services], dtype=float)
    return (x + reserved) @ costs


def placement_problems(p: PlacementDecision, nodes: list[EdgeNode],
                       services: list[ServiceType]) -> list[str]:
    """Check per-node resource feasibility and per-service redundancy: a
    message per node over its capacity, then per service on fewer than two
    distinct nodes, in id order; empty when the placement is valid.

    Raises:
        StructuralError: when the placement shape does not match the
            node/service lists.
    """
    if p.x.shape != (len(nodes), len(services)):
        raise StructuralError(
            f"placement is {p.x.shape}, expected ({len(nodes)}, {len(services)})"
        )
    usage = resource_usage(p.x, p.reserved, services)
    return ([f"node {e}: resource use {usage[e]:.3f} exceeds capacity {n.capacity:.3f}"
             for e, n in enumerate(nodes) if not usage[e] <= n.capacity + 1e-9]
            + [f"service {s}: hosted on {int(n)} node(s), needs >= 2"
               for s, n in enumerate(p.instance_counts()) if n < 2])

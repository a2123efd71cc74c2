"""Delay accounting, edge load factor, and Jain's fairness index.

Queue waiting time follows an M/D/1 overload model: an instance with
processing capacity C builds no queue while its arrival stays at or
below C; past that, the backlog lam' = arrival - C waits
lam' / (2C(C - lam')) time units, diverging as arrival approaches 2C.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import SaturationError
from .model import SimPhase, _freeze

# Distance kept from the 2C pole: the failover solver's iterates stay this
# far inside it, and service_delay clamps saturated arrivals to it.
QUEUE_GUARD = 1e-6
_SQRT_TINY = sys.float_info.min ** 0.5  # below it a square is subnormal


def queue_delay(arrival: float, capacity: float, ms_per_unit: float = 1.0) -> float:
    """Waiting time for an instance with ``arrival`` vehicles on capacity C.

    Returns raw time units by default; pass ``ms_per_unit`` to convert.

    Raises:
        SaturationError: when arrival >= 2C, where the model diverges.
    """
    if capacity <= 0:
        raise ValueError("capacity must be > 0")
    if arrival < 0:
        raise ValueError("arrival must be >= 0")
    if arrival >= 2.0 * capacity:
        raise SaturationError(
            f"arrival {arrival:.6g} >= 2*capacity {2 * capacity:.6g}: queue model diverges"
        )
    if arrival <= capacity:
        return 0.0
    return _backlog_wait(arrival - capacity, capacity, ms_per_unit)


def _backlog_wait(backlog, capacity: float, ms_per_unit: float):
    """The M/D/1 wait of a backlog, for a float or elementwise for an array."""
    return ms_per_unit * backlog / (2.0 * capacity * (capacity - backlog))


def service_delay(
    loads,
    delays,
    capacity: float,
    ms_per_unit: float = 1000.0,
):
    """Load-weighted per-vehicle delay of a service across its instances.

    ``loads[e]`` vehicles are served at node e whose propagation delay is
    ``delays[e]`` ms; each instance adds its own queue waiting time.  With
    zero vehicles the delay is defined as 0.  Arrivals at or past the 2C
    pole are evaluated just inside it (a huge but finite penalty).

    ``loads`` and ``delays`` of shape (E,) give one service's delay as a
    float; of shape (..., E, S) they give every column's delay as an
    (..., S) array, so a leading unit axis serves T units in one call.
    The terms are summed node by node in order and the loads with numpy's
    pairwise sum over contiguous node rows, so every shape gives the same
    bits per service.
    """
    loads = np.asarray(loads, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if capacity <= 0:
        raise ValueError("capacity must be > 0")
    column = loads.ndim == 1
    if column:
        loads, delays = loads[:, None], delays[:, None]
    pole = 2.0 * capacity
    arrival = np.where(loads >= pole, pole - QUEUE_GUARD, loads)
    wait = np.where(arrival <= capacity, 0.0,
                    _backlog_wait(arrival - capacity, capacity, ms_per_unit))
    terms = np.where(loads > 0, loads * (delays + wait), 0.0)
    acc = np.cumsum(terms, axis=-2)[..., -1, :]
    total = np.ascontiguousarray(np.swapaxes(loads, -1, -2)).sum(axis=-1)
    out = np.where(total > 0, acc / np.where(total > 0, total, 1.0), 0.0)
    return float(out[0]) if column else out


def edge_load_factor(added, available) -> np.ndarray:
    """Per-node ELF in percent.

    ``added[e, s]`` is the failover load pushed onto the instance of
    service s at node e and ``available[e, s]`` its remaining capacity
    (C minus the primary load, epsilon-adjusted by the caller when 0).
    A node's ELF is the mean load factor of its instances that received
    load; nodes with no added load report 0.
    """
    added = np.asarray(added, dtype=float)
    avail = np.asarray(available, dtype=float)
    if added.shape != avail.shape:
        raise ValueError("added and available must have the same shape")
    out = np.zeros(added.shape[0])
    for e in range(added.shape[0]):
        hit = added[e] > 0
        if hit.any():
            out[e] = float(np.mean(100.0 * added[e, hit] / avail[e, hit]))
    return out


def average_elf(per_node_elf, loaded_mask=None) -> float:
    """Mean ELF over nodes that took failover load; 0 when none did."""
    elf = np.asarray(per_node_elf, dtype=float)
    mask = elf > 0 if loaded_mask is None else np.asarray(loaded_mask, dtype=bool)
    if not mask.any():
        return 0.0
    return float(elf[mask].mean())


def jain_fairness(values) -> float:
    """Jain's index (sum x)^2 / (n sum x^2); 1 on the all-zero vector."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one value")
    if (x < 0).any():
        raise ValueError("values must be >= 0")
    peak = float(x.max())
    if peak == 0.0:
        return 1.0
    if peak < _SQRT_TINY:  # the squares would be subnormal, short of precision or 0
        x = x / peak
    sq = float((x * x).sum())
    s = float(x.sum())
    return s * s / (x.size * sq)


@dataclass(frozen=True)
class MetricsRecord:
    """One time unit of simulation output: a row of a ``RunTable``, built
    when read, with read-only arrays.  The table validates it at write."""

    time: int
    state: SimPhase
    per_service_delay: np.ndarray  # ms, per service
    avg_delay: float  # ms, demand-weighted
    elf_per_node: np.ndarray  # percent, 0 for untouched nodes
    avg_elf: float  # percent over nodes with failover load
    fairness: float  # Jain index over failover shares
    q_value: float
    demand_per_service: np.ndarray
    served_per_service: np.ndarray
    unserved_per_service: np.ndarray
    sla_violated: tuple[int, ...]
    degraded_services: tuple[int, ...]
    failover_active: bool


class RunTable:
    """One simulation's output: a column per ``MetricsRecord`` field, save
    ``sla_violated`` and ``degraded_services``, which are derived on read
    (the latter from a per-service ``degraded`` mask).  Columns are
    preallocated and doubled when a write runs past them; a fresh row is
    a unit without failover (fairness 1, the rest 0).  Rows past ``len``
    may hold units written ahead of the clock; ``commit`` closes one per
    step.  As a sequence the table yields ``MetricsRecord`` rows."""

    def __init__(self, rows: int, num_nodes: int, thresholds: np.ndarray):
        self.thresholds, self.n, S = thresholds, 0, len(thresholds)  # per-service delay caps
        self.cols = {
            "time": np.zeros(rows, dtype=np.int64), "state": np.empty(rows, dtype=object),
            **{k: np.zeros((rows, S)) for k in ("per_service_delay", "demand_per_service",
                                                "served_per_service", "unserved_per_service")},
            "elf_per_node": np.zeros((rows, num_nodes)),
            **{k: np.zeros(rows) for k in ("avg_delay", "avg_elf", "q_value")},
            "fairness": np.ones(rows), "failover_active": np.zeros(rows, dtype=bool),
            "degraded": np.zeros((rows, S), dtype=bool),
        }

    def write(self, rows: slice, **columns) -> None:
        """Set ``columns`` over ``rows``, growing the table to hold them;
        a fairness outside (0, 1] raises."""
        if not 0.0 < columns.get("fairness", 1.0) <= 1.0 + 1e-12:
            raise ValueError(f"fairness {columns['fairness']} outside (0, 1]")
        have = len(self.cols["time"])
        if rows.stop > have:
            fresh = RunTable(max(rows.stop, 2 * have) - have,
                             self.cols["elf_per_node"].shape[1], self.thresholds).cols
            self.cols = {k: np.concatenate([c, fresh[k]]) for k, c in self.cols.items()}
        for name, values in columns.items():
            self.cols[name][rows] = values

    def commit(self, state: SimPhase, q_value: float) -> None:
        """Close the current row with the unit's phase and monitor score."""
        if not 0.0 <= q_value <= 1.0:
            raise ValueError(f"q_value {q_value} outside [0, 1]")
        self.cols["state"][self.n], self.cols["q_value"][self.n] = state, q_value
        self.n += 1

    def column(self, name: str) -> np.ndarray:
        """The committed rows of one column."""
        return self.cols[name][: self.n]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        rows = range(self.n)[i]
        return [self.record(j) for j in rows] if isinstance(rows, range) else self.record(rows)

    def record(self, i: int) -> MetricsRecord:
        """Row i as a record whose arrays are read-only views of the table."""
        row = {k: c.item(i) if c.ndim == 1 else _freeze(c[i]) for k, c in self.cols.items()}
        degraded, late = row.pop("degraded"), row["per_service_delay"] > self.thresholds
        return MetricsRecord(**row, sla_violated=tuple(np.flatnonzero(late).tolist()),
                             degraded_services=tuple(np.flatnonzero(degraded).tolist()))

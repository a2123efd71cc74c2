"""Vehicle mobility: synthetic waypoint traces, CSV ingestion, demand binning.

Positions live in a flat km coordinate frame covering the grid of edge
coverage cells (default 3x3 cells of 5 km over a 15x15 km^2 area, one
edge node per cell center).  Trace files are converted into the same
frame by linearly projecting their bounding box onto the grid area.

Both producers return one ``RequestBatch`` of columns per 0-based time
unit: a horizon of H yields batches for units 0..H-1, which the simulation
loop consumes with its own clock.  Demand is a ``bincount`` of a batch's
service column, the delay matrix one distance pass grouped by service.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import IngestError
from .model import DelayModel, EdgeNode, RequestBatch


@dataclass(frozen=True)
class GridMap:
    """Rectangular grid of edge coverage cells; one node per cell center."""

    rows: int = 3
    cols: int = 3
    cell_km: float = 5.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one cell")
        if self.cell_km <= 0:
            raise ValueError("cell_km must be > 0")

    @property
    def width_km(self) -> float:
        return self.cols * self.cell_km

    @property
    def height_km(self) -> float:
        return self.rows * self.cell_km

    def node_locations(self) -> list[tuple[float, float]]:
        """Cell centers in row-major order (node id = row * cols + col)."""
        x0, y0 = self.origin
        return [
            (x0 + (c + 0.5) * self.cell_km, y0 + (r + 0.5) * self.cell_km)
            for r in range(self.rows)
            for c in range(self.cols)
        ]

    def center(self) -> tuple[float, float]:
        x0, y0 = self.origin
        return (x0 + self.width_km / 2.0, y0 + self.height_km / 2.0)

    def contains(self, xy: tuple[float, float]) -> bool:
        x0, y0 = self.origin
        return (x0 <= xy[0] <= x0 + self.width_km) and (y0 <= xy[1] <= y0 + self.height_km)


@dataclass(frozen=True)
class BoundingBox:
    """Geographic box mapped linearly onto the grid area."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("bounding box must be non-degenerate")

    def contains(self, lat, lon):
        """Whether (lat, lon) lies in the box; elementwise for arrays."""
        return ((self.lat_min <= lat) & (lat <= self.lat_max)
                & (self.lon_min <= lon) & (lon <= self.lon_max))

    def to_xy(self, lat, lon, grid: GridMap):
        """Grid coordinates in km of (lat, lon); elementwise for arrays."""
        fx = (lon - self.lon_min) / (self.lon_max - self.lon_min)
        fy = (lat - self.lat_min) / (self.lat_max - self.lat_min)
        x0, y0 = grid.origin
        return (x0 + fx * grid.width_km, y0 + fy * grid.height_km)


@dataclass(frozen=True)
class MobilityModel:
    """Random-waypoint parameters for the synthetic generator.

    Every vehicle issues a request each unit with probability
    ``p_request``; the requested service is re-drawn uniformly each time.
    """

    p_request: float = 1.0
    speed_min_kmh: float = 20.0
    speed_max_kmh: float = 60.0
    time_unit_s: float = 60.0

    def __post_init__(self):
        if not (0.0 <= self.p_request <= 1.0):
            raise ValueError("p_request must be in [0, 1]")
        if not (0.0 < self.speed_min_kmh <= self.speed_max_kmh):
            raise ValueError("need 0 < speed_min_kmh <= speed_max_kmh")
        if self.time_unit_s <= 0:
            raise ValueError("time_unit_s must be > 0")


@dataclass(frozen=True)
class IngestResult:
    requests_by_unit: list[RequestBatch]
    dropped: int  # rows outside the bounding box
    malformed: int  # rows skipped as unparsable


TRACE_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]


def generate_synthetic(
    seed: int,
    vehicles: int,
    grid: GridMap,
    horizon: int,
    model: MobilityModel | None = None,
    num_services: int = 8,
) -> list[RequestBatch]:
    """Deterministic random-waypoint request stream.

    Returns one ``RequestBatch`` per time unit 0..horizon-1.  Vehicles
    never leave the grid area; identical (seed, parameters) reproduce the
    stream bit for bit.
    """
    if vehicles < 1:
        raise ValueError("vehicles must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if num_services < 1:
        raise ValueError("num_services must be >= 1")
    model = model or MobilityModel()
    rng = np.random.default_rng(seed)
    x0, y0 = grid.origin
    w, h = grid.width_km, grid.height_km

    pos = rng.random((vehicles, 2)) * [w, h] + [x0, y0]
    waypoint = rng.random((vehicles, 2)) * [w, h] + [x0, y0]
    step_km = rng.uniform(model.speed_min_kmh, model.speed_max_kmh, vehicles) * (
        model.time_unit_s / 3600.0
    )
    ids = tuple(f"v{i:04d}" for i in range(vehicles))

    units: list[RequestBatch] = []
    for t in range(horizon):
        requesting = rng.random(vehicles) < model.p_request
        services = rng.integers(0, num_services, vehicles)
        idx = np.flatnonzero(requesting)
        units.append(RequestBatch(t, pos[idx], services[idx], idx, ids))

        # advance toward waypoints; arrivals pick a new one
        delta = waypoint - pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrived = dist <= step_km
        moving = ~arrived & (dist > 0)
        pos[arrived] = waypoint[arrived]
        pos[moving] += delta[moving] * (step_km[moving] / dist[moving])[:, None]
        if arrived.any():
            waypoint[arrived] = rng.random((int(arrived.sum()), 2)) * [w, h] + [x0, y0]
    return units


def ingest_trace(
    path,
    bbox: BoundingBox,
    grid: GridMap,
    time_unit_s: float = 60.0,
    num_services: int = 8,
    seed: int = 0,
    carry_gap: int = 5,
) -> IngestResult:
    """Turn a `vehicle_id,timestamp,lat,lon` CSV into per-unit requests.

    Rows outside ``bbox`` are dropped (counted), malformed rows skipped
    (counted separately).  Within a unit a vehicle's last known position
    wins; vehicles with no point in a unit are carried forward at their
    last position for up to ``carry_gap`` units, then considered departed.
    Every present vehicle issues one request per unit; the service type
    is drawn uniformly (seeded).

    Raises:
        IngestError: on a missing/invalid header or zero usable rows.
    """
    if time_unit_s <= 0:
        raise ValueError("time_unit_s must be > 0")
    malformed = 0
    first_seen: dict[str, int] = {}  # vehicle id -> code in order of appearance
    codes: list[int] = []
    values: list[tuple[float, float, float]] = []  # timestamp, lat, lon
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if [c.strip() for c in header] != TRACE_HEADER:
            raise IngestError(f"{path}: expected header {','.join(TRACE_HEADER)}")
        for raw in reader:
            if len(raw) != 4:
                malformed += 1
                continue
            try:
                values.append((float(raw[1]), float(raw[2]), float(raw[3])))
            except ValueError:
                malformed += 1
                continue
            codes.append(first_seen.setdefault(raw[0], len(first_seen)))
    cols = np.array(values, dtype=float).reshape(-1, 3)
    finite = np.isfinite(cols).all(axis=1)
    malformed += int((~finite).sum())
    ts, lat, lon = cols[finite].T
    inside = bbox.contains(lat, lon)
    dropped = int((~inside).sum())
    if not inside.any():
        raise IngestError(f"{path}: no usable rows (dropped={dropped}, malformed={malformed})")
    ts, lat, lon = ts[inside], lat[inside], lon[inside]
    code = np.array(codes, dtype=np.int64)[finite][inside]

    # vehicles numbered in sorted id order
    names = list(first_seen)
    kept = np.unique(code).tolist()
    vids = tuple(sorted(names[c] for c in kept))
    rank = np.zeros(len(names), dtype=np.int64)
    rank[[first_seen[v] for v in vids]] = np.arange(len(vids))
    vehicle = rank[code]

    t0 = ts.min()
    unit = ((ts - t0) // time_unit_s).astype(np.int64)
    horizon = int((ts.max() - t0) // time_unit_s) + 1
    xy = np.column_stack(bbox.to_xy(lat, lon, grid))

    # last position per (vehicle, unit): the latest timestamp, ties to the
    # later row; the winners come out sorted by vehicle, then unit
    order = np.lexsort((np.arange(len(ts)), ts, unit, vehicle))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (vehicle[order[1:]] != vehicle[order[:-1]]) | (unit[order[1:]] != unit[order[:-1]])
    win = order[last]
    w_vehicle, w_unit, w_xy = vehicle[win], unit[win], xy[win]

    # a position holds from its unit until the vehicle's next one, for at
    # most carry_gap units after it
    stop = np.minimum(w_unit + max(carry_gap, 0) + 1, horizon)
    same = w_vehicle[1:] == w_vehicle[:-1]
    stop[:-1] = np.where(same, np.minimum(stop[:-1], w_unit[1:]), stop[:-1])
    span = stop - w_unit
    src = np.repeat(np.arange(len(win)), span)
    at = w_unit[src] + np.arange(len(src)) - np.repeat(np.cumsum(span) - span, span)
    by_unit = np.lexsort((w_vehicle[src], at))  # each unit's rows in vehicle order
    src, at = src[by_unit], at[by_unit]
    row_xy, row_vehicle = w_xy[src], w_vehicle[src]
    bounds = np.searchsorted(at, np.arange(horizon + 1))

    rng = np.random.default_rng(seed)
    units: list[RequestBatch] = []
    for t in range(horizon):
        lo, hi = bounds[t], bounds[t + 1]
        services = rng.integers(0, num_services, hi - lo)
        units.append(RequestBatch(t, row_xy[lo:hi], services, row_vehicle[lo:hi], vids))
    return IngestResult(units, dropped=dropped, malformed=malformed)


def derive_demand(requests: RequestBatch | list, num_services: int) -> np.ndarray:
    """Per-service request counts lambda_s for one time unit."""
    batch = requests if isinstance(requests, RequestBatch) else RequestBatch.of(requests)
    lam = np.bincount(batch.service, minlength=num_services).astype(float)
    if len(lam) > num_services:
        raise ValueError(f"service {len(lam) - 1} out of range for {num_services} services")
    return lam


def derive_delay_matrix(
    requests: RequestBatch | list,
    nodes: list[EdgeNode],
    num_services: int,
    alpha_ms_per_km: float = 2.0,
    base_ms: float = 1.0,
    fallback_point: tuple[float, float] | None = None,
) -> DelayModel:
    """Affine propagation delay d[e, s] = alpha * mean distance + base.

    For a service with requests, the distance is averaged over its
    requesting vehicles.  Services with no demand fall back to the mean
    position of all requesting vehicles (or ``fallback_point`` when the
    unit is empty), so every entry stays finite.
    """
    if alpha_ms_per_km < 0 or base_ms < 0:
        raise ValueError("delay model parameters must be >= 0")
    batch = requests if isinstance(requests, RequestBatch) else RequestBatch.of(requests)
    node_xy = np.array([n.location for n in nodes])
    if not len(batch) and fallback_point is None:
        raise ValueError("fallback_point required when there are no requests")
    centroid = batch.xy.mean(axis=0) if len(batch) else np.asarray(fallback_point, dtype=float)
    centroid_dist = np.hypot(node_xy[:, 0] - centroid[0], node_xy[:, 1] - centroid[1])
    # one distance pass over the requests grouped by service, one column slice each
    pts = batch.xy[np.argsort(batch.service, kind="stable")]
    dist = np.hypot(node_xy[:, 0][:, None] - pts[:, 0], node_xy[:, 1][:, None] - pts[:, 1])
    counts = np.bincount(batch.service, minlength=num_services)
    mean = np.empty((len(nodes), num_services))
    start = 0
    for s, n in enumerate(counts.tolist()):
        mean[:, s] = np.add.reduce(dist[:, start:start + n], axis=1) / n if n else centroid_dist
        start += n
    return DelayModel(d=alpha_ms_per_km * mean + base_ms)

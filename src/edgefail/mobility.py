"""Vehicle mobility: synthetic waypoint traces, CSV ingestion, demand binning.

Positions live in a flat km coordinate frame covering the grid of edge
coverage cells (default 3x3 cells of 5 km over a 15x15 km^2 area, one
edge node per cell center).  Trace files are converted into the same
frame by linearly projecting their bounding box onto the grid area.

Both producers return one ``RequestStream``: columns over every request
of the 0-based time units 0..H-1 with the units' row offsets, which the
simulation loop consumes with its own clock.  Derivation runs over a
stream, or a chunk of one: demand is one ``bincount`` of unit and
service, the delay matrix one distance pass over requests grouped by
(unit, service) segment.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import IngestError
from .model import EdgeNode, RequestStream


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
        if not np.isfinite([self.lat_min, self.lat_max, self.lon_min, self.lon_max]).all():
            raise ValueError("bounding box must be finite")
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
    requests_by_unit: RequestStream
    dropped: int  # rows outside the bounding box
    malformed: int  # rows skipped as unparsable


TRACE_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]

# a derivation chunk of whole units has at most this many bytes of (nodes x
# requests) distances, 32k entries, made one segment length at a time
CHUNK_BYTES = 1 << 18


def generate_synthetic(
    seed: int,
    vehicles: int,
    grid: GridMap,
    horizon: int,
    model: MobilityModel | None = None,
    num_services: int = 8,
) -> RequestStream:
    """Deterministic random-waypoint request stream over units 0..horizon-1.

    Vehicles never leave the grid area; identical (seed, parameters)
    reproduce the stream bit for bit.
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

    # typed columns grow in place, so no unit's rows are held twice
    xy, service, vehicle = array("d"), array("q"), array("q")
    offsets = np.zeros(horizon + 1, dtype=np.int64)
    for t in range(horizon):
        requesting = rng.random(vehicles) < model.p_request
        services = rng.integers(0, num_services, vehicles)
        idx = np.flatnonzero(requesting)
        for column, rows in ((xy, pos[idx]), (service, services[idx]), (vehicle, idx)):
            column.frombytes(rows.view(np.uint8))
        offsets[t + 1] = len(vehicle)

        # advance toward waypoints (step_km > 0, so a vehicle that has not
        # arrived is at a distance > 0); arrivals pick a new one
        delta = waypoint - pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrived = dist <= step_km
        frac = np.divide(step_km, dist, out=np.zeros(vehicles), where=~arrived)
        pos = np.where(arrived[:, None], waypoint, pos + delta * frac[:, None])
        if arrived.any():
            waypoint[arrived] = rng.random((int(arrived.sum()), 2)) * [w, h] + [x0, y0]
    return RequestStream(*(np.frombuffer(c, dtype=c.typecode) for c in (xy, service, vehicle)),
                         offsets, ids)


def ingest_trace(
    path,
    bbox: BoundingBox,
    grid: GridMap,
    time_unit_s: float = 60.0,
    num_services: int = 8,
    seed: int = 0,
    carry_gap: int = 5,
) -> IngestResult:
    """Turn a `vehicle_id,timestamp,lat,lon` CSV into a request stream.

    Rows outside ``bbox`` are dropped (counted), malformed rows skipped
    (counted separately).  Within a unit a vehicle's last known position
    wins; vehicles with no point in a unit are carried forward at their
    last position for up to ``carry_gap`` units, then considered departed.
    Every present vehicle issues one request per unit, in vehicle id
    order; the service type is drawn uniformly (seeded).  Each stage
    returns only what the next one needs, so its working arrays end with it.

    Raises:
        IngestError: on a missing/invalid header or zero usable rows.
    """
    if time_unit_s <= 0:
        raise ValueError("time_unit_s must be > 0")
    first_seen, rows, dropped, malformed = _usable_rows(path, bbox)
    vids, (vehicle, unit, xy), horizon = _last_fixes(first_seen, rows, bbox, grid, time_unit_s)
    del rows
    src, offsets = _carry_forward(vehicle, unit, horizon, carry_gap)
    xy, vehicle = xy[src], vehicle[src]
    rng = np.random.default_rng(seed)
    service = np.empty(len(vehicle), dtype=np.int64)
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        service[lo:hi] = rng.integers(0, num_services, hi - lo)
    return IngestResult(RequestStream(xy, service, vehicle, offsets, vids),
                        dropped=dropped, malformed=malformed)


def _usable_rows(path, bbox: BoundingBox):
    """The vehicle codes (in order of appearance) and the (code, ts, lat,
    lon) columns of the finite rows inside ``bbox``, parsed into typed
    arrays; with the counts of rows dropped and malformed."""
    malformed = 0
    first_seen: dict[str, int] = {}  # vehicle id -> code in order of appearance
    code, ts, lat, lon = array("q"), array("d"), array("d"), array("d")
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
                t, y, x = float(raw[1]), float(raw[2]), float(raw[3])
            except ValueError:
                malformed += 1
                continue
            ts.append(t)
            lat.append(y)
            lon.append(x)
            code.append(first_seen.setdefault(raw[0], len(first_seen)))
    rows = [np.frombuffer(c, dtype=c.typecode) for c in (code, ts, lat, lon)]
    finite = np.isfinite(rows[1]) & np.isfinite(rows[2]) & np.isfinite(rows[3])
    keep = finite & bbox.contains(rows[2], rows[3])
    malformed += len(finite) - int(finite.sum())
    dropped = int(finite.sum()) - int(keep.sum())
    if not keep.any():
        raise IngestError(f"{path}: no usable rows (dropped={dropped}, malformed={malformed})")
    return first_seen, [c[keep] for c in rows], dropped, malformed


def _last_fixes(first_seen: dict, rows, bbox: BoundingBox, grid: GridMap, time_unit_s: float):
    """The sorted vehicle ids; the (vehicle number, unit, km position) of
    each (vehicle, unit)'s last fix, sorted by vehicle, then unit: the
    latest timestamp, ties to the later row; and the units the rows span."""
    code, ts, lat, lon = rows
    names = list(first_seen)
    vids = tuple(sorted(names[c] for c in np.unique(code).tolist()))
    rank = np.zeros(len(names), dtype=np.int64)
    rank[[first_seen[v] for v in vids]] = np.arange(len(vids))
    vehicle = rank[code]
    t0 = ts.min()
    unit = ((ts - t0) // time_unit_s).astype(np.int64)
    horizon = int((ts.max() - t0) // time_unit_s) + 1
    order = np.lexsort((np.arange(len(ts)), ts, unit, vehicle))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (vehicle[order[1:]] != vehicle[order[:-1]]) | (unit[order[1:]] != unit[order[:-1]])
    win = order[last]
    xy = np.column_stack(bbox.to_xy(lat[win], lon[win], grid))
    return vids, (vehicle[win], unit[win], xy), horizon


def _carry_forward(vehicle, unit, horizon: int, carry_gap: int):
    """The stream's rows as indices into the fixes, in unit and then vehicle
    order, and the units' offsets.  A fix holds from its unit until the
    vehicle's next one, for at most ``carry_gap`` units after it."""
    stop = np.minimum(unit + max(carry_gap, 0) + 1, horizon)
    same = vehicle[1:] == vehicle[:-1]
    stop[:-1] = np.where(same, np.minimum(stop[:-1], unit[1:]), stop[:-1])
    span = stop - unit
    # row k of fix i is at unit[i] + k; the fixes come in vehicle order, so
    # a stable sort by unit leaves each unit's rows in vehicle order
    at = np.repeat(unit - (np.cumsum(span) - span), span)
    at += np.arange(len(at))
    offsets = np.zeros(horizon + 1, dtype=np.int64)
    np.cumsum(np.bincount(at, minlength=horizon), out=offsets[1:])
    return np.repeat(np.arange(len(span)), span)[np.argsort(at, kind="stable")], offsets


def unit_chunks(stream: RequestStream, num_nodes: int):
    """``(first, end)`` unit ranges covering ``stream`` whose distance block
    over ``num_nodes`` stays within ``CHUNK_BYTES``; a unit larger than
    that is a chunk of its own."""
    rows = max(CHUNK_BYTES // (8 * num_nodes), 1)
    off, first = stream.offsets, 0
    while first < len(stream):
        end = max(int(np.searchsorted(off, off[first] + rows, side="right")) - 1, first + 1)
        yield first, end
        first = end


def _units(stream: RequestStream) -> np.ndarray:
    """The unit of each request."""
    return np.repeat(np.arange(len(stream)), np.diff(stream.offsets))


def derive_demand(stream: RequestStream, num_services: int) -> np.ndarray:
    """Requests per service of each unit: a (T, S) array of lambda_s."""
    service = stream.service
    if len(service) and not 0 <= service.min() <= service.max() < num_services:
        bad = service.max() if service.max() >= num_services else service.min()
        raise ValueError(f"service {bad} out of range for {num_services} services")
    T = len(stream)
    lam = np.bincount(_units(stream) * num_services + service, minlength=T * num_services)
    return lam.reshape(T, num_services).astype(float)


def derive_delay_matrix(
    stream: RequestStream,
    nodes: list[EdgeNode],
    num_services: int,
    alpha_ms_per_km: float = 2.0,
    base_ms: float = 1.0,
    fallback_point: tuple[float, float] | None = None,
) -> np.ndarray:
    """Affine propagation delay d[t, e, s] = alpha * mean distance + base,
    a (T, E, S) array over the units of ``stream``.

    For a service with requests in unit t, the distance is averaged over
    its requesting vehicles.  Services with no demand fall back to the
    mean position of all of the unit's requesting vehicles (or
    ``fallback_point`` when the unit is empty), so every entry stays
    finite.  A segment, one unit's requests for one service, keeps its
    row order; the segments of one length n form one (E, k, n) distance
    block, whose sums over the last axis are the pairwise sums a unit's
    own slice of n distances gets.
    """
    if alpha_ms_per_km < 0 or base_ms < 0:
        raise ValueError("delay model parameters must be >= 0")
    T, S, E = len(stream), num_services, len(nodes)
    counts = np.diff(stream.offsets)
    if fallback_point is None and not counts.all():
        raise ValueError("fallback_point required when there are no requests")
    node_xy = np.array([n.location for n in nodes])
    seg = _units(stream) * S + stream.service
    length = np.bincount(seg, minlength=T * S)
    by_length = np.argsort(length, kind="stable")  # segments by length, ties by id
    rank = np.empty_like(by_length)
    rank[by_length] = np.arange(T * S)
    order = np.argsort(rank[seg], kind="stable")  # rows by segment rank
    del seg, rank
    x, y = stream.xy[order, 0], stream.xy[order, 1]

    mean = np.empty((T * S, E))  # by segment; transposed to (T, E, S) at the end
    sizes, starts = np.unique(length[by_length], return_index=True)
    row = 0
    for n, a, b in zip(sizes.tolist(), starts.tolist(), [*starts[1:].tolist(), T * S]):
        segs = by_length[a:b]
        if n == 0:  # centroid of the unit's requests, or the fallback point
            empty, which = np.unique(segs // S, return_inverse=True)
            centroid = np.array([
                stream.xy[stream.offsets[u]:stream.offsets[u + 1]].mean(axis=0) if counts[u]
                else np.asarray(fallback_point, dtype=float) for u in empty.tolist()])
            dist = np.hypot(node_xy[:, 0] - centroid[:, :1], node_xy[:, 1] - centroid[:, 1:])
            mean[segs] = dist[which]
            continue
        end = row + (b - a) * n
        dist = np.hypot(node_xy[:, :1] - x[row:end], node_xy[:, 1:] - y[row:end])
        mean[segs] = (np.add.reduce(dist.reshape(E, b - a, n), axis=2) / n).T
        row = end
    return alpha_ms_per_km * mean.reshape(T, S, E).transpose(0, 2, 1) + base_ms

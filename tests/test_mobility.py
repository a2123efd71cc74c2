import csv
import io
import logging
import math
import os
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgefail import mobility
from edgefail.config import ExperimentConfig
from edgefail.errors import IngestError, StructuralError
from edgefail.mobility import (
    BoundingBox,
    GridMap,
    MobilityModel,
    derive_delay_matrix,
    derive_demand,
    generate_synthetic,
    ingest_trace,
)
from edgefail.model import EdgeNode, RequestBatch, RequestStream, ServiceRequest
from edgefail.simulation import derive_inputs

GRID = GridMap()  # 3x3 cells of 5 km


def nodes_for(grid):
    return [
        EdgeNode(id=i, location=loc, capacity=100.0)
        for i, loc in enumerate(grid.node_locations())
    ]


def one_unit(locations, services):
    """A one-unit stream of requests by vehicles v0, v1, ..."""
    n = len(services)
    return RequestStream(np.reshape(locations, (-1, 2)), services, np.arange(n), [0, n],
                         tuple(f"v{i}" for i in range(n)))


def reference_demand(requests, num_services):
    """Per-request count that derive_demand must match bit for bit."""
    lam = np.zeros(num_services)
    for r in requests:
        lam[r.service] += 1.0
    return lam


def reference_delay_matrix(requests, nodes, num_services, alpha_ms_per_km=2.0, base_ms=1.0,
                           fallback_point=None):
    """Per-service mask and mean that derive_delay_matrix must match bit for bit."""
    node_xy = np.array([n.location for n in nodes])
    d = np.empty((len(nodes), num_services))
    if requests:
        pts = np.array([r.location for r in requests])
        svc = np.array([r.service for r in requests])
        centroid = pts.mean(axis=0)
    else:
        pts = np.empty((0, 2))
        svc = np.empty(0, dtype=int)
        centroid = np.asarray(fallback_point, dtype=float)
    centroid_dist = np.hypot(node_xy[:, 0] - centroid[0], node_xy[:, 1] - centroid[1])
    for s in range(num_services):
        mask = svc == s
        if mask.any():
            p = pts[mask]
            dist = np.hypot(
                node_xy[:, 0][:, None] - p[:, 0], node_xy[:, 1][:, None] - p[:, 1]
            ).mean(axis=1)
        else:
            dist = centroid_dist
        d[:, s] = alpha_ms_per_km * dist + base_ms
    return d


def per_unit_delay_matrix(batch, nodes, num_services, alpha_ms_per_km, base_ms, fallback_point):
    """One unit's delay matrix as a per-unit loop computes it: one distance
    pass over the requests grouped by service, one column slice each."""
    node_xy = np.array([n.location for n in nodes])
    centroid = batch.xy.mean(axis=0) if len(batch) else np.asarray(fallback_point, dtype=float)
    centroid_dist = np.hypot(node_xy[:, 0] - centroid[0], node_xy[:, 1] - centroid[1])
    pts = batch.xy[np.argsort(batch.service, kind="stable")]
    dist = np.hypot(node_xy[:, 0][:, None] - pts[:, 0], node_xy[:, 1][:, None] - pts[:, 1])
    counts = np.bincount(batch.service, minlength=num_services)
    mean = np.empty((len(nodes), num_services))
    start = 0
    for s, n in enumerate(counts.tolist()):
        mean[:, s] = np.add.reduce(dist[:, start:start + n], axis=1) / n if n else centroid_dist
        start += n
    return alpha_ms_per_km * mean + base_ms


def reference_ingest(path, bbox, grid, time_unit_s, num_services, seed, carry_gap):
    """The per-row ingest that ingest_trace must match bit for bit: returns
    each unit's (xy, services, vehicle names), the vehicle ids, and the
    dropped and malformed counts."""
    malformed = dropped = 0
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for raw in reader:
            if len(raw) != 4:
                malformed += 1
                continue
            try:
                ts, lat, lon = float(raw[1]), float(raw[2]), float(raw[3])
            except ValueError:
                malformed += 1
                continue
            if not (math.isfinite(ts) and math.isfinite(lat) and math.isfinite(lon)):
                malformed += 1
                continue
            if not bbox.contains(lat, lon):
                dropped += 1
                continue
            rows.append((raw[0], ts, lat, lon))
    t0 = min(r[1] for r in rows)
    horizon = int((max(r[1] for r in rows) - t0) // time_unit_s) + 1
    last_in_unit = {}
    for vid, ts, lat, lon in rows:
        unit = int((ts - t0) // time_unit_s)
        seen = last_in_unit.setdefault(vid, {})
        if unit not in seen or ts >= seen[unit][0]:
            seen[unit] = (ts, bbox.to_xy(lat, lon, grid))
    rng = np.random.default_rng(seed)
    vids = tuple(sorted(last_in_unit))
    units, last_pos = [], {}
    for t in range(horizon):
        present, xys = [], []
        for vid in vids:
            if t in last_in_unit[vid]:
                last_pos[vid] = (t, last_in_unit[vid][t][1])
            elif vid not in last_pos or t - last_pos[vid][0] > carry_gap:
                continue
            present.append(vid)
            xys.append(last_pos[vid][1])
        units.append((np.array(xys, dtype=float).reshape(-1, 2),
                      rng.integers(0, num_services, len(present)), present))
    return units, vids, dropped, malformed


def refuse_parse(monkeypatch):
    """Make a parse of any CSV fail, so an ingest that returns was a hit."""
    def refuse(*args, **kwargs):
        raise AssertionError("the trace was parsed again")

    monkeypatch.setattr(csv, "reader", refuse)


def sidecar(path):
    return path.with_name(path.name + ".parsed")


def short_column(sidecar_bytes):
    """The sidecar with its last column one row short."""
    fh, out = io.BytesIO(sidecar_bytes), io.BytesIO()
    out.write(fh.readline())
    columns = [np.load(fh) for _ in range(4)]
    for c in columns[:3] + [columns[3][:-1]]:
        np.save(out, c)
    return out.getvalue()


def same_columns(sa, sb):
    """Whether two request streams are the same, bit for bit; vehicle ids
    are compared as str (a numpy str array would strip trailing NULs)."""
    return sa.vehicles == sb.vehicles and all(getattr(sa, c).tobytes() == getattr(sb, c).tobytes()
                                              for c in ("xy", "service", "vehicle", "offsets"))


def same_stream(a, b):
    """Whether two ingests return the same counts and the same stream."""
    return ((a.dropped, a.malformed) == (b.dropped, b.malformed)
            and same_columns(a.requests_by_unit, b.requests_by_unit))


class TestGridMap:
    def test_geometry(self):
        assert GRID.width_km == 15.0 and GRID.height_km == 15.0
        assert GRID.rows * GRID.cols == 9
        locs = GRID.node_locations()
        assert locs[0] == (2.5, 2.5)
        assert locs[4] == (7.5, 7.5)  # center cell, row-major
        assert locs[8] == (12.5, 12.5)


class TestGenerateSynthetic:
    def test_single_vehicle_single_unit(self):
        units = generate_synthetic(seed=1, vehicles=1, grid=GRID, horizon=1)
        assert len(units) == 1
        assert len(units[0]) == 1
        req = units[0][0]
        assert req.time == 0
        assert 0 <= req.location[0] <= GRID.width_km and 0 <= req.location[1] <= GRID.height_km

    def test_determinism(self):
        a = generate_synthetic(seed=7, vehicles=40, grid=GRID, horizon=30)
        b = generate_synthetic(seed=7, vehicles=40, grid=GRID, horizon=30)
        assert same_columns(a, b)
        c = generate_synthetic(seed=8, vehicles=40, grid=GRID, horizon=30)
        assert not same_columns(a, c)

    def test_vehicles_stay_in_area(self):
        units = generate_synthetic(seed=3, vehicles=50, grid=GRID, horizon=80)
        for batch in units:
            for req in batch:
                x, y = req.location
                assert 0 <= x <= GRID.width_km and 0 <= y <= GRID.height_km

    def test_request_rate_matches_probability(self):
        model = MobilityModel(p_request=0.2)
        units = generate_synthetic(seed=11, vehicles=500, grid=GRID, horizon=600, model=model)
        mean = np.mean([len(b) for b in units])
        assert abs(mean - 100.0) / 100.0 < 0.05

    def test_full_participation_by_default(self):
        units = generate_synthetic(seed=5, vehicles=25, grid=GRID, horizon=4)
        assert all(len(b) == 25 for b in units)

    def test_speeds_within_configured_range(self):
        model = MobilityModel(speed_min_kmh=20.0, speed_max_kmh=60.0, time_unit_s=60.0)
        units = generate_synthetic(seed=2, vehicles=30, grid=GRID, horizon=40, model=model)
        max_step = 60.0 * 60.0 / 3600.0  # km per unit at the speed cap
        pos = {r.vehicle: r.location for r in units[0]}
        for batch in units[1:]:
            for r in batch:
                x0, y0 = pos[r.vehicle]
                dist = ((r.location[0] - x0) ** 2 + (r.location[1] - y0) ** 2) ** 0.5
                assert dist <= max_step + 1e-9
                pos[r.vehicle] = r.location


class TestRequestBatch:
    def test_rows_read_as_requests(self):
        batch = RequestBatch(3, [(1.0, 2.0), (4.0, 5.0)], [2, 0], [1, 0], ("a", "b"))
        assert len(batch) == 2
        assert list(batch) == [ServiceRequest("b", (1.0, 2.0), 3, 2),
                               ServiceRequest("a", (4.0, 5.0), 3, 0)]
        assert batch[-1] == ServiceRequest("a", (4.0, 5.0), 3, 0)
        assert not (batch.xy.flags.writeable or batch.service.flags.writeable
                    or batch.vehicle.flags.writeable)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="time"):
            RequestBatch(-1, [], [], [], ())
        with pytest.raises(StructuralError, match="one row per request"):
            RequestBatch(0, [(1.0, 2.0)], [0, 1], [0, 0], ("a",))

    def test_producers_make_no_request_objects(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a ServiceRequest was built")

        path = tmp_path / "trace.csv"
        path.write_text("vehicle_id,timestamp,lat,lon\ncab1,0,37.5,-122.5\ncab2,70,37.6,-122.4\n")
        monkeypatch.setattr(ServiceRequest, "__post_init__", refuse)
        assert sum(map(len, generate_synthetic(seed=1, vehicles=20, grid=GRID, horizon=5))) == 100
        result = ingest_trace(path, TestIngestTrace.BBOX, GRID)
        assert [len(b) for b in result.requests_by_unit] == [1, 2]

    def test_stream_units_are_views(self):
        stream = generate_synthetic(seed=4, vehicles=80, grid=GRID, horizon=30,
                                    model=MobilityModel(p_request=0.5))
        assert len(stream) == 30 and stream[-1].time == 29
        for t, batch in enumerate(stream):
            lo, hi = stream.offsets[t], stream.offsets[t + 1]
            assert batch.time == t and len(batch) == hi - lo
            assert np.shares_memory(batch.xy, stream.xy) or not len(batch)
            assert np.array_equal(batch.service, stream.service[lo:hi])
            assert batch.vehicles is stream.vehicles
        part = stream[10:20]
        assert len(part) == 10 and part.offsets[0] == 0
        for t, batch in enumerate(part):
            whole = stream[t + 10]
            assert batch.time == t and batch.vehicles is whole.vehicles
            assert all(np.array_equal(getattr(batch, c), getattr(whole, c))
                       for c in ("xy", "service", "vehicle"))
        assert len(stream[20:10]) == 0 and len(stream[:1000]) == 30
        with pytest.raises(IndexError):
            stream[30]
        with pytest.raises(StructuralError, match="offsets"):
            RequestStream(stream.xy, stream.service, stream.vehicle, [0, 5], stream.vehicles)


class TestIngestTrace:
    BBOX = BoundingBox(lat_min=37.0, lat_max=38.0, lon_min=-123.0, lon_max=-122.0)

    def write(self, tmp_path, rows, header="vehicle_id,timestamp,lat,lon"):
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return path

    def test_singleton(self, tmp_path):
        path = self.write(tmp_path, ["cab1,1000,37.5,-122.5"])
        result = ingest_trace(path, self.BBOX, GRID, time_unit_s=60, num_services=1)
        assert result.dropped == 0 and result.malformed == 0
        assert len(result.requests_by_unit) == 1
        (req,) = result.requests_by_unit[0]
        assert req.vehicle == "cab1" and req.service == 0 and req.time == 0
        # 37.5/-122.5 is the bbox midpoint: projects to the grid center
        assert req.location == (7.5, 7.5)

    def test_out_of_bbox_dropped(self, tmp_path):
        path = self.write(tmp_path, ["cab1,1000,37.5,-122.5", "cab2,1000,40.0,-122.5"])
        result = ingest_trace(path, self.BBOX, GRID)
        assert result.dropped == 1
        assert len(result.requests_by_unit[0]) == 1

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = self.write(
            tmp_path,
            ["cab1,1000,37.5,-122.5", "cab2,not_a_time,37.5,-122.5", "cab3,1000,37.5"],
        )
        result = ingest_trace(path, self.BBOX, GRID)
        assert result.malformed == 2
        assert len(result.requests_by_unit[0]) == 1

    def test_zero_usable_rows_raises(self, tmp_path):
        path = self.write(tmp_path, ["cab1,1000,40.0,-122.5"])
        with pytest.raises(IngestError):
            ingest_trace(path, self.BBOX, GRID)

    def test_header_required(self, tmp_path):
        path = self.write(tmp_path, ["cab1,1000,37.5,-122.5"], header="a,b,c,d")
        with pytest.raises(IngestError):
            ingest_trace(path, self.BBOX, GRID)

    def test_carry_forward_then_departure(self, tmp_path):
        # one point at unit 0, another at unit 9; gap 5 covers units 1..5
        path = self.write(tmp_path, ["cab1,0,37.5,-122.5", "cab1,540,37.2,-122.5"])
        result = ingest_trace(path, self.BBOX, GRID, time_unit_s=60, carry_gap=5)
        counts = [len(b) for b in result.requests_by_unit]
        assert counts == [1, 1, 1, 1, 1, 1, 0, 0, 0, 1]

    def test_request_count_equals_present_vehicles(self, tmp_path):
        # recount oracle: parse the same file independently
        rng = np.random.default_rng(2)
        rows = []
        for v in range(40):
            for k in range(rng.integers(1, 6)):
                ts = int(rng.integers(0, 600))
                rows.append(f"cab{v},{ts},{37.0 + rng.random() * 0.999},{-123.0 + rng.random() * 0.999}")
        path = self.write(tmp_path, rows)
        result = ingest_trace(path, self.BBOX, GRID, time_unit_s=60, carry_gap=0)
        t0 = min(int(row.split(",")[1]) for row in rows)
        per_unit = {}
        for row in rows:
            vid, ts, lat, lon = row.split(",")
            per_unit.setdefault((int(ts) - t0) // 60, set()).add(vid)
        for t, batch in enumerate(result.requests_by_unit):
            assert len(batch) == len(per_unit.get(t, set()))

    @pytest.mark.parametrize("seed", range(8))
    def test_same_bits_as_per_row_reference(self, tmp_path, monkeypatch, seed):
        # rows out of time order, equal timestamps inside a unit, silences
        # longer than carry_gap, rows outside the box, short, long,
        # unparsable and non-finite rows, a quoted id, a \r\n line end and,
        # where csv accepts NUL (Python 3.11 on), an id ending in one
        rnd = random.Random(seed)
        rows = []
        for _ in range(rnd.randint(1, 300)):
            vid = f"cab{rnd.randint(0, 15)}"
            ts = rnd.choice([rnd.uniform(-30.0, 900.0), 60.0 * rnd.randint(0, 15), 120.0, 0.0])
            lat, lon = rnd.uniform(36.95, 38.02), rnd.uniform(-123.02, -121.98)
            kind = rnd.random()
            rows.append(f"{vid},{ts!r},{lat!r}" if kind < 0.03
                        else f"{vid},{ts!r},{lat!r},{lon!r},x" if kind < 0.05
                        else f"{vid},t{ts!r},{lat!r},{lon!r}" if kind < 0.07
                        else f"{vid},{ts!r},nan,{lon!r}" if kind < 0.09
                        else f"{vid},inf,{lat!r},{lon!r}" if kind < 0.1
                        else f'"{vid}, quoted",{ts!r},{lat!r},{lon!r}' if kind < 0.12
                        else f"{vid}\x00,{ts!r},{lat!r},{lon!r}" if kind < 0.14
                        and sys.version_info >= (3, 11)
                        else f"{vid},{ts!r},{lat!r},{lon!r}\r" if kind < 0.16
                        else f"{vid},{ts!r},{lat!r},{lon!r}")
        rows.append("cab99,450.0,37.5,-122.5")  # at least one usable row
        path = self.write(tmp_path, rows)
        grid = GridMap(rows=2, cols=3, cell_km=4.0)
        for time_unit_s, carry_gap in ((60.0, 5), (37.5, 0), (10.0, 2), (60.0, -1)):
            want, vids, dropped, malformed = reference_ingest(
                path, self.BBOX, grid, time_unit_s, 4, seed, carry_gap)
            args = (path, self.BBOX, grid, time_unit_s, 4, seed, carry_gap)
            sidecar(path).unlink(missing_ok=True)  # the first call parses, the second reads it
            cold = ingest_trace(*args)
            with monkeypatch.context() as m:
                refuse_parse(m)
                warm = ingest_trace(*args)
            for got in (cold, warm):
                assert (got.dropped, got.malformed) == (dropped, malformed)
                assert len(got.requests_by_unit) == len(want)
                for t, (batch, (xy, services, names)) in enumerate(zip(got.requests_by_unit,
                                                                       want)):
                    assert batch.time == t and batch.vehicles == vids
                    assert np.array_equal(batch.xy, xy)
                    assert np.array_equal(batch.service, services)
                    assert [vids[v] for v in batch.vehicle.tolist()] == names

    def test_rewritten_file_misses(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, ["cab1,0,37.5,-122.5", "cab2,60,37.6,-122.4"])
        first = ingest_trace(path, self.BBOX, GRID)
        path = self.write(tmp_path, ["cab3,0,37.2,-122.8", "cab1,30,37.5,-122.5", "cab3,x,1,2"])
        second = ingest_trace(path, self.BBOX, GRID)
        assert second.requests_by_unit.vehicles == ("cab1", "cab3")
        assert (second.dropped, second.malformed) == (0, 1) and not same_stream(first, second)
        with monkeypatch.context() as m:
            refuse_parse(m)
            assert same_stream(ingest_trace(path, self.BBOX, GRID), second)

    DAMAGE = {
        "truncated": lambda good: good[:-5],
        "header only": lambda good: good[:good.index(b"\n") + 1],
        "garbage": lambda good: bytes(range(256)) * 3,
        "empty": lambda good: b"",
        "other version": lambda good: good.replace(b'"version": 1', b'"version": 0'),
        "not a dict": lambda good: b"[1, 2]" + good[good.index(b"\n"):],
        "short column": short_column,
    }

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_sidecar_misses_and_is_rewritten(self, tmp_path, monkeypatch, damage):
        path = self.write(tmp_path, ["cab1,0,37.5,-122.5", "cab2,70,37.6,-122.4", "cab1,x,1,2"])
        cold = ingest_trace(path, self.BBOX, GRID)
        side = sidecar(path)
        good = side.read_bytes()
        bad = self.DAMAGE[damage](good)
        assert bad != good
        side.write_bytes(bad)
        assert same_stream(ingest_trace(path, self.BBOX, GRID), cold)
        assert side.read_bytes() == good
        with monkeypatch.context() as m:
            refuse_parse(m)
            assert same_stream(ingest_trace(path, self.BBOX, GRID), cold)

    def test_unwritable_directory_still_ingests(self, tmp_path, monkeypatch, caplog):
        # tests may run as root, who can write anywhere: the move into place fails instead
        path = self.write(tmp_path, ["cab1,0,37.5,-122.5", "cab2,70,37.6,-122.4"])

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        with monkeypatch.context() as m, caplog.at_level(logging.DEBUG, "edgefail.mobility"):
            m.setattr(os, "replace", refuse)
            got = ingest_trace(path, self.BBOX, GRID)
        assert os.listdir(tmp_path) == ["trace.csv"]
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert got.requests_by_unit.vehicles == ("cab1", "cab2")
        assert [len(b) for b in got.requests_by_unit] == [1, 2]
        assert same_stream(ingest_trace(path, self.BBOX, GRID), got)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, tmp_path):
        # a trace from a pipe, such as a shell's <(...), can be read only
        # once: it is parsed as it streams, with no digest pass before
        r, w = os.pipe()
        os.write(w, b"vehicle_id,timestamp,lat,lon\ncab1,0,37.5,-122.5\ncab2,70,37.6,-122.4\n")
        os.close(w)
        try:
            got = ingest_trace(f"/dev/fd/{r}", self.BBOX, GRID)
        finally:
            os.close(r)
        assert [len(b) for b in got.requests_by_unit] == [1, 2]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from Python 3.11 on")
    def test_nul_ended_id_keeps_its_vehicle(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, ["ab,0,37.5,-122.5", "ab\x00,0,37.6,-122.4",
                                     "ab\x00\x00,10,37.7,-122.3"])
        cold = ingest_trace(path, self.BBOX, GRID)
        assert cold.requests_by_unit.vehicles == ("ab", "ab\x00", "ab\x00\x00")
        with monkeypatch.context() as m:
            refuse_parse(m)
            warm = ingest_trace(path, self.BBOX, GRID)
        assert same_stream(warm, cold) and len(warm.requests_by_unit[0]) == 3

    def test_peak_memory_within_a_few_times_the_stream(self, tmp_path):
        # the parsed rows become typed columns, and each later stage's
        # working arrays end with it: the traced peak stays a small
        # multiple of the returned columns
        rnd = random.Random(3)
        rows = []
        for v in range(120):
            ts = rnd.uniform(0.0, 600.0)
            while ts < 14_000.0 and len(rows) < 20_000:
                rows.append(f"cab{v:03d},{ts:.1f},{rnd.uniform(37.0, 38.0):.6f},"
                            f"{rnd.uniform(-123.0, -122.0):.6f}")
                ts += rnd.uniform(15.0, 150.0)
        assert len(rows) > 15_000
        # a first call imports what numpy loads lazily
        ingest_trace(self.write(tmp_path, rows[:50]), self.BBOX, GRID)
        path = self.write(tmp_path, rows)
        tracemalloc.start()
        try:
            stream = ingest_trace(path, self.BBOX, GRID, carry_gap=3).requests_by_unit
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(c.nbytes for c in (stream.xy, stream.service, stream.vehicle, stream.offsets))
        assert peak < 4 * size, (peak, size)


def lexsort_last_fixes(names, rows, bbox, grid, time_unit_s):
    """``mobility._last_fixes`` as one lexsort by (vehicle, unit) key, then
    timestamp: stable, so equal timestamps keep their row order and the
    last row of each key wins."""
    code, ts, lat, lon = rows
    used = sorted(np.flatnonzero(np.bincount(code)).tolist(), key=names.__getitem__)
    rank = np.zeros(len(names), dtype=np.int64)
    rank[used] = np.arange(len(used))
    vehicle, t0 = rank[code], ts.min()
    unit = ((ts - t0) // time_unit_s).astype(np.int64)
    horizon = int((ts.max() - t0) // time_unit_s) + 1
    order = np.lexsort((ts, vehicle * horizon + unit))
    key = (vehicle * horizon + unit)[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    win = order[last]
    xy = np.column_stack(bbox.to_xy(lat[win], lon[win], grid))
    return tuple(names[c] for c in used), (vehicle[win], unit[win], xy), horizon


class TestLastFixes:
    BBOX = BoundingBox(lat_min=37.0, lat_max=38.0, lon_min=-123.0, lon_max=-122.0)

    def check(self, names, code, ts, rng, time_unit_s=60.0):
        """Compare with the lexsort form; return the result and the rows."""
        rows = (np.asarray(code, dtype=np.int64), np.asarray(ts, dtype=float),
                rng.uniform(37.0, 38.0, len(code)), rng.uniform(-123.0, -122.0, len(code)))
        want = lexsort_last_fixes(names, rows, self.BBOX, GRID, time_unit_s)
        got = mobility._last_fixes(names, rows, self.BBOX, GRID, time_unit_s)
        assert got[0] == want[0] and got[2] == want[2]
        for a, b in zip(got[1], want[1]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return got, rows

    def test_shuffled_trace(self):
        rng = np.random.default_rng(2)
        cabs, fixes = 40, 30
        code = np.repeat(np.arange(cabs), fixes)
        ts = np.concatenate([np.sort(rng.uniform(0.0, 3600.0, fixes)) for _ in range(cabs)])
        order = rng.permutation(len(code))
        self.check([f"cab{c:03d}" for c in rng.permutation(cabs)], code[order], ts[order], rng)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), V=st.integers(1, 6),
           stamps=st.sampled_from([(-0.0, 0.0, 59.0, 60.0), (0.0, 30.0, 30.0), (5.0,),
                                   (-0.0, -0.0, 0.0, 0.0, 120.5)]))
    def test_ties_go_to_the_later_row(self, seed, n, V, stamps):
        # equal timestamps, -0.0 beside 0.0, one vehicle's rows in every unit
        rng = np.random.default_rng(seed)
        self.check([f"v{i}" for i in rng.permutation(V)], rng.integers(0, V, n),
                   rng.choice(stamps, n), rng)

    @pytest.mark.parametrize("ts, winner", [
        ([1.0, 9.0, 0.0, 9.0], 3),  # rows 1 and 3 share the latest time
        ([0.0, -0.0], 1),  # -0.0 equals 0.0
        ([-0.0, 0.0, -0.0], 2),
        ([3.0, 2.0, 1.0], 0),
    ])
    def test_later_row_of_an_equal_latest_timestamp_wins(self, ts, winner):
        rng = np.random.default_rng(0)
        (vids, (vehicle, unit, xy), horizon), (_, _, lat, lon) = self.check(
            ["a"], [0] * len(ts), ts, rng)
        assert (vids, vehicle.tolist(), unit.tolist(), horizon) == (("a",), [0], [0], 1)
        want = np.column_stack(self.BBOX.to_xy(lat[[winner]], lon[[winner]], GRID))
        assert xy.tobytes() == want.tobytes()


class TestDeriveDemand:
    def test_single_service(self):
        lam = derive_demand(one_unit([(1.0, 1.0)] * 25, [0] * 25), 3)
        assert lam.tolist() == [[25.0, 0.0, 0.0]]

    def test_worked_example_totals(self):
        # 25 + 22 + 18 vehicles on one service across three cells
        xy = [(2.5, 2.5)] * 25 + [(7.5, 2.5)] * 22 + [(12.5, 2.5)] * 18
        assert derive_demand(one_unit(xy, [0] * 65), 1)[0, 0] == 65.0

    def test_recount_matches_brute_force(self):
        rng = np.random.default_rng(9)
        batch = one_unit([(1.0, 1.0)] * 300, rng.integers(0, 8, 300))
        (lam,) = derive_demand(batch, 8)
        tally = [0] * 8
        for r in batch[0]:
            tally[r.service] += 1
        assert lam.tolist() == [float(c) for c in tally]
        assert lam.sum() == 300

    def test_service_out_of_range_raises(self):
        with pytest.raises(ValueError, match="service 3 out of range"):
            derive_demand(one_unit([(1.0, 1.0)], [3]), 3)
        with pytest.raises(ValueError, match="service -1 out of range"):
            derive_demand(one_unit([(1.0, 1.0)], [-1]), 3)


class TestDeriveDelayMatrix:
    nodes = nodes_for(GRID)

    def test_colocated_vehicles_give_base_delay(self):
        (d,) = derive_delay_matrix(one_unit([(2.5, 2.5)], [0]), self.nodes, 1,
                                   alpha_ms_per_km=2.0, base_ms=1.0)
        assert d[0, 0] == pytest.approx(1.0)

    def test_affine_model(self):
        # 10 km from node 0 at alpha 2 ms/km plus base 1 ms
        (d,) = derive_delay_matrix(one_unit([(12.5, 2.5)], [0]), self.nodes, 1,
                                   alpha_ms_per_km=2.0, base_ms=1.0)
        assert d[0, 0] == pytest.approx(21.0)

    def test_monotone_in_distance(self):
        (dn,) = derive_delay_matrix(one_unit([(3.0, 2.5)], [0]), self.nodes, 1)
        (df,) = derive_delay_matrix(one_unit([(9.0, 2.5)], [0]), self.nodes, 1)
        assert df[0, 0] > dn[0, 0]

    def test_empty_services_use_crowd_centroid(self):
        (d,) = derive_delay_matrix(one_unit([(2.5, 2.5), (12.5, 2.5)], [0, 0]), self.nodes, 2,
                                   alpha_ms_per_km=2.0, base_ms=1.0)
        # service 1 has no demand: node 0 is 5 km from the centroid (7.5, 2.5)
        assert d[0, 1] == pytest.approx(2.0 * 5.0 + 1.0)
        # node 1 sits on the centroid
        assert d[1, 1] == pytest.approx(1.0)

    def test_bounds_within_grid_diagonal(self):
        units = generate_synthetic(seed=13, vehicles=60, grid=GRID, horizon=20)
        hi = 1.0 + 2.0 * math.hypot(GRID.width_km, GRID.height_km)
        d = derive_delay_matrix(units, self.nodes, 8)
        assert d.shape == (20, 9, 8)
        assert (d >= 1.0 - 1e-12).all()
        assert (d <= hi + 1e-12).all()

    def test_empty_unit_needs_fallback(self):
        with pytest.raises(ValueError):
            derive_delay_matrix(one_unit([], []), self.nodes, 2)
        d = derive_delay_matrix(one_unit([], []), self.nodes, 2, fallback_point=GRID.center())
        assert d.shape == (1, 9, 2) and np.isfinite(d).all()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 4), cols=st.integers(1, 4), num_services=st.integers(1, 12),
        n=st.integers(0, 400), seed=st.integers(0, 2**32 - 1), data=st.data(),
    )
    def test_same_bits_as_per_request_reference(self, rows, cols, num_services, n, seed, data):
        grid = GridMap(rows=rows, cols=cols)
        used = data.draw(st.sets(st.integers(0, num_services - 1), min_size=1))
        rng = np.random.default_rng(seed)
        names = tuple(f"v{i}" for i in range(max(n, 1)))
        batch = RequestBatch(
            data.draw(st.integers(0, 1000)) if n else 0,
            rng.random((n, 2)) * [grid.width_km, grid.height_km],
            rng.choice(sorted(used), n),
            rng.permutation(len(names))[:n],
            names,
        )
        requests = list(batch)
        stream = RequestStream(batch.xy, batch.service, batch.vehicle, [0, n], names)
        nodes = nodes_for(grid)
        want_lam = reference_demand(requests, num_services)
        want_d = reference_delay_matrix(requests, nodes, num_services, 2.0, 1.0, grid.center())
        assert np.array_equal(derive_demand(stream, num_services), [want_lam])
        got = derive_delay_matrix(stream, nodes, num_services, fallback_point=grid.center())
        assert np.array_equal(got, [want_d])

    # unit sizes around numpy's pairwise-sum thresholds (8 and 128 terms)
    SIZES = st.one_of(st.just(0), st.integers(1, 7), st.integers(8, 127), st.integers(128, 400))

    @settings(max_examples=60, deadline=None)
    @given(cols=st.integers(2, 3), num_services=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(SIZES, min_size=1, max_size=12),
           chunk_rows=st.sampled_from([1, 5, 64, 300, None]), data=st.data())
    def test_stream_same_bits_as_per_unit_reference(self, cols, num_services, seed, sizes,
                                                    chunk_rows, data):
        # chunks of whole units: a unit that would cross a chunk's bound
        # starts the next chunk, and a unit larger than the bound is a
        # chunk of its own; empty services take the unit's centroid, empty
        # units the grid center
        cfg = ExperimentConfig.from_sources(overrides={
            "grid.cols": cols, "services.count": num_services, "node.capacity": 1000.0,
            "placement.instances_per_service": 2})
        grid, nodes = cfg.grid(), cfg.nodes()
        used = sorted(data.draw(st.sets(st.integers(0, num_services - 1), min_size=1)))
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        names = tuple(f"v{i}" for i in range(max(n, 1)))
        stream = RequestStream(rng.random((n, 2)) * [grid.width_km, grid.height_km],
                               rng.choice(used, n), rng.integers(0, len(names), n),
                               np.cumsum([0] + sizes), names)
        limit = mobility.CHUNK_BYTES if chunk_rows is None else 8 * len(nodes) * chunk_rows
        with mock.patch.object(mobility, "CHUNK_BYTES", limit):
            chunks = list(mobility.unit_chunks(stream, len(nodes)))
            got = derive_inputs(cfg, stream)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(sizes)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        for first, end in chunks:
            rows = stream.offsets[end] - stream.offsets[first]
            assert end - first == 1 or 8 * len(nodes) * rows <= limit
        for t, batch in enumerate(stream):
            want = per_unit_delay_matrix(batch, nodes, num_services, cfg.delay_alpha_ms_per_km,
                                         cfg.delay_base_ms, grid.center())
            assert np.array_equal(got.delay[t], want), t
            want_lam = np.bincount(batch.service, minlength=num_services).astype(float)
            assert np.array_equal(got.demand[t], want_lam), t

    def test_determinism_bit_identical(self):
        units = generate_synthetic(seed=21, vehicles=30, grid=GRID, horizon=5)
        a = derive_delay_matrix(units[2:3], self.nodes, 8)
        b = derive_delay_matrix(units[2:3], self.nodes, 8)
        assert np.array_equal(a, b)

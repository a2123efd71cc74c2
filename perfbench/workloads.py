"""Workload inputs, made from the benchmark seed before any timing starts.

A workload is a list of scenarios.  Each scenario is the set of config
overrides `edgefail run` would resolve, plus what the checks expect of
it.  `run.py` writes the list to a JSON spec that every workload
process reads, so all passes of one run see the same inputs.
"""

from __future__ import annotations

import os
import random

import numpy as np

WORKLOADS = ("default", "contention", "city-trace")

# Acceptance criterion 6 draws its 100 contention scenarios from these.
CONTENTION_IDS = 100
# Scenarios per pass: one from each of this many strata of the 100,
# ranked by fleet size, so the work of a pass barely depends on the seed.
CONTENTION_STRATA = 14

# City trace: a taxi-like fleet over a San-Francisco-sized box.
CITY_BBOX = (37.70, 37.82, -122.52, -122.38)  # lat_min, lat_max, lon_min, lon_max
CITY_T0 = 1_211_018_404  # first timestamp of the trace (Unix seconds)
CITY_CABS = 420
CITY_HOURS = 4
CITY_GAP_S = (15.0, 150.0)  # irregular sampling interval between two fixes
CITY_OUTSIDE = 0.04  # share of waypoints just outside the box
CITY_MALFORMED = 0.005  # share of rows written malformed
CITY_GRID = {"grid.rows": 4, "grid.cols": 4, "services.count": 12,
             "placement.instances_per_service": 4}


def contention_overrides(sid: int) -> dict:
    """The config criterion 6 builds for scenario ``sid``."""
    rng = np.random.default_rng([sid, 99])
    vehicles = int(rng.integers(300, 421))
    return {
        "horizon": 24,
        "attack.every": 12,
        "mobility.vehicles": vehicles,
        "mobility.p_request": 0.75,
        "seed": sid,
    }


def contention_ids(seed: int, strata: int = CONTENTION_STRATA) -> list[int]:
    """One scenario id per fleet-size stratum, picked by ``seed``."""
    by_size = sorted(
        range(CONTENTION_IDS),
        key=lambda sid: (contention_overrides(sid)["mobility.vehicles"], sid),
    )
    rng = np.random.default_rng([seed, 0xC0])
    return [int(chunk[rng.integers(len(chunk))])
            for chunk in np.array_split(np.array(by_size), strata)]


def write_city_trace(path: str, seed: int, cabs: int, hours: float) -> dict:
    """Write a seeded `vehicle_id,timestamp,lat,lon` trace; return its counts.

    Each cab drives a shift between random waypoints and reports its
    position at irregular intervals.  Waypoints in a margin around the
    box make some rows fall outside it; a few rows are written malformed
    (short, long, unparsable or non-finite).  Whether a row is outside
    the box is decided on the coordinates as written, the way
    `ingest_trace` reads them.
    """
    rng = random.Random(seed)
    lat_min, lat_max, lon_min, lon_max = CITY_BBOX
    dlat, dlon = lat_max - lat_min, lon_max - lon_min
    span_s = hours * 3600.0
    counts = {"rows": 0, "outside": 0, "malformed": 0}

    def waypoint():
        lat, lon = lat_min + rng.random() * dlat, lon_min + rng.random() * dlon
        if rng.random() < CITY_OUTSIDE:
            # up to 5% beyond the west or south edge
            if rng.random() < 0.5:
                lon = lon_min - rng.random() * 0.05 * dlon
            else:
                lat = lat_min - rng.random() * 0.05 * dlat
        return lat, lon

    lines = ["vehicle_id,timestamp,lat,lon"]
    for cab in range(cabs):
        vid = f"cab{cab:04d}"
        # cab 0 opens the trace at t0 inside the box, so the unit grid is fixed
        t = 0.0 if cab == 0 else rng.uniform(0.0, 0.25 * span_s)
        end = rng.uniform(0.75 * span_s, span_s - 1.0)
        pos = (lat_min + 0.5 * dlat, lon_min + 0.5 * dlon) if cab == 0 else waypoint()
        goal = waypoint()
        speed = rng.uniform(0.6, 1.6) * 1e-4  # degrees per second
        while t < end:
            bad = rng.random() < CITY_MALFORMED
            lat, lon = f"{pos[0]:.6f}", f"{pos[1]:.6f}"
            stamp = f"{CITY_T0 + t:.1f}"
            if bad:
                kind = rng.randrange(4)
                row = (f"{vid},{stamp},{lat}" if kind == 0
                       else f"{vid},{stamp},{lat},{lon},1" if kind == 1
                       else f"{vid},t{stamp},{lat},{lon}" if kind == 2
                       else f"{vid},{stamp},nan,{lon}")
                counts["malformed"] += 1
            else:
                row = f"{vid},{stamp},{lat},{lon}"
                if not (lat_min <= float(lat) <= lat_max and lon_min <= float(lon) <= lon_max):
                    counts["outside"] += 1
            lines.append(row)
            counts["rows"] += 1
            gap = rng.uniform(*CITY_GAP_S)
            t += gap
            step = speed * gap
            dist = ((goal[0] - pos[0]) ** 2 + (goal[1] - pos[1]) ** 2) ** 0.5
            if dist <= step:
                pos, goal = goal, waypoint()
            else:
                pos = (pos[0] + (goal[0] - pos[0]) * step / dist,
                       pos[1] + (goal[1] - pos[1]) * step / dist)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return counts


def build_spec(workload: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """Scenarios of one workload for ``seed``; writes the trace file if needed.

    ``tiny`` shrinks every workload to a second or so, for the smoke test.
    """
    if workload == "default":
        overrides = {"seed": seed}
        if tiny:
            overrides.update({"horizon": 60, "attack.every": 20})
        scenarios = [{"name": f"default-{seed}", "overrides": overrides}]
    elif workload == "contention":
        ids = contention_ids(seed, strata=2 if tiny else CONTENTION_STRATA)
        scenarios = [{"name": f"contention-{sid}", "overrides": contention_overrides(sid)}
                     for sid in ids]
    elif workload == "city-trace":
        hours = 1 if tiny else CITY_HOURS
        path = os.path.join(out_dir, "city_trace.csv")
        counts = write_city_trace(path, seed, 60 if tiny else CITY_CABS, hours)
        overrides = dict(CITY_GRID)
        overrides.update({
            "dataset": f"trace:{path}",
            "trace.bbox": ",".join(str(v) for v in CITY_BBOX),
            "horizon": int(hours * 60),
            "attack.every": 20 if tiny else 40,
            "seed": seed,
        })
        scenarios = [{"name": f"city-trace-{seed}", "overrides": overrides,
                      "trace_counts": counts}]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"workload": workload, "seed": seed, "scenarios": scenarios}

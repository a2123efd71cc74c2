"""Vehicle mobility: synthetic waypoint traffic and trace ingestion.

The coverage area is a 3x3 grid of 5 km cells with one edge node per
cell center.  A request stream is one set of columns over all units;
demand and the propagation-delay matrix are derived for each time unit
from whichever vehicles requested a service that unit.
"""

import csv
import math
import tempfile

import numpy as np

from edgefail import (
    BoundingBox,
    EdgeNode,
    GridMap,
    MobilityModel,
    derive_delay_matrix,
    derive_demand,
    generate_synthetic,
    ingest_trace,
)

grid = GridMap()
nodes = [EdgeNode(id=i, location=loc, capacity=100.0)
         for i, loc in enumerate(grid.node_locations())]
print("grid:", grid.rows, "x", grid.cols, "cells of", grid.cell_km, "km")
print("node positions:", grid.node_locations())

# --- synthetic stream -------------------------------------------------------
model = MobilityModel(p_request=0.3, speed_min_kmh=20, speed_max_kmh=60)
units = generate_synthetic(seed=7, vehicles=200, grid=grid, horizon=10, model=model)
print("\nsynthetic requests per unit:", [len(u) for u in units])

lam = derive_demand(units, num_services=8)  # (units, services)
print("demand by service at t=0:", lam[0], "total", int(lam[0].sum()))

d = derive_delay_matrix(units, nodes, num_services=8)  # (units, nodes, services)
print("delay matrix row for the center node at t=0 (ms):", np.round(d[0, 4], 2))
print("entries stay within [base, base + alpha * grid diagonal] =",
      (1.0, round(1.0 + 2.0 * math.hypot(grid.width_km, grid.height_km), 1)))

# same seed, same stream: safe to compare policies on identical inputs
again = generate_synthetic(seed=7, vehicles=200, grid=grid, horizon=10, model=model)
print("deterministic for a fixed seed:", units == again)

# --- trace ingestion ---------------------------------------------------------
# The expected CSV schema is: vehicle_id,timestamp,lat,lon (with header).
# Cabspotting-style files ("lat lon occupancy time", space-delimited, one
# file per cab) convert with a few lines, e.g.:
#
#   for f in cabs/*.txt:
#       for line in f:  lat, lon, occ, t = line.split()
#       write f"{cab_id},{t},{lat},{lon}"
#
bbox = BoundingBox(lat_min=37.6, lat_max=37.81, lon_min=-122.52, lon_max=-122.35)
rng = np.random.default_rng(0)
with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False, newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["vehicle_id", "timestamp", "lat", "lon"])
    for cab in range(25):
        lat, lon = 37.7, -122.45
        for t in range(0, 600, 60):
            lat += rng.normal(0, 0.004)
            lon += rng.normal(0, 0.004)
            writer.writerow([f"cab{cab:02d}", t, f"{lat:.6f}", f"{lon:.6f}"])
    path = fh.name

result = ingest_trace(path, bbox, grid, time_unit_s=60, num_services=8, seed=1)
print("\ningested", sum(len(u) for u in result.requests_by_unit), "requests over",
      len(result.requests_by_unit), "units")
print("rows dropped outside the box:", result.dropped,
      " malformed rows skipped:", result.malformed)

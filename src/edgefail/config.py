"""Experiment configuration: defaults, flat key-value files, hashing.

Keys are the fields of ``ExperimentConfig`` with the first underscore
written as a dot (``grid.rows``, ``lbpsvm.k1``, ...).  Precedence is
CLI overrides > config file > defaults.  The default values mirror the
reference scenario: a 3x3 grid of edge nodes over 15x15 km^2, 100
resource units per node, 8 service types with footprints 10..24 and
delay caps 50..120 ms, 30 connections per instance, and an attack every
100th time unit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, InfeasibleError
from .mobility import BoundingBox, GridMap, MobilityModel
from .model import EdgeNode, ServiceType
from .placement import check_budget

POLICIES = ("lb-psvm", "psvm", "br")


def _coerce(key: str, value, where: str = "") -> object:
    if value is None or (isinstance(value, str) and value.strip().lower() in ("none", "null", "")):
        if key in _OPTIONAL:
            return None
        raise ConfigError(f"{where}{key}: a value is required")
    kind = _KINDS[key]
    try:
        if kind == "int":
            return int(str(value))
        if kind == "float":
            return float(str(value))
        if kind == "bool":
            if isinstance(value, bool):
                return value
            v = str(value).strip().lower()
            if v in ("true", "1", "yes", "on"):
                return True
            if v in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}{key}: {exc}") from None
    return str(value)


def parse_config_file(path) -> dict[str, object]:
    """Parse a flat ``key = value`` file; ``#`` starts a comment.

    Raises:
        ConfigError: with the offending line number on unknown keys or
            malformed lines.
    """
    out: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, value.strip(), where=f"{path}:{lineno}: ")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    policies: str = "lb-psvm,psvm,br"
    horizon: int = 600
    seed: int = 0
    out: str | None = None
    grid_rows: int = 3
    grid_cols: int = 3
    grid_cell_km: float = 5.0
    node_capacity: float = 100.0
    services_count: int = 8
    service_capacity: float = 30.0
    delay_alpha_ms_per_km: float = 2.0
    delay_base_ms: float = 1.0
    trace_time_unit_s: float = 60.0
    trace_carry_gap: int = 5
    trace_bbox: str | None = None
    mobility_vehicles: int = 500
    mobility_p_request: float = 0.2
    mobility_speed_min_kmh: float = 20.0
    mobility_speed_max_kmh: float = 60.0
    placement_instances_per_service: int = 3
    br_enabled: bool = True
    lbpsvm_k1: float | None = None
    lbpsvm_k2: float | None = None
    lbpsvm_epsilon: float = 1e-3
    lbpsvm_kkt_tol: float = 1e-8
    solver_max_iters: int = 200
    queue_ms_per_unit: float = 1000.0
    attack_every: int = 100
    attack_target: str = "most-loaded"
    attack_schedule: str | None = None
    attack_quarantine: int | None = None
    recovery_delay: int = 1
    monitor_period: int = 5
    monitor_threshold: float = 0.5

    @classmethod
    def from_sources(
        cls,
        file: str | None = None,
        overrides: dict[str, object] | None = None,
    ) -> "ExperimentConfig":
        """Merge defaults, an optional config file, and explicit overrides."""
        merged = dict(DEFAULTS)
        if file is not None:
            merged.update(parse_config_file(file))
        for key, value in (overrides or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
        cfg = cls(**{KEY_MAP[k]: v for k, v in merged.items()})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError on any out-of-range or inconsistent setting."""
        problems = [
            f"{key}: must be finite" for key, kind in _KINDS.items()
            if kind == "float" and not math.isfinite(getattr(self, KEY_MAP[key]) or 0.0)
        ]
        if self.horizon < 1:
            problems.append("horizon: must be >= 1")
        policies = self.policy_list()
        bad = [p for p in policies if p not in POLICIES]
        if bad:
            problems.append(f"policies: unknown {bad}, valid: {','.join(POLICIES)}")
        if not policies:
            problems.append("policies: need at least one")
        if len(set(policies)) < len(policies):
            problems.append("policies: each policy at most once")
        if not (self.dataset == "synthetic" or self.dataset.startswith("trace:")):
            problems.append("dataset: expected 'synthetic' or 'trace:<path>'")
        if self.dataset.startswith("trace:") and self.trace_bbox is None:
            problems.append("trace.bbox: required for trace datasets "
                            "(lat_min,lat_max,lon_min,lon_max)")
        try:
            self.bbox()
        except ValueError as exc:
            problems.append(f"trace.bbox: {exc}")
        if self.grid_rows < 1 or self.grid_cols < 1 or self.grid_cell_km <= 0:
            problems.append("grid: rows/cols must be >= 1, cell_km > 0")
        if self.services_count < 1:
            problems.append("services.count: must be >= 1")
        if self.service_capacity <= 0 or self.node_capacity <= 0:
            problems.append("capacities must be > 0")
        if self.placement_instances_per_service < 2:
            problems.append("placement.instances_per_service: must be >= 2")
        if self.mobility_vehicles < 1:
            problems.append("mobility.vehicles: must be >= 1")
        if not (0.0 <= self.mobility_p_request <= 1.0):
            problems.append("mobility.p_request: must be in [0, 1]")
        if not (0.0 < self.mobility_speed_min_kmh <= self.mobility_speed_max_kmh):
            problems.append("mobility.speed_min_kmh: must be > 0 and <= mobility.speed_max_kmh")
        if self.trace_time_unit_s <= 0:
            problems.append("trace.time_unit_s: must be > 0")
        for key in ("delay.alpha_ms_per_km", "delay.base_ms", "queue.ms_per_unit",
                    "lbpsvm.k1", "lbpsvm.k2"):
            value = getattr(self, KEY_MAP[key])
            if value is not None and value < 0:
                problems.append(f"{key}: must be >= 0")
        if self.attack_every < 1:
            problems.append("attack.every: must be >= 1")
        if self.recovery_delay < 1:
            problems.append("recovery.delay: must be >= 1")
        # an onset drops the node health a split is solved from, and only a
        # non-attack unit, after the recovery, keeps it again: so recovery
        # must come at least one unit before the next onset can
        if self.quarantine_units() <= self.recovery_delay:
            problems.append("attack.quarantine: must be > recovery.delay")
        if self.monitor_period < 1:
            problems.append("monitor.period: must be >= 1")
        if not (0.0 <= self.monitor_threshold <= 1.0):
            problems.append("monitor.threshold: must be in [0, 1]")
        if self.lbpsvm_epsilon <= 0:
            problems.append("lbpsvm.epsilon: must be > 0")
        if self.lbpsvm_kkt_tol <= 0:
            problems.append("lbpsvm.kkt_tol: must be > 0")
        if self.solver_max_iters < 1:
            problems.append("solver.max_iters: must be >= 1")
        if self.attack_target not in ("most-loaded", "random") and self.attack_schedule is None:
            problems.append("attack.target: 'most-loaded', 'random', or set attack.schedule")
        if self.attack_schedule is not None:
            try:
                self.schedule_list()
            except ValueError as exc:
                problems.append(f"attack.schedule: {exc}")
        if not problems:
            # what no placement can meet, caught here rather than at t=1
            I, E = self.placement_instances_per_service, self.grid_rows * self.grid_cols
            if I > E:
                problems.append(f"placement.instances_per_service: {I} instances need "
                                f"distinct nodes, the grid has {E}")
            else:
                try:
                    check_budget(self.services(), self.nodes(), I)
                except InfeasibleError as exc:
                    problems.append(f"node.capacity: {exc}")
        if problems:
            raise ConfigError("; ".join(problems))

    # ---- derived views -------------------------------------------------

    def policy_list(self) -> list[str]:
        return [p.strip() for p in self.policies.split(",") if p.strip()]

    def schedule_list(self) -> list[tuple[int, int]]:
        """Explicit attacks as (time, node) pairs from 't:node,t:node'.

        Raises:
            ValueError: on a malformed item, a time below 1, a time given
                twice, a node outside the grid, or a time inside the
                previous attack's quarantine, where it could never start.
        """
        if self.attack_schedule is None:
            return []
        events = []
        E = self.grid_rows * self.grid_cols
        for item in self.attack_schedule.split(","):
            t, _, node = item.strip().partition(":")
            t, node = int(t), int(node)
            if t < 1 or not 0 <= node < E:
                raise ValueError(f"{t}:{node}: times must be >= 1 and nodes in [0, {E})")
            events.append((t, node))
        if len({t for t, _ in events}) < len(events):
            raise ValueError("at most one attack per time")
        events.sort()
        q = self.quarantine_units()
        for (t0, e0), (t, e) in zip(events, events[1:]):
            if t - t0 < q:
                raise ValueError(f"{t}:{e} comes {t - t0} units after {t0}:{e0}, "
                                 f"inside its attack.quarantine of {q} units")
        return events

    def quarantine_units(self) -> int:
        return self.attack_quarantine if self.attack_quarantine is not None else self.attack_every

    def grid(self) -> GridMap:
        return GridMap(rows=self.grid_rows, cols=self.grid_cols, cell_km=self.grid_cell_km)

    def services(self) -> list[ServiceType]:
        """Service catalog: footprint 10 + 2s, delay cap 50 + 10s ms."""
        return [
            ServiceType(
                id=s,
                delay_threshold=50.0 + 10.0 * s,
                resource_cost=10.0 + 2.0 * s,
            )
            for s in range(self.services_count)
        ]

    def nodes(self) -> list[EdgeNode]:
        return [
            EdgeNode(id=i, location=loc, capacity=self.node_capacity)
            for i, loc in enumerate(self.grid().node_locations())
        ]

    def mobility_model(self) -> MobilityModel:
        return MobilityModel(
            p_request=self.mobility_p_request,
            speed_min_kmh=self.mobility_speed_min_kmh,
            speed_max_kmh=self.mobility_speed_max_kmh,
            time_unit_s=self.trace_time_unit_s,
        )

    def bbox(self) -> BoundingBox | None:
        """The trace's box; ValueError when ``trace.bbox`` is malformed."""
        if self.trace_bbox is None:
            return None
        parts = [float(v) for v in self.trace_bbox.split(",")]
        if len(parts) != 4:
            raise ValueError("expected lat_min,lat_max,lon_min,lon_max")
        return BoundingBox(*parts)

    def trace_path(self) -> str | None:
        if self.dataset.startswith("trace:"):
            return self.dataset.split(":", 1)[1]
        return None

    def to_dict(self) -> dict[str, object]:
        return {FIELD_MAP[f.name]: getattr(self, f.name) for f in fields(self)}

    def config_hash(self) -> str:
        """Hash of everything that shapes the data, excluding policy/output."""
        payload = {
            k: v
            for k, v in sorted(self.to_dict().items())
            if k not in ("policies", "out")
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def replace(self, **changes) -> "ExperimentConfig":
        """Copy with changes; accepts dotted keys or field names."""
        merged = self.to_dict()
        for k, v in changes.items():
            dotted = k if k in DEFAULTS else FIELD_MAP.get(k)
            if dotted is None:
                raise ConfigError(f"unknown config key {k!r}")
            merged[dotted] = _coerce(dotted, v)
        cfg = ExperimentConfig(**{KEY_MAP[k]: v for k, v in merged.items()})
        cfg.validate()
        return cfg


FIELD_MAP = {f.name: f.name.replace("_", ".", 1) for f in fields(ExperimentConfig)}
KEY_MAP = {k: f for f, k in FIELD_MAP.items()}
DEFAULTS: dict[str, object] = {FIELD_MAP[f.name]: f.default for f in fields(ExperimentConfig)}
# a key's type is the first alternative of its field's annotation; only a
# key whose annotation admits None may be left empty or set to none
_TYPES = {FIELD_MAP[f.name]: f.type.replace(" ", "").split("|") for f in fields(ExperimentConfig)}
_KINDS = {k: t[0] for k, t in _TYPES.items()}
_OPTIONAL = {k for k, t in _TYPES.items() if "None" in t}

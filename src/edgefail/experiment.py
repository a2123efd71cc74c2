"""Batch experiment runner: policy sweeps, CSV metrics, summaries, manifests.

One invocation builds the request stream once, as one set of columns,
derives every unit's demand and delay matrix from it once
(``simulation.derive_inputs``), simulates every requested policy over
those shared inputs and writes three artifacts into the output directory:

* ``metrics.csv``  -- one row per (policy, time unit)
* ``summary.csv``  -- per-policy averages in the comparison-table shape
* ``manifest.json`` -- resolved config, its hash, seed, dataset, version

Identical config + seed reproduce byte-identical CSV bodies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .metrics import RunTable
from .model import RequestStream
from .mobility import generate_synthetic, ingest_trace
from .simulation import Simulation, StreamInputs, derive_inputs

METRICS_STATIC_COLUMNS = ["t", "state", "policy", "avg_delay_ms"]
METRICS_TAIL_COLUMNS = ["avg_elf_pct", "fairness", "q_value"]
SUMMARY_COLUMNS = ["policy", "avg_delay_ms", "avg_elf_attack_pct", "mean_fairness"]

GNUPLOT_SCRIPT = """\
# gnuplot recipe for the metrics written next to this file
set datafile separator ','
set key autotitle columnheader
set xlabel 'time unit'
set ylabel 'average delay (ms)'
plot for [p in policies] 'metrics.csv' \\
    using 1:($3 eq p ? $4 : 1/0) with lines title p
"""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def build_requests(cfg: ExperimentConfig) -> RequestStream:
    """Materialize the request stream for the configured dataset, over
    units 0..horizon-1: a trace is cut to the horizon, or padded with
    empty units."""
    if cfg.dataset == "synthetic":
        return generate_synthetic(
            seed=cfg.seed,
            vehicles=cfg.mobility_vehicles,
            grid=cfg.grid(),
            horizon=cfg.horizon,
            model=cfg.mobility_model(),
            num_services=cfg.services_count,
        )
    path = cfg.trace_path()
    if not os.path.exists(path):
        raise ConfigError(f"dataset: trace file not found: {path}")
    result = ingest_trace(
        path,
        bbox=cfg.bbox(),
        grid=cfg.grid(),
        time_unit_s=cfg.trace_time_unit_s,
        num_services=cfg.services_count,
        seed=cfg.seed,
        carry_gap=cfg.trace_carry_gap,
    )
    stream = result.requests_by_unit[: cfg.horizon]
    pad = np.full(cfg.horizon - len(stream), stream.offsets[-1])
    return replace(stream, offsets=np.concatenate([stream.offsets, pad]))


def simulate_policy(
    cfg: ExperimentConfig,
    policy: str,
    requests: RequestStream | None = None,
    inputs: StreamInputs | None = None,
) -> RunTable:
    """Run one policy over derived ``inputs``; without them, derive them
    from ``requests``, or from the configured stream when that is None."""
    if inputs is None:
        inputs = derive_inputs(cfg, build_requests(cfg) if requests is None else requests)
    return Simulation(cfg, policy).run(inputs)


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: str
    metrics_path: str
    summary_path: str
    manifest_path: str
    records: dict  # policy -> RunTable
    summary: dict  # policy -> dict of summary metrics


def summarize(records: RunTable) -> dict[str, float]:
    """Per-run column means: delay over all units, ELF and fairness over
    units with active failover (the attack columns of a comparison table)."""
    if not len(records):
        return {"avg_delay_ms": 0.0, "avg_elf_attack_pct": 0.0, "mean_fairness": 1.0}
    failover = records.column("failover_active")
    elf, fairness = records.column("avg_elf")[failover], records.column("fairness")[failover]
    return {
        "avg_delay_ms": float(np.mean(records.column("avg_delay"))),
        "avg_elf_attack_pct": float(np.mean(elf)) if len(elf) else 0.0,
        "mean_fairness": float(np.mean(fairness)) if len(fairness) else 1.0,
    }


def resolve_out_dir(cfg: ExperimentConfig, out: str | None = None) -> str:
    return out or cfg.out or os.environ.get("EDGEFAIL_OUT_DIR") or "out"


def run(cfg: ExperimentConfig, out: str | None = None) -> RunArtifacts:
    """Execute the configured sweep and write the artifact set.

    Policies run over one request stream, built once; the demand and delay
    matrix of every unit are derived once from it, in chunks of whole
    units, and shared with every policy as read-only (T, S) and (T, E, S)
    arrays, so their rows are directly comparable.  They also share the
    calm-unit serving the inputs store (``StreamInputs.served``): a calm
    unit is served once per set of active instances, and a later policy
    under the same instances reuses what an earlier one computed."""
    cfg.validate()
    policies = cfg.policy_list()
    out_dir = resolve_out_dir(cfg, out)
    os.makedirs(out_dir, exist_ok=True)

    inputs = derive_inputs(cfg, build_requests(cfg))
    records = {p: simulate_policy(cfg, p, inputs=inputs) for p in policies}

    delay_columns = [f"delay_s{s}_ms" for s in range(cfg.services_count)]
    lines = [",".join(METRICS_STATIC_COLUMNS + delay_columns + METRICS_TAIL_COLUMNS)]
    for policy in policies:
        table = records[policy]
        if not len(table):  # perfbench's wrapper returns [] for a policy that raised
            continue
        columns = [table.column(c).tolist() for c in (
            "time", "state", "avg_delay", "per_service_delay", "avg_elf", "fairness", "q_value")]
        for t, state, avg_delay, per_service, *tail in zip(*columns):
            row = [str(t), state.value, policy, _fmt(avg_delay)]
            row += [_fmt(v) for v in per_service] + [_fmt(v) for v in tail]
            lines.append(",".join(row))
    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {p: summarize(records[p]) for p in policies}
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for p in policies:
            row = [p] + [_fmt(summary[p][c]) for c in SUMMARY_COLUMNS[1:]]
            fh.write(",".join(row) + "\n")

    manifest = {
        "config": {k: v for k, v in sorted(cfg.to_dict().items())},
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "dataset": cfg.dataset,
        "policies": policies,
        "version": __version__,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(out_dir, "plots.gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"policies = '{' '.join(policies)}'\n" + GNUPLOT_SCRIPT)

    return RunArtifacts(out_dir, metrics_path, summary_path, manifest_path, records, summary)


# ---- cross-run comparison ----------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """Side-by-side summaries of several runs sharing a config hash."""

    values: dict  # (run_label, policy) -> {metric: value}
    winners: dict  # metric -> (run_label, policy)

    def to_text(self) -> str:
        metrics = SUMMARY_COLUMNS[1:]
        labels = list(self.values)
        width = max(24, *(len(f"{r}:{p}") for r, p in labels)) + 2
        out = ["metric".ljust(22) + "".join(f"{r}:{p}".rjust(width) for r, p in labels)]
        for m in metrics:
            row = m.ljust(22)
            for key in labels:
                mark = " *" if self.winners.get(m) == key else "  "
                row += f"{self.values[key][m]:.4f}{mark}".rjust(width)
            out.append(row)
        out.append("(* = best; delay and ELF lower is better, fairness higher)")
        return "\n".join(out)


def _read_summary(path: str) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows or rows[0] != SUMMARY_COLUMNS:
        raise ConfigError(f"{path}: not a summary file (header mismatch)")
    return {
        r[0]: {c: float(v) for c, v in zip(SUMMARY_COLUMNS[1:], r[1:])} for r in rows[1:]
    }


def compare(summary_paths: list[str]) -> Comparison:
    """Compare two or more run summaries produced with the same config.

    Raises:
        ConfigError: on fewer than two runs or mismatched config hashes
            (the message lists the differing keys).
    """
    if len(summary_paths) < 2:
        raise ConfigError("compare needs at least two summary files")
    manifests = []
    for path in summary_paths:
        mpath = os.path.join(os.path.dirname(path) or ".", "manifest.json")
        if not os.path.exists(mpath):
            raise ConfigError(f"{path}: no manifest.json next to the summary")
        with open(mpath, encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    base = manifests[0]
    for m, path in zip(manifests[1:], summary_paths[1:]):
        if m["config_hash"] != base["config_hash"]:
            diff = [
                f"{k}: {base['config'].get(k)!r} != {m['config'].get(k)!r}"
                for k in sorted(set(base["config"]) | set(m["config"]))
                if k not in ("policies", "out")
                and base["config"].get(k) != m["config"].get(k)
            ]
            raise ConfigError(
                f"{path}: config mismatch with {summary_paths[0]}: " + "; ".join(diff)
            )

    values = {}
    seen_labels = set()
    for path in summary_paths:
        parent = os.path.dirname(path) or "."
        label = os.path.basename(parent) or path
        if label in seen_labels:
            label = parent  # disambiguate same-named run directories
        seen_labels.add(label)
        for policy, metrics in _read_summary(path).items():
            values[(label, policy)] = metrics

    winners = {}
    for m in SUMMARY_COLUMNS[1:]:
        pick = min if m != "mean_fairness" else max
        winners[m] = pick(values, key=lambda k: values[k][m])
    return Comparison(values=values, winners=winners)

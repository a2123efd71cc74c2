"""Command line entry point.

``edgefail run`` sweeps policies over a dataset and writes CSV metrics,
a summary table, and a run manifest; ``edgefail compare`` prints a
side-by-side table of summaries from runs sharing a config.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig
from .errors import ConfigError, EdgefailError
from .experiment import compare, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgefail",
        description="Attack-resilient vehicle-to-edge mapping simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a policy sweep and write artifacts")
    p_run.add_argument("--dataset", help="synthetic or trace:<path>")
    p_run.add_argument("--policies", help="comma list from lb-psvm,psvm,br")
    p_run.add_argument("--horizon", type=int, help="time units to simulate")
    p_run.add_argument("--seed", type=int, help="random seed")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--out", help="output directory (or $EDGEFAIL_OUT_DIR)")
    p_run.add_argument("--attack-every", type=int, dest="attack_every",
                       help="attack cadence in time units (default 100)")

    p_cmp = sub.add_parser("compare", help="compare summaries of matching runs")
    p_cmp.add_argument("summaries", nargs="+", help="summary.csv paths (>= 2)")
    return parser


def _run(args) -> int:
    flags = ("dataset", "policies", "horizon", "seed", "attack_every")
    overrides = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    cfg = ExperimentConfig.from_sources(file=args.config, overrides=overrides)
    artifacts = run(cfg, out=args.out)
    print(f"wrote {artifacts.metrics_path}")
    print(f"wrote {artifacts.summary_path}")
    print(f"wrote {artifacts.manifest_path}")
    for policy in cfg.policy_list():
        s = artifacts.summary[policy]
        print(
            f"{policy:8s} avg_delay={s['avg_delay_ms']:.3f}ms "
            f"avg_elf@attack={s['avg_elf_attack_pct']:.2f}% "
            f"fairness={s['mean_fairness']:.4f}"
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        print(compare(args.summaries).to_text())
        return 0
    except (EdgefailError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())

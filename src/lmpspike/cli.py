"""Batch command-line front end.

Subcommands: regions (decomposition export + summary), rank (decay-rate
table), mc (Monte Carlo validation), ptdf (matrix dump, from the case
alone: no regions are enumerated and no dispatch is solved).  All take a
JSON config; a handful of flags override config keys.  Exit codes: 0 success,
2 config or parse error, 3 infeasible model, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import (CaseError, ConfigError, InfeasibleError, LmpSpikeError,
                     NumericalError)
from .pipeline import (AnalysisConfig, build_study, cmd_mc, cmd_ptdf,
                       cmd_rank, cmd_regions)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

COMMANDS = {"regions": ("enumerate critical regions", cmd_regions),
            "rank": ("rank nodes by spike decay rate", cmd_rank),
            "mc": ("Monte Carlo validation of the ranking", cmd_mc),
            "ptdf": ("dump the PTDF matrix", cmd_ptdf)}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmpspike",
        description="Price-spike likelihood analysis for DC power grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, _) in COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override mc_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--err-rel", default=None,
                       help="override err_rel (comma-separated list)")
        p.add_argument("--n-samples", type=int, default=None,
                       help="override mc_n_samples")
    return parser


def _apply_overrides(config: AnalysisConfig, args) -> AnalysisConfig:
    """The config with the flags' values, validated by `AnalysisConfig`."""
    changes = {}
    if args.seed is not None:
        changes["mc_seed"] = args.seed
    if args.out is not None:
        changes["output_dir"] = args.out
    if args.n_samples is not None:
        changes["mc_n_samples"] = args.n_samples
    if args.err_rel is not None:
        try:
            values = [float(v) for v in args.err_rel.split(",") if v]
        except ValueError:
            raise ConfigError(f"bad --err-rel value: {args.err_rel}") from None
        changes.update(err_rel=values, alpha_minus=None, alpha_plus=None)
    return replace(config, **changes)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = AnalysisConfig.from_json(args.config)
        config = _apply_overrides(config, args)
        if args.command == "ptdf":
            cmd_ptdf(config)
        else:
            COMMANDS[args.command][1](build_study(config))
    except (ConfigError, CaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalError, LmpSpikeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

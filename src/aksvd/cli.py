"""Command-line entry point.

Subcommands: extract | classify | regress | reconstruct | bench |
nystrom-sweep. Options override config-file values which override
built-in defaults; AKSVD_* environment variables sit between the file
and the flags. Exit codes: 0 on success, 2 for user or config errors,
3 for numeric failures.
"""
from __future__ import annotations

import argparse
import sys

from .config import KNOWN, build_config
from .errors import ConfigError, NumericError, UserInputError

COMMANDS = ("extract", "classify", "regress", "reconstruct", "bench",
            "nystrom-sweep")

# convenience flags and the config keys they set
_FLAG_KEYS = {
    "dataset": "dataset.path",
    "format": "dataset.format",
    "kernel": "kernel.family",
    "gamma": "kernel.gamma",
    "compat": "compat.mode",
    "method": "method",
    "rank": "rank",
    "solver": "solver",
    "seed": "seed",
    "out": "out",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="assignments",
                        help="override any config key (repeatable)")
    common.add_argument("--dataset", metavar="PATH", help="dataset file")
    common.add_argument("--format", choices=("edge_list", "csv", "synth"),
                        help="dataset format")
    common.add_argument("--kernel", choices=("rbf", "sne", "linear"),
                        help="kernel family")
    common.add_argument("--gamma", type=float, help="kernel bandwidth")
    common.add_argument("--compat",
                        choices=("auto", "identity", "a0", "a1", "a2"),
                        help="compatibility transform mode")
    common.add_argument("--method", choices=("ksvd", "kpca", "svd", "pca"),
                        help="feature method for downstream tasks")
    common.add_argument("--rank", type=int, help="number of components")
    common.add_argument("--solver",
                        choices=("exact", "truncated", "randomized",
                                 "nystrom"),
                        help="SVD solver for fitting")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--out", metavar="DIR", help="output directory")

    parser = argparse.ArgumentParser(
        prog="aksvd",
        description="Feature learning via SVD of asymmetric kernel matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("extract", parents=[common],
                   help="fit a model and write embeddings")
    sub.add_parser("classify", parents=[common],
                   help="node/sample classification metrics")
    sub.add_parser("regress", parents=[common],
                   help="regression metrics on a csv dataset")
    sub.add_parser("reconstruct", parents=[common],
                   help="graph reconstruction error")
    sub.add_parser("bench", parents=[common],
                   help="solver benchmark at target accuracies")
    sub.add_parser("nystrom-sweep", parents=[common],
                   help="sample-budget sweep over kernel bandwidths")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict[str, str] = {}
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = str(value)
    for assignment in args.assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"--set expects KEY=VALUE, got {assignment!r}")
        key, _, value = assignment.partition("=")
        key = key.strip()
        if key not in KNOWN:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = value.strip()
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        cfg = build_config(config_path=args.config,
                           overrides=_overrides_from_args(args))
        from . import pipeline
        runner = {
            "extract": pipeline.run_extract,
            "classify": pipeline.run_classify,
            "regress": pipeline.run_regress,
            "reconstruct": pipeline.run_reconstruct,
            "bench": pipeline.run_bench,
            "nystrom-sweep": pipeline.run_sweep,
        }[args.command]
        out = runner(cfg)
    except UserInputError as err:
        print(f"aksvd: error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"aksvd: numeric error: {err}", file=sys.stderr)
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: extract | classify | regress | reconstruct | bench |
nystrom-sweep. Options override config-file values which override
built-in defaults; AKSVD_* environment variables sit between the file
and the flags, and any key the command does not read must hold its
default. Exit codes: 0 on success, 2 for user or config errors,
3 for numeric failures.
"""
from __future__ import annotations

import argparse
import sys

from .config import KNOWN, build_config
from .errors import ConfigError, NumericError, UserInputError

# command -> (its function in ``pipeline``, help line)
_COMMANDS = {
    "extract": ("run_extract", "fit a model and write embeddings"),
    "classify": ("run_classify", "node/sample classification metrics"),
    "regress": ("run_regress", "regression metrics on a csv dataset"),
    "reconstruct": ("run_reconstruct", "graph reconstruction error"),
    "bench": ("run_bench", "solver benchmark at target accuracies"),
    "nystrom-sweep": ("run_sweep",
                      "sample-budget sweep over kernel bandwidths"),
}

# convenience flag -> (the config key it sets, help line, metavar); each
# value is parsed and checked against the key's choices by build_config
_FLAG_KEYS = {
    "dataset": ("dataset.path", "dataset file", "PATH"),
    "format": ("dataset.format", "dataset format", None),
    "kernel": ("kernel.family", "kernel family", None),
    "gamma": ("kernel.gamma", "kernel bandwidth", None),
    "compat": ("compat.mode", "compatibility transform mode", None),
    "method": ("method", "feature method for downstream tasks", None),
    "rank": ("rank", "number of components", None),
    "solver": ("solver", "SVD solver for fitting", None),
    "seed": ("seed", "master random seed", None),
    "out": ("out", "output directory", "DIR"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="assignments",
                        help="override any config key (repeatable)")
    for flag, (key, help_line, metavar) in _FLAG_KEYS.items():
        common.add_argument(f"--{flag}", choices=KNOWN[key].choices,
                            metavar=metavar, help=help_line)

    parser = argparse.ArgumentParser(
        prog="aksvd",
        description="Feature learning via SVD of asymmetric kernel matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        sub.add_parser(command, parents=[common], help=help_line)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {key: getattr(args, flag)
                 for flag, (key, _, _) in _FLAG_KEYS.items()
                 if getattr(args, flag) is not None}
    for assignment in args.assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"--set expects KEY=VALUE, got {assignment!r}")
        key, _, value = assignment.partition("=")
        overrides[key.strip()] = value.strip()
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
        pipeline.check_reads(cfg, args.command)
        out = getattr(pipeline, _COMMANDS[args.command][0])(cfg)
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

"""Command-line entry point.

Usage: langscape <mode> --config <path> [--seed N] [--out DIR]

Exit codes: 0 success, 2 invalid configuration or arguments, 3 a
verification check failed, 4 filesystem error, 5 a sampler chain diverged.
"""

from __future__ import annotations

import argparse
import sys

from .config import MODES, ConfigError, load_json, validate_config
from .experiment import run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langscape",
        description="Landscape, concentration, sampling, and inversion "
                    "experiments for expansive ReLU generative priors.")
    sub = parser.add_subparsers(dest="mode", required=True, metavar="mode")
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run the {mode} experiment")
        sp.add_argument("--config", required=True,
                        help="path to a JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")
        sp.add_argument("--out", default=None,
                        help="output directory (default: runs/<mode>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_json(args.config)
        out_dir = args.out if args.out is not None else f"runs/{args.mode}"
        config = validate_config(args.mode, raw, out_dir=out_dir,
                                 seed_override=args.seed)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

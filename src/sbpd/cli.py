"""Command-line front end.

Subcommands:

  sbpd experiment simplex-tv [flags]   canned simplex inverse problem
  sbpd experiment ot-inverse [flags]   canned transport inverse problem
  sbpd solve --config FILE [flags]     any experiment from a JSON config
  sbpd reference --config FILE         only the cached reference phase
  sbpd check [--full]                  numerical self-check battery

Every flag overrides exactly one config key; flags beat the config file and
the SBPD_OUTPUT_DIR environment variable beats both for the output path.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_check_suite
from .experiment import ConfigError, ExperimentConfig, run_experiment
from .oracle import ORACLE_MODES
from .problems import compute_reference

__all__ = ["main", "build_parser"]

# flag destination -> config key
_FLAG_KEYS = {
    "n": "n",
    "m": "m",
    "seed": "seed",
    "iterations": "iterations",
    "batch": "batch_size",
    "oracle": "oracle_mode",
    "gamma": "gamma",
    "beta": "beta",
    "noise_level": "noise_level",
    "repeats": "repeats",
    "cert_every": "cert_every",
    "output_dir": "output_dir",
    "reference_iterations": "reference_iterations",
    "timing": "record_timing",
    "stop_gap": "stop_gap",
}


def _batch(text):
    if text == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("batch must be 'full' or an integer")


def _add_run_flags(parser, with_config=True):
    if with_config:
        parser.add_argument("--config", help="JSON config file to start from")
    parser.add_argument("--n", type=int, help="primal dimension")
    parser.add_argument("--m", type=int, help="number of observations / summands")
    parser.add_argument("--seed", type=int, help="instance and oracle base seed")
    parser.add_argument("--iterations", type=int, help="measured iteration budget")
    parser.add_argument("--batch", type=_batch, help="oracle batch size or 'full'")
    parser.add_argument("--oracle", dest="oracle", choices=ORACLE_MODES,
                        help="gradient oracle mode")
    parser.add_argument("--gamma", type=float, help="entropic regularization weight")
    parser.add_argument("--beta", type=float, help="total-variation weight")
    parser.add_argument("--noise-level", type=float, dest="noise_level",
                        help="observation noise mixing weight in [0, 1]")
    parser.add_argument("--repeats", type=int, help="stochastic repetitions")
    parser.add_argument("--cert-every", type=int, dest="cert_every",
                        help="certificate cadence (0 disables)")
    parser.add_argument("--output-dir", dest="output_dir", help="artifact directory")
    parser.add_argument("--reference-iterations", type=int,
                        dest="reference_iterations",
                        help="reference budget (default: iterations / 0.8)")
    parser.add_argument("--stop-gap", type=float, dest="stop_gap",
                        help="early-stop tolerance on the pointwise gap")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record wall-clock nanoseconds per logged row")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbpd",
        description="Stochastic Bregman primal-dual solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a canned experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    for name in ("simplex-tv", "ot-inverse"):
        _add_run_flags(exp_sub.add_parser(name, help=f"{name} instance"))

    solve = sub.add_parser("solve", help="run any experiment from a config file")
    _add_run_flags(solve, with_config=False)
    solve.add_argument("--config", required=True, help="JSON config file")

    ref = sub.add_parser("reference", help="compute and cache only the reference")
    ref.add_argument("--config", required=True, help="JSON config file")
    ref.add_argument("--output-dir", dest="output_dir", help="cache directory")
    ref.add_argument("--reference-iterations", type=int,
                     dest="reference_iterations", help="reference budget")

    check = sub.add_parser("check", help="run the numerical self-checks")
    check.add_argument("--full", action="store_true",
                       help="full sample volumes instead of the fast battery")
    return parser


def _resolve_config(args, experiment=None):
    if getattr(args, "config", None):
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    for flag, key in _FLAG_KEYS.items():
        if hasattr(args, flag) and getattr(args, flag) is not None:
            overrides[key] = getattr(args, flag)
    if experiment is not None:
        overrides["experiment"] = experiment
    return config.with_overrides(**overrides)


def _cmd_reference(args):
    config = _resolve_config(args)
    config.validate()
    problem = config.build_problem()
    reference = compute_reference(
        problem, config.resolved_reference_budget(), config.seed,
        cache_dir=config.resolved_output_dir())
    print(json.dumps({
        "config_hash": reference.config_hash,
        "iterations": reference.iterations,
        "ref_tol": reference.ref_tol,
    }))
    return 0


def _report_error(exc):
    kind = "invalid-config" if isinstance(exc, ConfigError) else type(exc).__name__
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "check":
        report = run_check_suite("full" if args.full else "fast")
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1
    if args.command == "reference":
        try:
            return _cmd_reference(args)
        except (ValueError, OSError) as exc:
            return _report_error(exc)
    try:
        if args.command == "solve":
            config = _resolve_config(args)
        else:
            config = _resolve_config(args, experiment=args.experiment)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        return _report_error(exc)
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())

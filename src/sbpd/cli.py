"""Command-line front end.

Subcommands:

  sbpd experiment simplex-tv [flags]   canned simplex inverse problem
  sbpd experiment ot-inverse [flags]   canned transport inverse problem
  sbpd solve --config FILE [flags]     any experiment from a JSON config
  sbpd reference --config FILE         only the cached reference phase
  sbpd check [--full]                  numerical self-check battery

Each flag's destination is the config key it overrides; flags beat the
config file and the SBPD_OUTPUT_DIR environment variable beats both for the
output path. ``experiment``, ``solve`` and ``reference`` run behind
``experiment.run_guarded``: every failure is one JSON line on stderr, exit 2
with ``error.json`` for a config that cannot be loaded or checked, exit 1
with ``error.json`` for a failure while running.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .checks import run_check_suite
from .experiment import ExperimentConfig, run_guarded, run_phases
from .oracle import ORACLE_MODES
from .problems import compute_reference

__all__ = ["main", "build_parser"]


def batch(text):
    # named for argparse's "invalid batch value" on anything else
    return text if text == "full" else int(text)


def _add_run_flags(parser):
    parser.add_argument("--n", type=int, help="primal dimension")
    parser.add_argument("--m", type=int, help="number of observations / summands")
    parser.add_argument("--seed", type=int, help="instance and oracle base seed")
    parser.add_argument("--iterations", type=int, help="measured iteration budget")
    parser.add_argument("--batch", type=batch, dest="batch_size",
                        metavar="BATCH", help="oracle batch size or 'full'")
    parser.add_argument("--oracle", dest="oracle_mode", choices=ORACLE_MODES,
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
                        dest="record_timing",
                        help="record wall-clock nanoseconds per logged row")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbpd",
        description="Stochastic Bregman primal-dual solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a canned experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    for name in ("simplex-tv", "ot-inverse"):
        canned = exp_sub.add_parser(name, help=f"{name} instance")
        canned.add_argument("--config", help="JSON config file to start from")
        _add_run_flags(canned)

    solve = sub.add_parser("solve", help="run any experiment from a config file")
    _add_run_flags(solve)
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


def _reference(config, problem, output_dir):
    reference = compute_reference(
        problem, config.resolved_reference_budget(), config.seed,
        cache_dir=output_dir)
    print(json.dumps({
        "config_hash": reference.config_hash,
        "iterations": reference.iterations,
        "ref_tol": reference.ref_tol,
    }))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "check":
        report = run_check_suite("full" if args.full else "fast")
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1
    keys = {f.name for f in fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    # also where error.json goes when the config file cannot be loaded
    flags_only = ExperimentConfig().with_overrides(**overrides)

    def load():
        if args.config is None:
            return flags_only
        return ExperimentConfig.from_json(args.config).with_overrides(**overrides)

    body = _reference if args.command == "reference" else run_phases
    return run_guarded(load, body, lambda line: print(line, file=sys.stderr),
                       flags_only.resolved_output_dir())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands mirror the experiment pipeline: ``design`` optimizes a pilot
design, ``baseline`` draws the Gaussian+random reference at a matched
allocation size, ``estimate`` runs the Monte-Carlo NMSE evaluation,
``report`` emits coherence CDFs, ``gradcheck`` verifies the closed-form
gradient against finite differences, and ``sweep-lambda`` scans the
sparsity weight.

Exit codes: 0 success, 2 configuration or file error (``ConfigError``,
``OSError``, or a ``MemoryError`` from a config too large to hold), 3
numerical failure (any other package error).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, PilotOptError
from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _weights(raw: str) -> list[float]:
    values = [float(v) for v in raw.split(",") if v.strip()]
    if not values or not all(math.isfinite(v) and v >= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"need one or more finite non-negative weights, got {raw!r}"
        )
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(harness.PROFILES), default="desk",
                        help="built-in parameter profile")
    parser.add_argument("--config", default=None, help="flat key = value override file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override base_seed and opt_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotopt",
        description="Joint pilot allocation and sequence design for sparse "
        "MIMO-OFDM channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize a pilot design")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trace-every", type=_positive_int, default=1,
                   help="record the trace every N iterations")

    p = sub.add_parser("baseline", help="generate the Gaussian+random baseline design")
    _add_common(p)
    p.add_argument("--out", required=True, help="output design JSON path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-q", type=int, help="number of pilot subcarriers")
    group.add_argument("--match-design", help="copy the allocation size of this design")

    p = sub.add_parser("estimate", help="Monte-Carlo NMSE evaluation of designs")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--designs", nargs="+", required=True, help="design JSON files")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads for trials")
    p.add_argument("--allow-mixed", action="store_true",
                   help="permit designs with different allocation sizes")
    p.add_argument("--timing", action="store_true",
                   help="include the volatile elapsed_ms column in trials.csv")

    p = sub.add_parser("report", help="coherence CDF report for a design")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--design", required=True, help="design JSON file")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)

    p = sub.add_parser("sweep-lambda", help="scan the block-sparsity weight")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambdas", type=_weights, required=True,
                   help="comma-separated penalty weights, e.g. 0.7,1.5,7")
    p.add_argument("--target-q", type=int, default=None,
                   help="select the run whose allocation size is closest")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = harness.load_experiment_config(args.profile, args.config, args.seed)
    if args.command == "design":
        paths = harness.run_design(cfg, args.out, trace_every=args.trace_every)
        print(f"design written to {paths['design']}")
        return EXIT_OK
    if args.command == "baseline":
        if args.match_design is not None:
            target = len(harness.load_design(args.match_design).allocation)
        else:
            target = args.target_q
        path = harness.run_baseline(cfg, target, args.out)
        print(f"baseline design written to {path}")
        return EXIT_OK
    if args.command == "estimate":
        paths = harness.run_estimate(
            cfg,
            args.designs,
            args.out,
            threads=args.threads,
            allow_mixed=args.allow_mixed,
            timing=args.timing,
        )
        print(f"trial records written to {paths['trials']}")
        print(f"summary written to {paths['summary']}")
        return EXIT_OK
    if args.command == "report":
        paths = harness.run_report(cfg, args.design, args.out)
        print(f"report written to {paths['summary'].parent}")
        return EXIT_OK
    if args.command == "gradcheck":
        results = harness.run_gradcheck(cfg)
        failures = 0
        for row in results:
            status = "PASS" if row["ok"] else "FAIL"
            print(f"pair {row['pair']}: rel_err={row['rel_err']:.3e} [{status}]")
            failures += 0 if row["ok"] else 1
        if failures:
            print(f"{failures}/{len(results)} gradient checks failed")
            return EXIT_NUMERIC
        print(f"all {len(results)} gradient checks passed")
        return EXIT_OK
    if args.command == "sweep-lambda":
        paths = harness.run_sweep(cfg, args.lambdas, args.out, target_q=args.target_q)
        print(f"sweep table written to {paths['table']}")
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PilotOptError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

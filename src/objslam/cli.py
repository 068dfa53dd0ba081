"""Command-line entry points: simulate, gen-priors, run, evaluate, bench.

Exit codes: 0 success, 1 validation error (bad arguments, config, or input
files), 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigError, load_run_config
from .dataset import ParseError, SchemaError
from .pipeline import (
    evaluate_files,
    run_gen_priors,
    run_simulate,
    run_slam,
    run_to_files,
)
from .priors import (
    CachedLLMClient,
    FixtureLLMClient,
    HTTPLLMClient,
    MalformedResponse,
    MissingCredentials,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--config", help="YAML config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry, e.g. solver.max_iterations=50",
    )


# Path flags of simulate and run, by the Paths field each one sets.
_PATH_FLAGS = {"dataset": "dataset", "priors_csv": "priors", "output_dir": "output"}


def _load_config(args: argparse.Namespace):
    """The run config of ``--config`` and ``--set``, then the command's path
    flags set on ``cfg.paths`` as literal strings, not parsed as YAML."""
    cfg = load_run_config(args.config, args.set)
    flags = {key: getattr(args, name, None) for key, name in _PATH_FLAGS.items()}
    given = {key: value for key, value in flags.items() if value}
    return dataclasses.replace(cfg, paths=dataclasses.replace(cfg.paths, **given))


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = run_simulate(cfg)
    print(f"wrote dataset to {out}")
    return 0


def _cmd_gen_priors(args: argparse.Namespace) -> int:
    if args.fixture:
        client = FixtureLLMClient(path=args.fixture)
    else:
        client = HTTPLLMClient()
    if args.cache:
        client = CachedLLMClient(client, args.cache)
    table = run_gen_priors(args.vocab, args.output, client)
    flagged = sorted(table.flagged)
    print(f"wrote {len(table)} prior rows to {args.output}")
    if flagged:
        print(f"fallback rows for {len(flagged)} label(s): {', '.join(flagged)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = run_to_files(cfg)
    print(f"wrote map and reports to {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate_files(args.map, args.dataset, args.threshold)
    print(f"tp={report.tp} fp={report.fp} fn={report.fn}")
    if report.mean_iou is not None:
        print(f"mean_iou={report.mean_iou:.4f}")
        print(f"mean_centroid_error={report.mean_centroid_error:.4f}")
        print(f"mean_size_error={report.mean_size_error:.4f}")
    if report.ate is not None:
        print(f"ate_rmse={report.ate:.4f}")
    if args.output:
        from .pipeline import write_report_json

        write_report_json(report, args.output)
    if args.iou_csv:
        from .evaluation import write_iou_series_csv

        write_iou_series_csv(report.iou_series, args.iou_csv)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    timings: dict[str, float] = {}
    estimate, _, solve_report = run_slam(cfg, timings=timings)
    total = sum(timings.values())
    print("stage          seconds")
    for stage in ("load", "associate", "add_keyframe", "solve", "evaluate"):
        if stage in timings:
            print(f"{stage:<14} {timings[stage]:.4f}")
    print(f"{'total':<14} {total:.4f}")
    print(
        f"landmarks={len(estimate.landmarks)} keyframes={len(estimate.trajectory)} "
        f"final_cost={solve_report.final_cost:.6g} converged={solve_report.converged}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="objslam", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", parents=[], help="generate a synthetic dataset")
    _add_config_args(p)
    p.add_argument("-o", "--output", help="dataset output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen-priors", help="query the LLM for size/orientation priors")
    p.add_argument("--vocab", required=True, help="text file, one label per line")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--fixture", help="canned response file instead of a live endpoint")
    p.add_argument("--cache", help="response cache directory")
    p.set_defaults(func=_cmd_gen_priors)

    p = sub.add_parser("run", help="run the SLAM pipeline on a dataset")
    _add_config_args(p)
    p.add_argument("--dataset", help="dataset directory (overrides config)")
    p.add_argument("--priors", help="prior CSV path (overrides config)")
    p.add_argument("-o", "--output", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("evaluate", help="score a saved map against ground truth")
    p.add_argument("--map", required=True, help="map.json produced by run")
    p.add_argument("--dataset", required=True, help="dataset directory with GT files")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="centroid matching gate in meters")
    p.add_argument("-o", "--output", help="write the report JSON here")
    p.add_argument("--iou-csv", help="write the IoU-error series CSV here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="run with a per-stage timing breakdown")
    _add_config_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except MalformedResponse as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ParseError, SchemaError, MissingCredentials,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

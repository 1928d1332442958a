"""Command-line interface.

Verbs:
  run    execute problems over seeds, write the score table and records
  dump   write golden parameter dumps of the problem dynamics
  grid   write 2-D fitness sample grids for plotting elsewhere
  score  re-score previously saved population snapshots

Problems are named P1..P24; lists accept commas and ranges (P1-P8) or
the word `all`.  Seeds accept the same list syntax (e.g. 1-30).
"""

import argparse
import os
import sys
from dataclasses import replace

from . import reporting
from .config import load_config, parse_value
from .core import PROBLEM_INDICES, PlacementError, problem_spec
from .reporting import (check_grid, export_landscape_grid,
                        rescore_snapshots, run_benchmark, write_artifact)


def _expand(text, what, number):
    """The items of a comma-separated list of single items and `lo-hi`
    ranges, each end read by `number`, in order and without duplicates."""
    out = {}
    for part in filter(str.strip, text.split(",")):
        lo, dash, hi = part.partition("-")
        try:
            items = range(number(lo), number(hi if dash else lo) + 1)
        except ValueError as exc:
            raise ValueError(f"bad {what} {part.strip()!r}: {exc}") from None
        out.update(dict.fromkeys(items))
    if not out:
        raise ValueError(f"no {what}s in {text!r}")
    return list(out)


def _problem_number(end):
    """The number of an existing problem named like `P3`, `p3` or `3`."""
    number = int(end.strip().upper().lstrip("P"))
    problem_spec(f"P{number}")
    return number


def parse_problems(text):
    """Expand a problem list like `all`, `P3`, `P1-P8,P17`."""
    if text.strip().lower() == "all":
        return list(PROBLEM_INDICES)
    # both ends of a range exist, so every problem between them does
    return [f"P{n}" for n in _expand(text, "problem", _problem_number)]


def parse_seeds(text):
    """Expand a seed list like `1`, `1-30`, `1,2,7`.

    A minus sign always reads as a range, so no seed is negative.
    """
    return _expand(text, "seed", int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmmobench",
        description="Dynamic multimodal optimization benchmark harness.")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, problems_default=None, seeds_default=None):
        if problems_default is not None:
            sub.add_argument("--problems", default=problems_default,
                             help="problem list, e.g. all or P1-P8,P17")
        if seeds_default is not None:
            sub.add_argument("--seeds", default=seeds_default,
                             help="seed list, e.g. 1-30")
        sub.add_argument("--config", default=None,
                         help="key=value configuration file")
        sub.add_argument("--out-dir", default="results",
                         help="directory for output files")

    run = commands.add_parser("run", help="run the benchmark")
    common(run, "all", "1-30")
    run.add_argument("--optimizer", default="baseline",
                     help="registered optimizer name (baseline, random)")
    run.add_argument("--accuracy", default=None,
                     help="override the scored fitness accuracies, "
                          "e.g. 1e-3,1e-4")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel worker processes across runs (>= 1)")
    run.add_argument("--save-snapshots", action="store_true",
                     help="also write re-scorable population snapshots")

    dump = commands.add_parser("dump", help="write parameter dumps")
    common(dump, "all", "1")

    grid = commands.add_parser("grid", help="write fitness sample grids")
    common(grid, "P1", "1")
    grid.add_argument("--env", type=int, default=1,
                      help="environment index to sample")
    grid.add_argument("--resolution", type=int, default=101,
                      help="samples per axis")
    grid.add_argument("--dim", type=int, default=None,
                      help="rebuild the problem at this dimension "
                           "(2 gives a directly plottable landscape)")

    score = commands.add_parser("score", help="re-score saved snapshots")
    common(score)
    score.add_argument("--accuracy", default=None,
                       help="override the scored fitness accuracies")
    return parser


def _load(args):
    settings, optimizer_config = load_config(args.config)
    if getattr(args, "accuracy", None) is not None:
        settings = replace(settings, fitness_accuracy_levels=parse_value(
            "fitness_accuracy_levels", args.accuracy,
            settings.fitness_accuracy_levels))
    return settings, optimizer_config


def _cmd_run(args):
    settings, optimizer_config = _load(args)
    report = run_benchmark(
        parse_problems(args.problems), parse_seeds(args.seeds),
        optimizer=args.optimizer, settings=settings,
        optimizer_config=optimizer_config, out_dir=args.out_dir,
        jobs=args.jobs, save_snapshots=args.save_snapshots)
    sys.stdout.write(report.table.render())
    for problem, seed, message in report.failures:
        print(f"run failed: {problem} seed {seed}: {message}",
              file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_dump(args):
    settings, _ = _load(args)
    problems, seeds = parse_problems(args.problems), parse_seeds(args.seeds)
    os.makedirs(args.out_dir, exist_ok=True)
    for problem in problems:
        for seed in seeds:
            # looked up on `reporting` at each call (see its import there)
            text = reporting.dump_environments_text(problem, seed, settings)
            print(write_artifact(
                args.out_dir, f"dump_{problem}_seed{seed}.txt", text))
    return 0


def _cmd_grid(args):
    settings, _ = _load(args)
    problems, seeds = parse_problems(args.problems), parse_seeds(args.seeds)
    check_grid(args.env, args.resolution, settings, args.dim)
    os.makedirs(args.out_dir, exist_ok=True)
    for problem in problems:
        for seed in seeds:
            text = export_landscape_grid(
                problem, seed, env=args.env, resolution=args.resolution,
                settings=settings, dim_override=args.dim)
            print(write_artifact(
                args.out_dir, f"grid_{problem}_seed{seed}_env{args.env}.txt",
                text))
    return 0


def _cmd_score(args):
    settings, _ = _load(args)
    report = rescore_snapshots(args.out_dir, settings)
    sys.stdout.write(report.table.render())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "dump": _cmd_dump,
    "grid": _cmd_grid,
    "score": _cmd_score,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # ConfigError included; OSError for an --out-dir that cannot be used
    except (ValueError, PlacementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

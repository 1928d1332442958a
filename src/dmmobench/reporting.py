"""Benchmark execution and reporting: runs problems over seeds, scores
every accuracy level in one pass, and writes the delimited artifacts.

Artifacts per output directory:
  results.txt / results.csv   the 24-row score table (6 decimal places)
  records_P<n>.csv            per-run, per-environment raw counts
  snapshots_P<n>_seed<m>.txt  populations, as each run ends (--save-snapshots)
  dump_P<n>_seed<m>.txt       golden parameter dumps (dump command)
  grid_P<n>_seed<m>_env<e>.txt   fitness sample grids (grid command)
"""

import os
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import BenchmarkSettings, OptimizerConfig
# the CLI calls dump_environments_text through this module, where the
# benchmark's tracer wraps it
from .controller import (PopulationSnapshot, check_dim_override,
                         create_problem, dump_environments_text,
                         iterate_environments)
from .core import (CONE_FAMILIES, DOMAIN_HIGH, DOMAIN_LOW, RngStream,
                   check_integer, format_rows, problem_spec)
# count_npf is unused here, but the benchmark's tracer patches it by name.
from .metrics import (RunRecord, best_worst, count_npf,  # noqa: F401
                      peak_ratio, score_run)
from .optimizers import make_optimizer

#: Stream number of the optimizer's random draws; the problem side owns
#: stream 0 of the same seed.
OPTIMIZER_STREAM = 1


class ResultsTable:
    """The per-problem score table: PR, Best, Worst at each level,
    under the levels' column keys."""

    def __init__(self, keys):
        self.keys = keys
        self.rows = []

    def add_row(self, index, group, cells):
        """Add a row; `cells` lists (pr, best, worst) per level, in the
        order of the keys."""
        for pr, best, worst in cells:
            if not worst <= pr <= best:
                raise ValueError(
                    f"{index}: scores must satisfy worst <= PR <= best")
        self.rows.append((index, group, cells))

    def _lines(self):
        """The header line and one line per row, as lists of fields."""
        headers = ["problem", "group"] + [
            f"{name}_{key}" for key in self.keys
            for name in ("pr", "best", "worst")]
        return [headers] + [
            [index, group] + [format(value, ".6f") for cell in cells
                              for value in cell]
            for index, group, cells in self.rows]

    def render(self):
        lines = self._lines()
        widths = [7, 5] + [max(len(h), 12) for h in lines[0][2:]]
        return "".join("  ".join(f.ljust(w) for f, w in zip(fields, widths))
                       + "\n" for fields in lines)

    def to_csv(self):
        return "".join(",".join(fields) + "\n" for fields in self._lines())


@dataclass
class BenchmarkReport:
    """Everything a benchmark invocation produced."""

    table: ResultsTable
    records: dict
    failures: list


def execute_run(problem, seed, optimizer="baseline",
                settings=BenchmarkSettings(),
                optimizer_config=OptimizerConfig(), snapshot_dir=None):
    """One full run: build the instance, optimize until frozen, score,
    then write the snapshot file into `snapshot_dir`, if one is given;
    return `score_run`'s (peaks, npf) pair.

    Raises RuntimeError if the optimizer returns before the run froze:
    a run scored on only the environments it sealed would read as
    complete in the table.  A run that fails before then writes no file.
    """
    instance = create_problem(problem, seed, settings)
    engine = make_optimizer(optimizer, optimizer_config)
    engine.optimize(instance, RngStream(seed, OPTIMIZER_STREAM))
    if not instance.frozen:
        raise RuntimeError(
            f"optimizer {optimizer!r} returned with {len(instance.snapshots)}"
            f" of {settings.environments} environments sealed")
    outcome = score_run(instance.snapshots, instance.ground_truth, settings)
    if snapshot_dir is not None:
        write_artifact(snapshot_dir, f"snapshots_{problem}_seed{seed}.txt",
                       render_snapshots(problem, seed, instance.snapshots))
    return outcome


def run_benchmark(problems, seeds, optimizer="baseline",
                  settings=BenchmarkSettings(),
                  optimizer_config=OptimizerConfig(), out_dir=None, jobs=1,
                  save_snapshots=False):
    """Run every (problem, seed) pair, aggregate, and write artifacts.

    A failing run aborts only itself; it is reported in the returned
    failures list as (problem, seed, "<exception type>: <message>") and
    contributes nothing to the table.
    Runs are independent, so `jobs` > 1 parallelizes across pairs
    without changing any result; the pool, of at most one worker per
    run, starts the costliest runs first, and results are still
    collected in task order.  A request that cannot run as asked raises
    ValueError, naming the bad value, before any run starts: a repeated
    problem or seed (it would be run and weighted twice), an unknown
    problem or optimizer, a seed that is not an integer >= 0, `jobs`
    that is not an integer >= 1 (a bool is not an integer), or
    `save_snapshots` without an `out_dir`.  An `out_dir` that cannot be
    created raises OSError, also before any run.  With `save_snapshots`
    each run writes its snapshot file as it ends, and fails if it
    cannot; the table and records are written after the last run.
    """
    check_integer("jobs", jobs, 1)
    problems = list(problems)
    seeds = list(seeds)
    for kind, values in (("problem", problems), ("seed", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{kind} {value!r} is given twice")
    for problem in problems:
        problem_spec(problem)
    for seed in seeds:
        check_integer("seed", seed, 0)
    make_optimizer(optimizer, optimizer_config)
    if save_snapshots and out_dir is None:
        raise ValueError("save_snapshots needs an out_dir")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    snapshot_dir = out_dir if save_snapshots else None
    tasks = [(p, s, optimizer, settings, optimizer_config, snapshot_dir)
             for p in problems for s in seeds]

    outcomes = {}
    failures = []
    # a fork pool starts every worker at its first submit
    workers = min(jobs, len(tasks))
    with ExitStack() as stack:
        if workers > 1:
            # imported here, so a serial process never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(workers))
            futures = {i: pool.submit(execute_run, *tasks[i])
                       for i in sorted(range(len(tasks)),
                                       key=lambda i: _cost_rank(tasks[i][0]))}
            results = [futures[i].result for i in range(len(tasks))]
        else:
            results = [partial(execute_run, *task) for task in tasks]
        for (problem, seed, *_), result in zip(tasks, results):
            try:
                outcomes[(problem, seed)] = result()
            except Exception as exc:
                failures.append((problem, seed,
                                 f"{type(exc).__name__}: {exc}"))

    table, records = _tabulate(problems, seeds, outcomes, settings)
    if out_dir is not None:
        write_artifact(out_dir, "results.txt", table.render())
        write_artifact(out_dir, "results.csv", table.to_csv())
        for problem in records:
            write_artifact(out_dir, f"records_{problem}.csv",
                           render_records_csv(problem, seeds, outcomes,
                                              table.keys))
    return BenchmarkReport(table, records, failures)


def _cost_rank(problem):
    """Sort key putting the costliest runs first: composition
    landscapes before cone landscapes, then higher dimensions."""
    spec = problem_spec(problem)
    return spec.family in CONE_FAMILIES, -spec.dimension


def _tabulate(problems, seeds, outcomes, settings):
    """The score table and the run record of each problem's scored runs,
    found counts shaped (level, run, environment).

    A column is keyed by its fitness accuracy in the fewest digits that
    name it exactly (1e-03, 1.2e-03).  A problem with no scored run gets
    neither a row nor a record.
    """
    table = ResultsTable([
        np.format_float_scientific(value, trim="-", exp_digits=2)
        for value in settings.fitness_accuracy_levels])
    records = {}
    for problem in problems:
        rows = [outcomes[(problem, seed)] for seed in seeds
                if (problem, seed) in outcomes]
        if not rows:
            continue
        peaks, npf = zip(*rows)
        record = records[problem] = RunRecord(np.moveaxis(npf, -1, 0), peaks)
        table.add_row(problem, problem_spec(problem).group,
                      list(zip(peak_ratio(record), *best_worst(record))))
    return table, records


def render_records_csv(problem, seeds, outcomes, keys):
    """Raw counts for one problem: a row per (seed, environment)."""
    lines = [",".join(["seed", "env", "peaks"] + [f"npf_{k}" for k in keys])]
    for seed in seeds:
        result = outcomes.get((problem, seed))
        if result is None:
            continue
        for env, (peaks, npf) in enumerate(zip(*result), start=1):
            lines.append(",".join(map(str, [seed, env, peaks, *npf])))
    return "\n".join(lines) + "\n"


def render_snapshots(problem, seed, snapshots):
    """Reported populations of a frozen run, full precision, re-scorable."""
    blocks = [f"problem {problem}\nseed {seed}\n"
              f"environments {len(snapshots)}\n"]
    for snapshot in snapshots:
        count, dim = snapshot.individuals.shape
        # one block per environment bounds the formatter's temporaries
        rows = iter(format_rows(
            np.column_stack((snapshot.individuals, snapshot.fitness)),
            [dim, 1] * count))
        blocks.append(f"env {snapshot.environment}\n" + "".join(
            f"individual {point} fitness {value}\n"
            for point, value in zip(rows, rows)))
    return "".join(blocks)


#: The header lines of a snapshot file, each once before the first `env`.
_SNAPSHOT_HEADER = ("problem", "seed", "environments")


def parse_snapshots(text, environments):
    """Inverse of render_snapshots, checked against the run length.

    Returns (problem, seed, snapshots), the snapshots in environment
    order whatever the order of the blocks.  The header lines `problem`,
    `seed` and `environments` each come once before the first `env`
    line, and `problem` gives the dimension D.  Raises ValueError naming
    the line for a line that is neither blank nor starts with a header
    word, `env` or `individual`; a header line missing, repeated or
    late; an unknown problem; a negative seed; a declared run length
    other than `environments`; an `env` line outside 1..environments or
    seen before; an `individual` line before any `env` or not D
    coordinates, `fitness` and one value; a line with a wrong value
    count or a value that does not parse; an individual that
    `report_population` would refuse (a coordinate that is not a finite
    number in the domain) or whose fitness is not finite.  Raises
    ValueError too for a file without any `env` line, and for one that
    does not record every environment of the run.
    """
    header, firsts, dim = {}, {}, None
    # packed doubles: a quarter of the memory of a list of floats; and
    # each individual's line number, to name a bad one after the loop
    coords, values, line_numbers = array("d"), array("d"), array("l")
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        key, *fields = line.split() or [None]
        if key == "individual":
            if (dim is None or len(fields) != dim + 2
                    or fields[dim] != "fitness"):
                raise _malformed(number, line)
            point = _numbers(float, fields[:dim] + fields[-1:], number, line)
            values.append(point.pop())
            coords.fromlist(point)
            line_numbers.append(number)
        elif key in _SNAPSHOT_HEADER:
            if len(fields) != 1 or dim is not None or key in header:
                raise _malformed(number, line)
            if key == "problem":
                try:
                    header[key] = problem_spec(fields[0])
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
            else:
                header[key] = _numbers(int, fields, number, line)[0]
            if key == "seed" and header[key] < 0:
                raise ValueError(
                    f"line {number}: seed must be >= 0, got {header[key]}")
        elif key == "env":
            if len(fields) != 1:
                raise _malformed(number, line)
            env, = _numbers(int, fields, number, line)
            if dim is None:
                missing = [k for k in _SNAPSHOT_HEADER if k not in header]
                if missing:
                    raise ValueError(
                        f"line {number}: env before the {missing[0]} line")
                if header["environments"] != environments:
                    raise ValueError(
                        f"line {number}: recorded under environments "
                        f"{header['environments']}, not {environments}")
                dim = header["problem"].dimension
            if not 1 <= env <= environments:
                raise ValueError(
                    f"line {number}: env {env} outside 1..{environments}")
            if env in firsts:
                raise ValueError(f"line {number}: env {env} recorded twice")
            firsts[env] = len(values)
        elif key is not None:
            raise _malformed(number, line)
    if not firsts:
        raise ValueError("no environments recorded")
    # every individual of the file in file order, checked in one pass;
    # NaN passes through abs and max and fails the comparison
    individuals = np.frombuffer(coords).reshape(-1, dim)
    fitness = np.frombuffer(values)
    bad = np.flatnonzero(~(
        (np.abs(individuals).max(1, initial=0.0) <= DOMAIN_HIGH)
        & np.isfinite(fitness)))
    if len(bad):
        number = line_numbers[bad[0]]
        raise _malformed(number, lines[number - 1])
    if len(firsts) != environments:
        raise ValueError(
            f"{len(firsts)} of {environments} environments recorded")
    bounds = [*firsts.values(), len(fitness)]
    snapshots = [
        PopulationSnapshot(env, individuals[first:end], fitness[first:end])
        for env, first, end in sorted(zip(firsts, bounds, bounds[1:]))]
    return header["problem"].index, header["seed"], snapshots


def _numbers(kind, fields, number, line):
    """`fields` converted by `kind`; a field that does not convert makes
    the line malformed."""
    try:
        return [kind(field) for field in fields]
    except ValueError:
        raise _malformed(number, line) from None


def _malformed(number, line):
    return ValueError(f"line {number}: malformed line {line.strip()!r}")


def rescore_snapshots(out_dir, settings=BenchmarkSettings()):
    """Re-score stored snapshot files against replayed ground truth.

    The configuration must match the one the snapshots were produced
    under, otherwise the replayed optima describe a different problem.
    Raises ValueError for two files that record the same run.
    """
    names = sorted(name for name in os.listdir(out_dir)
                   if name.startswith("snapshots_") and name.endswith(".txt"))
    if not names:
        raise ValueError(f"no snapshot files in {out_dir}")

    outcomes, paths = {}, {}
    for name in names:
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        try:
            problem, seed, snapshots = parse_snapshots(
                text, settings.environments)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        first = paths.setdefault((problem, seed), path)
        if first != path:
            raise ValueError(
                f"{path}: {problem} seed {seed} is also recorded in {first}")
        truths = {env: landscape.global_optima()
                  for env, landscape, _ in iterate_environments(
                      problem, seed, settings)}
        outcomes[(problem, seed)] = score_run(
            snapshots, truths.__getitem__, settings)

    problems = sorted({p for p, _ in outcomes}, key=lambda p: int(p[1:]))
    seeds = sorted({s for _, s in outcomes})
    table, records = _tabulate(problems, seeds, outcomes, settings)
    return BenchmarkReport(table, records, [])


def check_grid(env, resolution, settings, dim_override=None):
    """Raise ValueError for the arguments `export_landscape_grid`
    refuses, whatever the problem and seed."""
    check_integer("env", env)
    if not 1 <= env <= settings.environments:
        raise ValueError(
            f"environment {env} outside 1..{settings.environments}")
    check_integer("resolution", resolution, 2)
    if dim_override is not None:
        check_dim_override(dim_override)


def export_landscape_grid(problem, seed, env=1, resolution=101,
                          settings=BenchmarkSettings(), dim_override=None):
    """Fitness samples over a 2-D slice of one environment, as text.

    Row i, column j sample the point (axis[i], axis[j], 0, ..., 0);
    beyond two dimensions the slice fixes every other coordinate at
    zero.  `dim_override` rebuilds the problem at another dimension
    (2 is the useful one, for direct visualisation), at least 2.
    `env`, `resolution` and `dim_override` must be integers.
    """
    check_grid(env, resolution, settings, dim_override)
    for t, landscape, _ in iterate_environments(
            problem, seed, settings, dim_override=dim_override):
        if t == env:
            break

    axis = np.linspace(DOMAIN_LOW, DOMAIN_HIGH, resolution)
    samples = np.empty((resolution, resolution))
    points = np.zeros((resolution, landscape.dim))
    for i in range(resolution):
        points[:, 0] = axis[i]
        points[:, 1] = axis
        samples[i] = landscape.evaluate_many(points)
    positions, values = landscape.global_optima()
    rows = format_rows(
        np.concatenate((axis, samples.ravel(),
                        np.column_stack((positions, values)).ravel())),
        [resolution] * (resolution + 1) + [landscape.dim, 1] * len(values))
    optima = iter(rows[resolution + 1:])
    lines = [f"problem {problem}", f"seed {seed}", f"env {env}",
             f"dim {landscape.dim}", f"resolution {resolution}",
             f"axis {rows[0]}"]
    lines += [f"row {i} {row}"
              for i, row in enumerate(rows[1:resolution + 1])]
    lines += [f"optimum {k} {point} value {value}"
              for k, (point, value) in enumerate(zip(optima, optima))]
    return "\n".join(lines) + "\n"


def write_artifact(out_dir, name, text):
    """Write `text` to the file `name` in `out_dir`, creating the
    directory if need be; return the file's path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path

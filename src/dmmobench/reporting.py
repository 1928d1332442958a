"""Benchmark execution and reporting: runs problems over seeds, scores
every accuracy level in one pass, and writes the delimited artifacts.

Artifacts per output directory:
  results.txt / results.csv   the 24-row score table (6 decimal places)
  records_P<n>.csv            per-run, per-environment raw counts
  snapshots_P<n>_seed<m>.txt  reported populations (with --save-snapshots)
  dump_P<n>_seed<m>.txt       golden parameter dumps (dump command)
  grid_P<n>_seed<m>_env<e>.txt   fitness sample grids (grid command)
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import BenchmarkSettings
from .controller import (PopulationSnapshot, ProblemInstance, create_problem,
                        dump_environments_text, iterate_environments)
from .core import DOMAIN_HIGH, DOMAIN_LOW, ProblemSpec, make_rng, problem_spec
from .metrics import (AccuracyLevel, RunRecord, best_worst, count_npf,
                      peak_ratio, score_run)
from .optimizers import make_optimizer

#: Stream number of the optimizer's random draws; the problem side owns
#: stream 0 of the same seed.
OPTIMIZER_STREAM = 1


def accuracy_levels(settings):
    """The accuracy levels a configuration scores."""
    return tuple(AccuracyLevel(value, settings.distance_accuracy)
                 for value in settings.fitness_accuracy_levels)


@dataclass
class RunResult:
    """Scored outcome of one (problem, seed) run."""

    problem: str
    seed: int
    peaks: list
    counts: dict
    snapshots: object = None


class ResultsTable:
    """The per-problem score table: PR, Best, Worst at each level."""

    def __init__(self, levels):
        self.levels = levels
        self.rows = []

    def add_row(self, index, group, cells):
        for level in self.levels:
            pr, best, worst = cells[level]
            if not worst <= pr <= best:
                raise ValueError(
                    f"{index}: scores must satisfy worst <= PR <= best")
        self.rows.append((index, group, cells))

    def _cell_values(self, cells):
        for level in self.levels:
            yield from cells[level]

    def render(self):
        headers = ["problem", "group"]
        for level in self.levels:
            headers += [f"pr_{level.key}", f"best_{level.key}",
                        f"worst_{level.key}"]
        widths = [max(len(h), 12) for h in headers]
        widths[0] = max(len(headers[0]), 7)
        widths[1] = max(len(headers[1]), 5)
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for index, group, cells in self.rows:
            fields = [index, group] + [
                format(value, ".6f") for value in self._cell_values(cells)]
            lines.append("  ".join(f.ljust(w) for f, w in zip(fields, widths)))
        return "\n".join(lines) + "\n"

    def to_csv(self):
        headers = ["problem", "group"]
        for level in self.levels:
            headers += [f"pr_{level.key}", f"best_{level.key}",
                        f"worst_{level.key}"]
        lines = [",".join(headers)]
        for index, group, cells in self.rows:
            fields = [index, group] + [
                format(value, ".6f") for value in self._cell_values(cells)]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


@dataclass
class BenchmarkReport:
    """Everything a benchmark invocation produced."""

    table: ResultsTable
    records: dict
    failures: list


def execute_run(problem, seed, optimizer="baseline", settings=None,
                optimizer_config=None, levels=None, keep_snapshots=False):
    """One full run: build the instance, optimize until frozen, score."""
    settings = settings if settings is not None else BenchmarkSettings()
    levels = levels if levels is not None else accuracy_levels(settings)
    instance = create_problem(problem, seed, settings)
    engine = make_optimizer(optimizer, optimizer_config)
    engine.optimize(instance, make_rng(seed, OPTIMIZER_STREAM))
    peaks, counts = score_run(instance, levels)
    return RunResult(problem, seed, peaks, counts,
                     instance.snapshots if keep_snapshots else None)


def _run_task(args):
    problem, seed, optimizer, settings, optimizer_config, levels, keep = args
    return execute_run(problem, seed, optimizer, settings, optimizer_config,
                       levels, keep)


def run_benchmark(problems, seeds, optimizer="baseline", settings=None,
                  optimizer_config=None, out_dir=None, jobs=1,
                  save_snapshots=False):
    """Run every (problem, seed) pair, aggregate, and write artifacts.

    A failing run aborts only itself; its absence is reported in the
    returned failures list and it contributes nothing to the table.
    Runs are independent, so `jobs` > 1 parallelizes across pairs
    without changing any result.
    """
    settings = settings if settings is not None else BenchmarkSettings()
    levels = accuracy_levels(settings)
    problems = list(problems)
    seeds = list(seeds)
    tasks = [(p, s, optimizer, settings, optimizer_config, levels,
              save_snapshots) for p in problems for s in seeds]

    outcomes = {}
    failures = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_run_task, task): task for task in tasks}
            for future, task in futures.items():
                key = (task[0], task[1])
                try:
                    outcomes[key] = future.result()
                except Exception as exc:
                    failures.append((key[0], key[1], repr(exc)))
    else:
        for task in tasks:
            key = (task[0], task[1])
            try:
                outcomes[key] = _run_task(task)
            except Exception as exc:
                failures.append((key[0], key[1], repr(exc)))

    table = ResultsTable(levels)
    records = {}
    for problem in problems:
        rows = [outcomes[(problem, seed)] for seed in seeds
                if (problem, seed) in outcomes]
        if not rows:
            continue
        peaks = np.array([r.peaks for r in rows])
        by_level = {}
        cells = {}
        for level in levels:
            record = RunRecord(np.array([r.counts[level] for r in rows]),
                               peaks)
            by_level[level] = record
            cells[level] = (peak_ratio(record), *best_worst(record))
        records[problem] = by_level
        table.add_row(problem, problem_spec(problem).group, cells)

    if out_dir is not None:
        _write_artifacts(out_dir, table, records, outcomes, problems, seeds,
                         levels, settings, save_snapshots)
    return BenchmarkReport(table, records, failures)


def _write_artifacts(out_dir, table, records, outcomes, problems, seeds,
                     levels, settings, save_snapshots):
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "results.txt"), table.render())
    _write_text(os.path.join(out_dir, "results.csv"), table.to_csv())
    for problem in problems:
        if problem not in records:
            continue
        path = os.path.join(out_dir, f"records_{problem}.csv")
        _write_text(path, render_records_csv(
            problem, seeds, outcomes, levels))
        if save_snapshots:
            for seed in seeds:
                result = outcomes.get((problem, seed))
                if result is None or result.snapshots is None:
                    continue
                path = os.path.join(out_dir,
                                    f"snapshots_{problem}_seed{seed}.txt")
                _write_text(path, render_snapshots(
                    problem, seed, result.snapshots, settings.environments))


def render_records_csv(problem, seeds, outcomes, levels):
    """Raw counts for one problem: a row per (seed, environment)."""
    headers = ["seed", "env", "peaks"] + [f"npf_{lv.key}" for lv in levels]
    lines = [",".join(headers)]
    for seed in seeds:
        result = outcomes.get((problem, seed))
        if result is None:
            continue
        for env_index in range(len(result.peaks)):
            row = [str(seed), str(env_index + 1),
                   str(result.peaks[env_index])]
            row += [str(result.counts[lv][env_index]) for lv in levels]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_snapshots(problem, seed, snapshots, environments):
    """Reported populations of one run, full precision, re-scorable."""
    lines = [f"problem {problem}", f"seed {seed}",
             f"environments {environments}"]
    for snapshot in snapshots:
        lines.append(f"env {snapshot.environment}")
        for point, value in zip(snapshot.individuals, snapshot.fitness):
            coords = " ".join(format(c, ".16e") for c in point)
            lines.append(f"individual {coords} fitness {value:.16e}")
    return "\n".join(lines) + "\n"


def parse_snapshots(text, dim):
    """Inverse of render_snapshots."""
    problem = None
    seed = None
    snapshots = []
    current = None
    rows = []
    values = []

    def close():
        if current is not None:
            individuals = (np.array(rows) if rows
                           else np.empty((0, dim)))
            snapshots.append(PopulationSnapshot(
                current, individuals, np.array(values)))

    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "problem":
            problem = parts[1]
        elif parts[0] == "seed":
            seed = int(parts[1])
        elif parts[0] == "env":
            close()
            current = int(parts[1])
            rows, values = [], []
        elif parts[0] == "individual":
            rows.append([float(c) for c in parts[1:1 + dim]])
            values.append(float(parts[-1]))
    close()
    return problem, seed, snapshots


def rescore_snapshots(out_dir, settings=None, levels=None):
    """Re-score stored snapshot files against replayed ground truth.

    The configuration must match the one the snapshots were produced
    under, otherwise the replayed optima describe a different problem.
    """
    settings = settings if settings is not None else BenchmarkSettings()
    levels = levels if levels is not None else accuracy_levels(settings)
    names = sorted(name for name in os.listdir(out_dir)
                   if name.startswith("snapshots_") and name.endswith(".txt"))
    if not names:
        raise ValueError(f"no snapshot files in {out_dir}")

    outcomes = {}
    problems = []
    seeds = []
    for name in names:
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        head = text.splitlines()[0].split()
        dim = problem_spec(head[1]).dimension
        problem, seed, snapshots = parse_snapshots(text, dim)
        if not snapshots:
            raise ValueError(f"{path}: no environments recorded")
        truths = {}
        for env, landscape, _ in iterate_environments(
                problem, seed, settings,
                environments=max(s.environment for s in snapshots)):
            truths[env] = landscape.global_optima()
        peaks = []
        counts = {level: [] for level in levels}
        for snapshot in snapshots:
            optima = truths[snapshot.environment]
            peaks.append(len(optima[0]))
            for level in levels:
                counts[level].append(count_npf(snapshot, optima, level))
        outcomes[(problem, seed)] = RunResult(problem, seed, peaks, counts)
        if problem not in problems:
            problems.append(problem)
        if seed not in seeds:
            seeds.append(seed)

    problems.sort(key=lambda p: int(p[1:]))
    seeds.sort()
    table = ResultsTable(levels)
    records = {}
    for problem in problems:
        rows = [outcomes[(problem, seed)] for seed in seeds
                if (problem, seed) in outcomes]
        peaks = np.array([r.peaks for r in rows])
        by_level = {}
        cells = {}
        for level in levels:
            record = RunRecord(np.array([r.counts[level] for r in rows]),
                               peaks)
            by_level[level] = record
            cells[level] = (peak_ratio(record), *best_worst(record))
        records[problem] = by_level
        table.add_row(problem, problem_spec(problem).group, cells)
    return BenchmarkReport(table, records, [])


def export_landscape_grid(problem, seed, env=1, resolution=101,
                          settings=None, dim_override=None):
    """Fitness samples over a 2-D slice of one environment, as text.

    Row i, column j sample the point (axis[i], axis[j], 0, ..., 0);
    beyond two dimensions the slice fixes every other coordinate at
    zero.  `dim_override` rebuilds the problem at another dimension
    (2 is the useful one, for direct visualisation).
    """
    settings = settings if settings is not None else BenchmarkSettings()
    if not 1 <= env <= settings.environments:
        raise ValueError(
            f"environment {env} outside 1..{settings.environments}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    base = problem_spec(problem)
    if dim_override is not None:
        spec = ProblemSpec(base.index, base.family, base.mode, dim_override)
    else:
        spec = base
    instance = ProblemInstance(spec, seed, settings)
    for _ in range(env - 1):
        instance._advance()
    landscape = instance.landscape

    axis = np.linspace(DOMAIN_LOW, DOMAIN_HIGH, resolution)
    lines = [f"problem {problem}", f"seed {seed}", f"env {env}",
             f"dim {spec.dimension}", f"resolution {resolution}",
             "axis " + " ".join(format(a, ".16e") for a in axis)]
    points = np.zeros((resolution, spec.dimension))
    for i in range(resolution):
        points[:, 0] = axis[i]
        points[:, 1] = axis
        values = landscape.evaluate_many(points)
        lines.append(f"row {i} " + " ".join(
            format(v, ".16e") for v in values))
    positions, values = landscape.global_optima()
    for k, (point, value) in enumerate(zip(positions, values)):
        coords = " ".join(format(c, ".16e") for c in point)
        lines.append(f"optimum {k} {coords} value {value:.16e}")
    return "\n".join(lines) + "\n"


def dump_environments(problem, seed, settings=None, out_dir=None):
    """Write (or return) the golden parameter dump for one run."""
    text = dump_environments_text(problem, seed, settings)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"dump_{problem}_seed{seed}.txt")
        _write_text(path, text)
        return path
    return text


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)

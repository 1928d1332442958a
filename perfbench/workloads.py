"""The benchmark's workloads, each driven through dmmobench's public API.

  cone     F1-F4 problems (P1-P4, P17-P20) at the full per-environment
           budget over a few environments, one process: DE, RNG streams,
           the cone kernel and the controller.
  table    all 24 problems at a reduced budget through the process pool:
           the paper's table in miniature, dominated by the composition
           kernel and its basic functions.
  offline  the `dump`, `score` and `grid` verbs of the command line, in
           process, on inputs set-up saved; no optimizer runs: dynamics,
           dump formatting, snapshot parsing, scoring and 2-D grids.

`prepare` is part of set-up; `execute` is one timed execution and
returns the artifacts whose bytes the runner checks.
"""

import contextlib
import io
import os
from dataclasses import dataclass, field

CONE_PROBLEMS = ("P1", "P2", "P3", "P4", "P17", "P18", "P19", "P20")
ALL_PROBLEMS = tuple(f"P{i}" for i in range(1, 25))

#: What each workload runs.  The sizes keep one execution to a few
#: seconds on a 2-vCPU host, so that a 30-s run holds about ten.
SIZES = {
    "cone": {"problems": CONE_PROBLEMS, "evals_per_dim": 5000,
             "environments": 2},
    "table": {"problems": ALL_PROBLEMS, "evals_per_dim": 200,
              "environments": 5},
    "offline": {"snapshot_problems": ("P1", "P5", "P17", "P21"),
                "evals_per_dim": 20, "environments": 60,
                "grid_problems": "P1,P5", "grid_env": 10,
                "resolution": 201},
}


@dataclass
class Inputs:
    """What set-up hands to every execution of one run."""

    problems: tuple
    seeds: list
    settings: object
    evaluations: int
    extra: dict = field(default_factory=dict)


@dataclass
class Execution:
    """Outcome of one execution: run counts, artifacts, named checks."""

    runs: int
    failed_runs: int
    outputs: dict
    checks: dict = field(default_factory=dict)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _charged(dmm, problems, settings):
    return sum(settings.environments
               * settings.environment_budget(dmm.problem_spec(p).dimension)
               for p in problems)


# -- cone and table: run_benchmark --------------------------------------------


def prepare_runs(dmm, seed, work_dir, params):
    settings = dmm.BenchmarkSettings(
        evals_per_dim=params["evals_per_dim"],
        environments=params["environments"]).validate()
    problems = params["problems"]
    return Inputs(problems, [seed], settings,
                  _charged(dmm, problems, settings))


def execute_runs(dmm, inputs, out_dir, jobs):
    """One `run_benchmark` call writing the score table and records."""
    report = dmm.reporting.run_benchmark(
        inputs.problems, inputs.seeds, settings=inputs.settings,
        out_dir=out_dir, jobs=jobs)
    records = b"".join(
        _read(os.path.join(out_dir, f"records_{p}.csv"))
        for p in inputs.problems if p in report.records)
    outputs = {"results.csv": _read(os.path.join(out_dir, "results.csv")),
               "records": records}
    return Execution(len(inputs.problems) * len(inputs.seeds),
                     len(report.failures), outputs)


# -- offline: the command-line verbs ------------------------------------------


def prepare_offline(dmm, seed, work_dir, params):
    """Save snapshot files and the in-run table they must re-score to."""
    config = os.path.join(work_dir, "snapshots.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(f"evals_per_dim = {params['evals_per_dim']}\n"
                     f"environments = {params['environments']}\n")
    settings, _ = dmm.load_config(config)
    snapshot_dir = os.path.join(work_dir, "snapshots")
    problems = params["snapshot_problems"]
    report = dmm.reporting.run_benchmark(
        problems, [seed], settings=settings, out_dir=snapshot_dir,
        save_snapshots=True)
    grids = len(params["grid_problems"].split(","))
    return Inputs(problems, [seed], settings,
                  grids * params["resolution"] ** 2,
                  {"config": config, "snapshot_dir": snapshot_dir,
                   "in_run_table": report.table.render().encode(),
                   "snapshot_failures": len(report.failures),
                   "params": params})


def _cli(dmm, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dmm.cli.main(argv)
    return code, out.getvalue()


def _concat(out_dir, prefix):
    return b"".join(_read(os.path.join(out_dir, name))
                    for name in sorted(os.listdir(out_dir))
                    if name.startswith(prefix))


def execute_offline(dmm, inputs, out_dir, jobs):
    """`dump` of all 24 problems, `score` of the snapshots, two grids."""
    extra, params = inputs.extra, inputs.extra["params"]
    seed = str(inputs.seeds[0])
    codes = [
        _cli(dmm, ["dump", "--problems", "all", "--seeds", seed,
                   "--out-dir", out_dir])[0],
        _cli(dmm, ["grid", "--problems", params["grid_problems"],
                   "--seeds", seed, "--env", str(params["grid_env"]),
                   "--dim", "2", "--resolution", str(params["resolution"]),
                   "--out-dir", out_dir])[0],
    ]
    code, rescored = _cli(dmm, ["score", "--config", extra["config"],
                                "--out-dir", extra["snapshot_dir"]])
    codes.append(code)
    rescored = rescored.encode()
    outputs = {"dump": _concat(out_dir, "dump_"),
               "grid": _concat(out_dir, "grid_"),
               "score": rescored}
    checks = {"rescored table equals in-run table":
              rescored == extra["in_run_table"]}
    return Execution(len(codes), sum(c != 0 for c in codes), outputs, checks)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    execute: object
    #: True when the timed executions use one worker per CPU.
    pooled: bool = False


WORKLOADS = {
    "cone": Workload("cone", prepare_runs, execute_runs),
    "table": Workload("table", prepare_runs, execute_runs, pooled=True),
    "offline": Workload("offline", prepare_offline, execute_offline),
}

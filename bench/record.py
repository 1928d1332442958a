"""Record end-to-end and per-layer benchmark numbers of source trees.

Each tree is measured with `perfbench/run.py --trace 0`, run from the
tree's root, on every workload that BENCHMARK.json lists, for
BENCHMARK.json's `run_seconds`.  Rounds go round-robin over the
workloads and, within each workload, over the trees, the first tree
moving one place on each round, so that a host whose speed drifts
spreads its drift over every tree and neither side of a pair always
runs first.

Every tree other than this checkout (an older commit exported with
`git archive` into a directory outside the checkout) first has its
`perfbench/` and BENCHMARK.json, if any, replaced by this checkout's,
so every tree runs the same benchmark code and digests on its own
`src/`.

A run that exits non-zero, or whose result is not `correct` or has a
failed operation, stops the recording.  After the last round each tree
runs `perfbench/run.py --trace 1` once per workload, for the same
`run_seconds`, then the Tier-1 test command once, from its root with
`PYTHONPATH=src`, so each tree's tests run on its own `src/`, and then
the full-budget timings once, in one process run from its root with
`PYTHONPATH=src` and `OPENBLAS_NUM_THREADS=1`.  For each tree `LABEL`,
`BENCH_<LABEL>.json` is written to the current
directory: the environment record of the tree's first run, whether the
tree was a clean git checkout before recording (`git_clean`: true or
false, null for a tree without `.git`, whose environment record names
no commit), per workload the median and quartiles (inclusive method)
of every end-to-end metric, every round's values and `layers`, the
traced run's per-layer metrics (medians over its traced executions),
`tier1`: the tests that passed, those that failed or errored, and the
command's wall time in seconds, interpreter start and collection
included, and `full_budget`: the seconds of one `execute_run` of P1,
of P8 and of P24 at seed 1 and the default (full) budget, and of the
24-problem sweep at `evals_per_dim = 500`, seed 1, in one process.

    git archive 0d58935 | tar -x -C /tmp/tree-0d58935
    python3 bench/record.py --tree 0d58935=/tmp/tree-0d58935 \\
        --tree head=. --rounds 5
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workload seed of every recorded run.
SEED = 1

#: The Tier-1 test command, run from a tree's root.
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]

#: The full-budget timings, run from a tree's root; prints their JSON.
FULL_BUDGET = """
import json, time
from dmmobench.config import BenchmarkSettings
from dmmobench.reporting import execute_run, run_benchmark
seconds = {}
for problem in ("P1", "P8", "P24"):
    start = time.perf_counter()
    execute_run(problem, 1)
    seconds[problem + "_s"] = time.perf_counter() - start
start = time.perf_counter()
report = run_benchmark([f"P{i}" for i in range(1, 25)], [1],
                       settings=BenchmarkSettings(evals_per_dim=500))
seconds["sweep_s"] = time.perf_counter() - start
if report.failures:
    raise SystemExit(f"failed runs: {report.failures}")
print(json.dumps(seconds))
"""


def git_clean(path):
    """Whether `git status --porcelain` in `path` prints nothing, or
    None for a tree without `.git`.  The environment record names the
    checkout's commit, which a dirty tree does not hold."""
    if not (path / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=path,
                          capture_output=True, text=True, check=True)
    return done.stdout == ""


def prepare_tree(path):
    """Give a tree other than this checkout this checkout's benchmark."""
    if not (path / "src" / "dmmobench").is_dir():
        raise SystemExit(f"error: no dmmobench sources under {path}")
    if path == ROOT:
        return
    if (path / "perfbench").exists():
        shutil.rmtree(path / "perfbench")
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")


def run_once(path, workload, seconds, trace=0):
    """(environment record, result) of one perfbench run in `path`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds),
               "--trace", str(trace)]
    # the tree imports its own src/, whatever the caller's path holds
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=path, env=env, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {path}: {workload} exited "
                         f"{done.returncode}\n{done.stderr}")
    record = json.loads(lines[-2])["environment"]
    outcome = json.loads(lines[-1])
    if not outcome["correct"] or outcome["failed"] != 0:
        raise SystemExit(f"error: {path}: {workload} failed "
                         f"{outcome['failed']} of {outcome['attempted']}: "
                         f"{record['failures']}")
    return record, outcome


def run_tier1(path):
    """{passed, failed, wall_s} of one Tier-1 run in `path`; a test
    that errors counts as failed."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=path, env=env, capture_output=True,
                          text=True, check=False)
    wall_s = time.perf_counter() - start
    last = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {word.rstrip("s"): int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|errors?)\b", last)}
    if not counts:
        raise SystemExit(f"error: {path}: Tier-1 exited {done.returncode} "
                         f"without a summary\n{done.stderr}")
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "wall_s": wall_s}


def run_full_budget(path):
    """{P1_s, P8_s, P24_s, sweep_s} of one run of FULL_BUDGET in
    `path`."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FULL_BUDGET], cwd=path,
                          env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {path}: full-budget timings exited "
                         f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(rounds):
    """Median and quartiles of each metric over the rounds."""
    stats = {}
    for name in rounds[0]:
        values = [r[name]["value"] for r in rounds]
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        stats[name] = {"unit": rounds[0][name]["unit"], "median": median,
                       "q1": q1, "q3": q3}
    return stats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        metavar="LABEL=PATH",
                        help="a source tree to measure, under a label")
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path or label in trees:
            parser.error(f"--tree {spec!r}: want a new LABEL=PATH")
        trees[label] = Path(path).resolve()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    return trees, args.rounds


def main(argv=None):
    trees, rounds = parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    # read before prepare_tree edits a tree's perfbench/
    clean = {label: git_clean(path) for label, path in trees.items()}
    for path in trees.values():
        prepare_tree(path)
    labels = list(trees)
    records = {label: {"label": label, "seed": SEED, "environment": None,
                       "git_clean": clean[label],
                       "workloads": {w: {"rounds": []} for w in workloads}}
               for label in labels}
    for i in range(rounds):
        for workload in workloads:
            shift = i % len(labels)
            for label in labels[shift:] + labels[:shift]:
                record, outcome = run_once(trees[label], workload, seconds)
                entry = records[label]
                if entry["environment"] is None:
                    entry["environment"] = record
                entry["workloads"][workload]["rounds"].append(
                    outcome["metrics"])
                print(f"round {i + 1} {workload:8} {label:12} wall_s "
                      f"{outcome['metrics']['wall_s']['value']:.3f}",
                      flush=True)
        if i > 0:
            # rewritten every round, so a recording cut short keeps its
            # finished rounds
            for label, entry in records.items():
                write_record(label, entry)
    for workload in workloads:
        for label in labels:
            _, outcome = run_once(trees[label], workload, seconds, trace=1)
            records[label]["workloads"][workload]["layers"] = (
                outcome["metrics"])
            print(f"traced  {workload:8} {label:12} spans "
                  f"{outcome['metrics']['trace.spans']['value']}", flush=True)
    for label, entry in records.items():
        entry["tier1"] = run_tier1(trees[label])
        print(f"tier-1 {label:12} {entry['tier1']}", flush=True)
        entry["full_budget"] = run_full_budget(trees[label])
        print(f"full   {label:12} {entry['full_budget']}", flush=True)
        write_record(label, entry)
    return 0


def write_record(label, entry):
    for stats in entry["workloads"].values():
        stats["metrics"] = summary(stats["rounds"])
    with open(f"BENCH_{label}.json", "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())

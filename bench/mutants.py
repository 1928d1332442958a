"""Mutation check: does the fast test suite notice a broken benchmark?

Each mutant below is one named exact-text edit of a file under `src/`.
For every mutant what the tests read (`src/`, `tests/`, `perfbench/`,
README.md and pyproject.toml) is copied to a temporary directory, the edit is checked to apply exactly once, and
`pytest -x` runs there without the six slow tests.  A mutant is killed
when pytest fails, and survives when the suite passes.  An unmutated
copy runs first: a suite that fails on its own proves nothing.

Run from the root of a checkout (about 10 minutes on two cores):

    python3 bench/mutants.py            # every mutant
    python3 bench/mutants.py NAME ...   # only the named ones

The plain test run does not collect this file.  Exit status 1 means a
mutant that is not marked equivalent survived.  Ctrl-C or SIGTERM stops
every running suite, with the processes it started, and removes each
copy of the tree.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: At most this many suites run at a time.
PARALLEL = 2

#: A suite still running after this many seconds is stopped and its
#: mutant counted as killed (a mutant may loop forever).
TIMEOUT_S = 600

#: The six tests that dominate tier-1's wall time; they build only
#: default settings and are left out of every run.
SLOW_TESTS = (
    "tests/test_acceptance.py::test_criterion_03_composition_optima",
    "tests/test_acceptance.py::test_criterion_09_determinism_full_budget",
    "tests/test_acceptance.py::test_criterion_10_baseline_beats_random",
)


def mutant(name, path, old, new, equivalent=None):
    """One edit of `src/dmmobench/<path>`; `equivalent` gives the reason
    a mutant cannot be told apart from the original by any run."""
    return {"name": name, "path": f"src/dmmobench/{path}", "old": old,
            "new": new, "equivalent": equivalent}


MUTANTS = [
    # refusals of meaningless configuration
    mutant("subpopulations 0 accepted", "config.py",
           "dict(subpopulations=1,", "dict(subpopulations=0,"),
    mutant("fractional integer accepted", "core.py",
           "if isinstance(value, bool) or not isinstance(value, "
           "numbers.Integral):",
           "if isinstance(value, bool):"),
    mutant("bool integer accepted", "core.py",
           "if isinstance(value, bool) or not isinstance(value, "
           "numbers.Integral):",
           "if not isinstance(value, numbers.Integral):"),
    mutant("count refused as a plain ValueError", "config.py",
           "minimum, ConfigError)", "minimum)"),
    mutant("crossover_rate up to 2 accepted", "config.py",
           "0.0 <= self.crossover_rate <= 1.0",
           "0.0 <= self.crossover_rate <= 2.0"),
    mutant("reinit_fraction up to 2 accepted", "config.py",
           "0.0 <= self.reinit_fraction <= 1.0",
           "0.0 <= self.reinit_fraction <= 2.0"),
    mutant("memory_size -1 accepted", "config.py",
           "memory_size=0))", "memory_size=-1))"),
    # budget accounting and change after the exhausting evaluation
    mutant("environment sealed one evaluation early", "controller.py",
           "if self.evaluations_used_in_env == self.budget:",
           "if self.evaluations_used_in_env >= self.budget - 1:"),
    mutant("exhausting evaluation scored after the change", "controller.py",
           "            out[start:stop] = self.landscape.evaluate_many("
           "xs[start:stop])\n"
           "            self.evaluations_used_in_env += stop - start\n"
           "            if self.evaluations_used_in_env == self.budget:\n"
           "                self._seal_environment()\n",
           "            out[start:stop - 1] = self.landscape.evaluate_many("
           "xs[start:stop - 1])\n"
           "            self.evaluations_used_in_env += stop - start\n"
           "            if self.evaluations_used_in_env == self.budget:\n"
           "                self._seal_environment()\n"
           "            out[stop - 1] = self.landscape.evaluate_many("
           "xs[stop - 1:stop])[0]\n"),
    # batch invariance
    mutant("straddling batch scored under one environment", "controller.py",
           "            out[start:stop] = self.landscape.evaluate_many("
           "xs[start:stop])\n",
           "            if start == 0:\n"
           "                out[:] = self.landscape.evaluate_many(xs)\n"),
    mutant("composition rotation by a BLAS product", "composition.py",
           'rotated = np.einsum("bnd,nde->bne", scaled, self.rotations)',
           "rotated = (scaled[:, :, None, :] @ self.rotations)[:, :, 0, :]"),
    # one basic-function call per run of equal kinds, refreshed at changes
    mutant("a run of kinds scored by its first component", "composition.py",
           "BASIC_FUNCTIONS[kind](z[..., run, :])",
           "BASIC_FUNCTIONS[kind](z[..., run.start, None, :])"),
    mutant("peak magnitudes not refreshed after a change", "dynamics.py",
           "    landscape.refresh_normalization()\n", ""),
    # last report wins, and only for its own environment
    mutant("first report wins", "controller.py",
           "        self._pending_report = _checked_batch(",
           "        if len(self._pending_report):\n"
           "            return\n"
           "        self._pending_report = _checked_batch("),
    mutant("report carried into the next environment", "controller.py",
           "        self._pending_report = np.empty("
           "(0, self.spec.dimension))\n", ""),
    mutant("optimizer returning early is scored", "reporting.py",
           "    if not instance.frozen:", "    if False:"),
    mutant("baseline reports at a one-batch horizon", "optimizers.py",
           "remaining_budget() <= 2 * subs * size",
           "remaining_budget() <= subs * size"),
    # exact periodicity and optimum spacing
    mutant("recurrent level from t unreduced", "dynamics.py",
           "start = 2.0 * math.pi * (state.t % PERIOD) / PERIOD",
           "start = 2.0 * math.pi * state.t / PERIOD"),
    mutant("optima spaced at half the constant", "dynamics.py",
           "_first_violation(points, MIN_PEAK_DISTANCE)",
           "_first_violation(points, 0.5 * MIN_PEAK_DISTANCE)"),
    mutant("peaks placed at half the constant", "core.py",
           ">= MIN_PEAK_DISTANCE:", ">= 0.5 * MIN_PEAK_DISTANCE:"),
    # the run's change rules, fixed when it starts
    mutant("heights change at the width severity", "dynamics.py",
           "LOCAL_HEIGHT_LOW, LOCAL_HEIGHT_HIGH, HEIGHT_SEVERITY,",
           "LOCAL_HEIGHT_LOW, LOCAL_HEIGHT_HIGH, WIDTH_SEVERITY,"),
    mutant("angles change at the width severity", "dynamics.py",
           "*arc, ROTATION_SEVERITY,", "*arc, WIDTH_SEVERITY,"),
    mutant("noisy recurrence swings the full circle", "dynamics.py",
           'if mode in ("C5", "C6") else FULL_ANGLE_RANGE',
           'if mode == "C5" else FULL_ANGLE_RANGE'),
    mutant("count sweep does not turn at 2", "dynamics.py",
           "        elif state.g == 2:\n            state.direction = 1\n",
           ""),
    # strict thresholds
    mutant("distance threshold not strict", "metrics.py",
           "close = nearest & (distances < DISTANCE_ACCURACY)",
           "close = nearest & (distances <= DISTANCE_ACCURACY)"),
    mutant("fitness threshold not strict", "metrics.py",
           "hit = (gaps < levels[:, None, None]) & close",
           "hit = (gaps <= levels[:, None, None]) & close"),
    # each snapshot refusal README lists
    mutant("unknown problem header without its line", "reporting.py",
           'raise ValueError(f"line {number}: {exc}") from None',
           "raise"),
    mutant("negative seed accepted", "reporting.py",
           'if key == "seed" and header[key] < 0:',
           'if key == "seed" and header[key] < -1:'),
    mutant("other run length accepted", "reporting.py",
           'if header["environments"] != environments:',
           'if header["environments"] > environments:'),
    mutant("env 0 accepted", "reporting.py",
           "if not 1 <= env <= environments:",
           "if not 0 <= env <= environments:"),
    mutant("env recorded twice accepted", "reporting.py",
           "if env in firsts:", "if False:"),
    mutant("misspelt individual line skipped", "reporting.py",
           "        elif key is not None:",
           '        elif key is not None and not key.startswith("indiv"):'),
    mutant("repeated header accepted", "reporting.py",
           "if len(fields) != 1 or dim is not None or key in header:",
           "if len(fields) != 1 or dim is not None:"),
    mutant("env line with two values accepted", "reporting.py",
           '        elif key == "env":\n            if len(fields) != 1:',
           '        elif key == "env":\n            if len(fields) < 1:'),
    mutant("individual without its fitness word", "reporting.py",
           '            if (dim is None or len(fields) != dim + 2\n'
           '                    or fields[dim] != "fitness"):',
           "            if dim is None or len(fields) != dim + 2:"),
    mutant("unparsable value not named", "reporting.py",
           "    except ValueError:\n        raise _malformed(number, line)",
           "    except TypeError:\n        raise _malformed(number, line)"),
    mutant("infinite fitness accepted", "reporting.py",
           "& np.isfinite(fitness)))", "& ~np.isnan(fitness)))"),
    mutant("out-of-domain snapshot coordinate accepted", "reporting.py",
           "max(1, initial=0.0) <= DOMAIN_HIGH)",
           "max(1, initial=0.0) <= np.inf)"),
    mutant("bad individual named at the wrong line", "reporting.py",
           "line_numbers.append(number)", "line_numbers.append(number + 1)"),
    mutant("file without env lines accepted", "reporting.py",
           "    if not firsts:\n", "    if False:\n"),
    mutant("truncated file accepted", "reporting.py",
           "if len(firsts) != environments:", "if len(firsts) > environments:"),
    mutant("same run in two files accepted", "reporting.py",
           "if first != path:", "if False:"),
    # a run asked for twice
    mutant("repeated seed accepted", "reporting.py",
           '(("problem", problems), ("seed", seeds))',
           '(("problem", problems),)'),
    mutant("repeated problem accepted", "reporting.py",
           '(("problem", problems), ("seed", seeds))', '(("seed", seeds),)'),
    # a run that cannot run as asked
    mutant("unknown problem run", "reporting.py",
           "    for problem in problems:\n        problem_spec(problem)\n",
           ""),
    mutant("negative seed run", "reporting.py",
           'check_integer("seed", seed, 0)',
           'check_integer("seed", seed, -1)'),
    mutant("seed left to the run", "reporting.py",
           '    for seed in seeds:\n        check_integer("seed", seed, 0)\n',
           ""),
    mutant("unknown optimizer run", "reporting.py",
           "    make_optimizer(optimizer, optimizer_config)\n", ""),
    mutant("out-dir created only after the runs", "reporting.py",
           "    if out_dir is not None:\n"
           "        os.makedirs(out_dir, exist_ok=True)\n", ""),
    mutant("snapshots without out_dir accepted", "reporting.py",
           "    if save_snapshots and out_dir is None:\n"
           "        raise ValueError(\"save_snapshots needs an out_dir\")\n",
           ""),
    mutant("run's snapshot file not written", "reporting.py",
           "    if snapshot_dir is not None:\n        write_artifact(",
           "    if False:\n        write_artifact("),
    mutant("dump out-dir created after the first dump", "cli.py",
           "    os.makedirs(args.out_dir, exist_ok=True)\n"
           "    for problem in problems:\n        for seed in seeds:\n"
           "            # looked up",
           "    for problem in problems:\n        for seed in seeds:\n"
           "            # looked up"),
    mutant("grid out-dir created after the first grid", "cli.py",
           "    check_grid(args.env, args.resolution, settings, args.dim)\n"
           "    os.makedirs(args.out_dir, exist_ok=True)\n",
           "    check_grid(args.env, args.resolution, settings, args.dim)\n"),
    mutant("grid dimension checked after the out-dir", "reporting.py",
           "    if dim_override is not None:\n"
           "        check_dim_override(dim_override)\n", ""),
    mutant("jobs 0 run", "reporting.py",
           'check_integer("jobs", jobs, 1)', 'check_integer("jobs", jobs)'),
    mutant("fractional or bool jobs run", "reporting.py",
           '    check_integer("jobs", jobs, 1)\n',
           '    if jobs < 1:\n        raise ValueError("jobs")\n'),
    # what a serial process loads, and what a failed run reports
    mutant("process pool loaded by every process", "reporting.py",
           "from contextlib import ExitStack\n",
           "from concurrent.futures import ProcessPoolExecutor\n"
           "from contextlib import ExitStack\n"),
    mutant("failure recorded by repr", "reporting.py",
           'f"{type(exc).__name__}: {exc}"', "repr(exc)"),
    # a seed, or a grid argument, that is not an integer
    mutant("stream seed unchecked", "core.py",
           '        check_integer("seed", seed, 0)\n', ""),
    mutant("fractional grid env accepted", "reporting.py",
           '    check_integer("env", env)\n', ""),
    mutant("fractional grid resolution accepted", "reporting.py",
           '    check_integer("resolution", resolution, 2)\n',
           '    if resolution < 2:\n        raise ValueError("resolution")\n'),
    mutant("grid resolution 1 accepted", "reporting.py",
           'check_integer("resolution", resolution, 2)',
           'check_integer("resolution", resolution, 1)'),
    mutant("fractional grid dimension accepted", "controller.py",
           '    check_integer("dim_override", dim_override)\n', ""),
    mutant("grid dimension 1 accepted", "controller.py",
           "if dim_override < 2:", "if dim_override < 1:"),
    # config text the reader refuses
    mutant("distance_accuracy key accepted", "config.py",
           "    fitness_accuracy_levels: tuple = (1e-3, 1e-4, 1e-5)\n",
           "    fitness_accuracy_levels: tuple = (1e-3, 1e-4, 1e-5)\n"
           "    distance_accuracy: float = 0.05\n"),
    mutant("config key set twice accepted", "config.py",
           "        if key in first_lines:", "        if False:"),
    mutant("config method name taken as a key", "config.py",
           "if key in {f.name for f in fields(config)}:",
           "if hasattr(config, key):"),
    mutant("config line without `=` read as a key", "config.py",
           "if not sep or not key:", "if not key:"),
    mutant("unreadable config raised as OSError", "config.py",
           'raise ConfigError(f"cannot read config {path}: {exc}") from None',
           "raise"),
    # the one order of addition of every squared distance
    mutant("8 to 15 coordinates summed in order", "core.py",
           "    if dim < 8:\n", "    if dim < 16:\n"),
    mutant("16 or more coordinates from the slab", "core.py",
           "if dim >= 16 or a.shape[-2]", "if a.shape[-2]"),
]


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def _mutated_text(spec):
    """The mutant's file, edited; the edit must match exactly once."""
    text = (ROOT / spec["path"]).read_text(encoding="utf-8")
    count = text.count(spec["old"])
    if count != 1:
        raise SystemExit(f"mutant {spec['name']!r}: the edit matches "
                         f"{count} times in {spec['path']}, not once")
    return text.replace(spec["old"], spec["new"])


class SuiteRunner:
    """Runs the fast suite on copies of the tree, each suite the leader
    of a process group of its own, until a signal asks it to stop."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = set()
        self._stopping = False

    def stop(self, signum, frame):
        """Kill every running suite's process group, then unwind as
        Ctrl-C does, so that each copy of the tree is removed."""
        with self._lock:
            self._stopping = True
            for process in self._running:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        raise KeyboardInterrupt

    def run_suite(self, spec=None):
        """(passed, seconds, first failing test or reason) of the fast
        suite on a copy of the tree, mutated by `spec` unless it is
        None."""
        with tempfile.TemporaryDirectory(prefix="dmmobench-mutant-") as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            if spec is not None:
                (tree / spec["path"]).write_text(_mutated_text(spec),
                                                 encoding="utf-8")
            env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                       PYTHONDONTWRITEBYTECODE="1")
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf",
                       "-p", "no:cacheprovider", "tests"]
            for test in SLOW_TESTS:
                command += ["--deselect", test]
            start = time.perf_counter()
            with self._lock:
                if self._stopping:
                    return False, 0.0, "stopped"
                process = subprocess.Popen(
                    command, cwd=tree, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True,
                    start_new_session=True)
                self._running.add(process)
            with process:
                try:
                    stdout = process.communicate(timeout=TIMEOUT_S)[0]
                except subprocess.TimeoutExpired:
                    os.killpg(process.pid, signal.SIGKILL)
                    return False, time.perf_counter() - start, "timeout"
                finally:
                    with self._lock:
                        self._running.discard(process)
            seconds = time.perf_counter() - start
            failed = [line.split(" ", 1)[1].split(" - ")[0]
                      for line in stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            reason = (failed[0] if failed
                      else (stdout.strip().splitlines() or [""])[-1])
            return process.returncode == 0, seconds, reason


def main(names):
    chosen = [spec for spec in MUTANTS if not names or spec["name"] in names]
    unknown = set(names) - {spec["name"] for spec in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    # a mistyped edit fails here, before any suite runs
    for spec in chosen:
        _mutated_text(spec)
    # each suite leads its own process group, out of reach of the
    # terminal's Ctrl-C, so both signals stop them through `stop`; the
    # suites start in pool threads only, so the handler, which runs in
    # this thread, never finds the runner's lock held by the thread it
    # interrupts
    runner = SuiteRunner()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, runner.stop)
    killed = survived = equivalent = 0
    with ThreadPoolExecutor(PARALLEL) as pool:
        passed, seconds, reason = pool.submit(runner.run_suite).result()
        if not passed:
            raise SystemExit(f"the unmutated suite fails ({reason}); "
                             "mutants would prove nothing")
        print(f"unmutated suite passes in {seconds:.0f} s", flush=True)
        for spec, (passed, seconds, reason) in zip(
                chosen, pool.map(runner.run_suite, chosen)):
            if spec["equivalent"]:
                equivalent += 1
                verdict = "equivalent, " + ("survived" if passed
                                            else "killed")
                reason = spec["equivalent"]
            elif passed:
                survived += 1
                verdict = "SURVIVED"
            else:
                killed += 1
                verdict = "killed"
            print(f"{verdict:20} {seconds:4.0f} s  {spec['name']}: {reason}",
                  flush=True)
    print(f"{killed} killed, {survived} survived, {equivalent} equivalent, "
          f"of {len(chosen)} mutants")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""dmmobench benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cone,table,offline} --seed N \
        --seconds S --trace {0,1}

The seed picks the problem seeds, so the same seed gives the same
inputs.  A run repeats rounds for at least `--seconds`: each round sets
up afresh (importing dmmobench, configuration, input generation), timed
on its own, and then executes the workload once on that set-up's
inputs.  Every execution checks its artifacts against stored sha256
digests (default seed) or against the run's first execution (any
seed), plus the workload's own cross-checks.

`--trace 0` prints the end-to-end metrics.  Times per execution are
means over the timed window, not medians: on a shared host whose speed
drifts between slow and fast spells lasting tens of seconds, the mean
spread less from run to run than the median in every set of runs
measured.  `setup_s` is the median of the rounds' set-ups; spreading
set-ups over the window, rather than doing them all first, keeps one
spell from deciding it.
`--trace 1` alternates untraced and traced executions and prints the
per-layer metrics, medians over the traced ones, plus the tracing
overhead; its spans are written to `.perfbench_out/` when the run ends.

Metric names and units come from BENCHMARK.json; what each one means
and which end-to-end metric it should move is in perfbench/mapping.json.
The last line of standard output is the result as one JSON object.
"""

import os

# OpenBLAS would start up to one thread per core; the benchmark's own
# processes and its pool workers run single-threaded BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Fewest rounds in an untraced run, however long each takes.
MIN_ROUNDS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def forget_package():
    """Drop any imported dmmobench and free it, so the next import is fresh.

    Module objects sit in reference cycles; collecting them here, outside
    the timed set-up, keeps the process's peak memory independent of how
    many set-ups a run makes.
    """
    for name in [m for m in sys.modules
                 if m == "dmmobench" or m.startswith("dmmobench.")]:
        del sys.modules[name]
    gc.collect()


def load_package():
    """Import dmmobench from the checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "dmmobench" / "__init__.py").is_file():
        raise BenchError(f"no dmmobench sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    dmm = importlib.import_module("dmmobench")
    importlib.import_module("dmmobench.cli")
    if Path(dmm.__file__).resolve().parent != src / "dmmobench":
        raise BenchError(f"imported dmmobench from {dmm.__file__}")
    return dmm


def setup(workload, seed, work_dir):
    """Import, configure and generate inputs; returns (seconds, dmm, inputs).

    `work_dir` is emptied first, outside the timer.
    """
    forget_package()
    fresh_dir(work_dir)
    start = time.perf_counter()
    dmm = load_package()
    inputs = workload.prepare(dmm, seed, str(work_dir),
                              workloads.SIZES[workload.name])
    return time.perf_counter() - start, dmm, inputs


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn, *args):
    """(result, wall seconds, CPU seconds of this process and its children)."""
    cpu = _cpu_seconds()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, _cpu_seconds() - cpu


def peak_rss_mib():
    """Peak resident set of this process plus the largest peak among its
    reaped children.

    A forked pool worker's peak includes the parent pages it touched, so
    on table part of the parent's memory counts twice, and a second
    concurrent worker not at all.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return str(path)


def dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path))


class Checker:
    """Counts attempted and failed runs and output checks."""

    def __init__(self, stored=None):
        self.reference = dict(stored or {})
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_digests = None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def execution(self, outcome):
        self.attempted += outcome.runs
        self.failed += outcome.failed_runs
        if outcome.failed_runs:
            self.failures.append(f"{outcome.failed_runs} failed runs")
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in outcome.outputs.items()}
        if self.first_digests is None:
            self.first_digests = digests
        for name, digest in digests.items():
            self.check(f"{name} digest",
                       digest == self.reference.setdefault(name, digest))
        for name, ok in outcome.checks.items():
            self.check(name, ok)


def stored_digests(workload, seed):
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


def measure(name, seed, seconds, digests=None):
    """Untraced run: end-to-end metrics plus the checker."""
    workload = workloads.WORKLOADS[name]
    work_dir = OUT / f"{name}-{os.getpid()}"
    out_dir = work_dir / "out"
    checker = Checker(digests)
    jobs = nproc() if workload.pooled else 1
    setups, walls, cpus = [], [], []
    try:
        start = time.perf_counter()
        while (len(walls) < MIN_ROUNDS
               or time.perf_counter() - start < seconds):
            # drop the previous round's package and outputs first
            dmm = inputs = outcome = None
            took, dmm, inputs = setup(workload, seed, work_dir)
            setups.append(took)
            checker.check("set-up runs",
                          inputs.extra.get("snapshot_failures", 0) == 0)
            outcome, wall, cpu = timed(workload.execute, dmm, inputs,
                                       fresh_dir(out_dir), jobs)
            checker.execution(outcome)
            walls.append(wall)
            cpus.append(cpu)
        if jobs > 1:
            # the table must not depend on how runs are spread over workers
            checker.execution(workload.execute(dmm, inputs,
                                               fresh_dir(out_dir), 1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "evals_per_s": inputs.evaluations / statistics.fmean(walls),
        "peak_rss_mib": peak_rss_mib(),
        "pass_ratio": 1.0 - checker.failed / checker.attempted,
    }
    return metrics, checker, walls


def measure_traced(name, seed, seconds, digests=None):
    """Traced run: per-layer metrics, medians over traced executions."""
    workload = workloads.WORKLOADS[name]
    work_dir = OUT / f"{name}-{os.getpid()}"
    checker = Checker(digests)
    jobs = nproc() if workload.pooled else 1
    rounds = []
    try:
        _, dmm, inputs = setup(workload, seed, work_dir)
        checker.check("set-up runs",
                      inputs.extra.get("snapshot_failures", 0) == 0)
        out_dir = work_dir / "out"
        start = time.perf_counter()
        elapsed = last_round = 0.0
        # rounds are long on table: stop before one would overrun
        while not rounds or elapsed + last_round <= seconds:
            round_start = time.perf_counter()
            outcome, wall, _ = timed(workload.execute, dmm, inputs,
                                     fresh_dir(out_dir), jobs)
            checker.execution(outcome)
            serial_wall = wall
            if jobs > 1:
                # tracing keeps every span in this process, so the traced
                # execution is serial; its overhead is taken against a
                # serial untraced one
                outcome, serial_wall, _ = timed(workload.execute, dmm, inputs,
                                                fresh_dir(out_dir), 1)
                checker.execution(outcome)
            tracer = spans.Tracer()
            tracer.install(dmm)
            try:
                outcome, traced_wall, _ = timed(
                    tracer.root, workload.execute, dmm, inputs,
                    fresh_dir(out_dir), 1)
            finally:
                tracer.restore()
            checker.execution(outcome)
            layers = spans.layer_metrics(tracer)
            run_seconds = float(layers.pop("reporting.run_s_sum"))
            layers["reporting.artifact_bytes"] = dir_bytes(out_dir)
            layers["reporting.pool_efficiency"] = run_seconds / (jobs * wall)
            layers["trace.wall_s"] = traced_wall
            layers["trace.overhead_s"] = traced_wall - serial_wall
            layers["trace.overhead_share"] = (
                (traced_wall - serial_wall) / serial_wall)
            rounds.append(layers)
            last_round = time.perf_counter() - round_start
            elapsed = time.perf_counter() - start
        tracer.save(OUT / f"spans_{name}_seed{seed}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {key: _median([r[key] for r in rounds]) for key in rounds[0]}
    return metrics, checker, [r["trace.wall_s"] for r in rounds]


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def nproc():
    return len(os.sched_getaffinity(0))


def _blas():
    """(OpenBLAS config string, its thread count), when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                    threads = getattr(
                        lib, f"{prefix}openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    return None, None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_record(workload, seed, trace):
    openblas, blas_threads = _blas()
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": nproc(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "blas_threads": blas_threads,
            "git_commit": _git_commit()}


def metric_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result(metrics, checker, trace):
    """The benchmark's final JSON object."""
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    digests = stored_digests(args.workload, args.seed)
    run = measure_traced if args.trace else measure
    try:
        metrics, checker, walls = run(
            args.workload, args.seed, args.seconds, digests)
        final = result(metrics, checker, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = environment_record(args.workload, args.seed, args.trace)
    record.update(walls=walls, failures=checker.failures,
                  digests=checker.first_digests)
    print(json.dumps({"environment": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span tracing of dmmobench for the benchmark's traced runs.

`Tracer.install` replaces the public entry points of each dmmobench
module with wrappers that record one span per call: its name, start,
end, and the span that was open when it began.  The package's source
is untouched, and `Tracer.restore` puts every original back, so the
untraced executions of a run time the plain code.

Kernel work counts are computed from each call's arguments, never
measured; byte counts follow the formulas in `perfbench/mapping.json`
and are labelled `bytes_computed`.
"""

import time
import weakref

import numpy as np

ROOT_SPAN = "bench.workload"

#: Terms of the Weierstrass series evaluated per coordinate (k = 0..20).
WEIERSTRASS_TERMS = 21

#: Bytes of one binary64 value.
F8 = 8

_RNG_METHODS = ("uniform", "uniform_vector", "randint", "normal",
                "normal_vector", "permutation", "index_permutation")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = [-1]
        self._saved = []
        self.counters = dict.fromkeys(
            ("df.points", "df.peak_evals", "df.bytes_computed",
             "composition.points", "composition.component_evals",
             "composition.bytes_computed", "composition.weierstrass.cos_terms",
             "controller.charged_evals", "controller.straddles"), 0)
        self.batches = []
        self.env_seconds = []
        self._env_began = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """`fn` recording a span `name` per call; `count(*args)` runs first."""
        sid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            index = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def root(self, fn, *args, **kwargs):
        """Call `fn` inside the root span of one workload execution."""
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self, dmm):
        """Wrap the entry points of every layer of the imported package."""
        core, df, comp = dmm.core, dmm.df, dmm.composition
        controller, reporting = dmm.controller, dmm.reporting

        for method in _RNG_METHODS:
            self._patch(core.RngStream, method, "core.rng")
        self._patch(df.DFLandscape, "evaluate_many", "df.evaluate_many",
                    self._count_df)
        self._patch(comp.CompositionLandscape, "evaluate_many",
                    "composition.evaluate_many", self._count_composition)
        originals = dict(comp.BASIC_FUNCTIONS)
        self._saved.append((comp.BASIC_FUNCTIONS, None, originals))
        for kind, fn in originals.items():
            comp.BASIC_FUNCTIONS[kind] = self.wrap(
                f"composition.{kind}", fn,
                self._count_weierstrass if kind == "weierstrass" else None)

        self._patch(controller, "advance_environment", "dynamics.advance")
        self._patch(dmm.dynamics, "enforce_min_distance", "dynamics.repair")

        self._install_evaluate_many(controller.ProblemInstance)
        self._patch(controller.ProblemInstance, "report_population",
                    "controller.report")
        self._patch(controller, "format_environment", "controller.format")
        self._patch(reporting, "dump_environments_text", "controller.dump")

        self._patch(dmm.optimizers.CrowdingDE, "optimize",
                    "optimizers.optimize")

        self._patch(dmm.metrics, "count_npf", "metrics.count_npf")
        self._patch(reporting, "count_npf", "metrics.count_npf")
        self._patch(reporting, "score_run", "metrics.score_run")

        self._patch(reporting, "execute_run", "reporting.run")
        self._patch(reporting, "run_benchmark", "reporting.run_benchmark")
        self._patch(dmm.cli, "run_benchmark", "reporting.run_benchmark")
        self._patch(reporting.ResultsTable, "render", "reporting.render")
        self._patch(reporting.ResultsTable, "to_csv", "reporting.render")
        for fn in ("render_records_csv", "render_snapshots"):
            self._patch(reporting, fn, "reporting.render")
        self._patch(reporting, "parse_snapshots", "reporting.parse")
        self._patch(dmm.cli, "rescore_snapshots", "reporting.rescore")
        self._patch(dmm.cli, "export_landscape_grid", "reporting.grid")

    def restore(self):
        """Put back every original the wrappers replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)

    def _install_evaluate_many(self, cls):
        # Charged evaluations, straddles and seal-to-seal times need the
        # instance's state on both sides of the call.
        traced = self.wrap("controller.evaluate_many", cls.evaluate_many)
        counters, batches = self.counters, self.batches
        began, env_seconds = self._env_began, self.env_seconds

        def evaluate_many(instance, xs):
            before_t = instance.t
            before_used = instance.evaluations_used_in_env
            before_frozen = instance.frozen
            if instance not in began:
                began[instance] = time.perf_counter()
            try:
                return traced(instance, xs)
            finally:
                advanced = instance.t - before_t
                seals = advanced + (instance.frozen and not before_frozen)
                batches.append(len(xs))
                counters["controller.charged_evals"] += (
                    advanced * instance.budget
                    + instance.evaluations_used_in_env - before_used)
                counters["controller.straddles"] += advanced > 0
                if seals:
                    now = time.perf_counter()
                    # a batch larger than the budget seals several
                    # environments at once; the inner ones took no time
                    env_seconds.append(now - began[instance])
                    env_seconds.extend([0.0] * (seals - 1))
                    began[instance] = now

        self._saved.append((cls, "evaluate_many", cls.evaluate_many))
        cls.evaluate_many = evaluate_many

    # -- computed kernel counts --------------------------------------------

    def _count_df(self, landscape, xs):
        rows, dim, peaks = len(xs), landscape.dim, landscape.n_peaks
        self.counters["df.points"] += rows
        self.counters["df.peak_evals"] += rows * peaks
        # read the batch and the peak table, write the rows x peaks x dim
        # difference tensor, write the fitness vector
        self.counters["df.bytes_computed"] += F8 * (
            rows * dim + peaks * (dim + 2) + rows * peaks * dim + rows)

    def _count_composition(self, landscape, xs):
        rows, dim, comps = len(xs), landscape.dim, landscape.n_components
        self.counters["composition.points"] += rows
        self.counters["composition.component_evals"] += rows * comps
        # read the batch, shifts and rotations; write the difference,
        # scaled and rotated tensors, the normalized values, the fitness
        self.counters["composition.bytes_computed"] += F8 * (
            rows * dim + comps * dim + comps * dim * dim
            + 3 * rows * comps * dim + rows * comps + rows)

    def _count_weierstrass(self, z):
        self.counters["composition.weierstrass.cos_terms"] += (
            np.size(z) * WEIERSTRASS_TERMS)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as arrays: name ids, start, end, parent index (-1: none)."""
        return (np.asarray(self.span_name, dtype=np.int64),
                np.asarray(self.span_start, dtype=float),
                np.asarray(self.span_end, dtype=float),
                np.asarray(self.span_parent, dtype=np.int64))

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        _, start, end, parent = self.arrays()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(duration))
        return duration - covered

    def save(self, path):
        names, start, end, parent = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=names, start=start,
                 end=end, parent=parent)


def layer_metrics(tracer):
    """Per-layer metrics of one traced execution, keyed by metric name."""
    names, start, end, parent = tracer.arrays()
    duration = end - start
    own = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}

    def pick(name):
        i = index.get(name)
        return names == i if i is not None else np.zeros(len(names), bool)

    def calls(name):
        return int(pick(name).sum())

    def self_s(*span_names):
        return float(sum(own[pick(name)].sum() for name in span_names))

    def percentile(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    runs = duration[pick("reporting.run")]
    out = {
        "core.rng_calls": calls("core.rng"),
        "core.rng_self_s": self_s("core.rng"),
        "df.calls": calls("df.evaluate_many"),
        "df.self_s": self_s("df.evaluate_many"),
        "composition.calls": calls("composition.evaluate_many"),
        "composition.self_s": self_s("composition.evaluate_many"),
        "dynamics.advance_calls": calls("dynamics.advance"),
        "dynamics.self_s": self_s("dynamics.advance"),
        "dynamics.repair_calls": calls("dynamics.repair"),
        "dynamics.repair_self_s": self_s("dynamics.repair"),
        "controller.calls": calls("controller.evaluate_many"),
        "controller.batch_p50": percentile(tracer.batches, 50),
        "controller.batch_max": max(tracer.batches, default=0),
        "controller.self_s": self_s("controller.evaluate_many",
                                    "controller.report", "controller.format",
                                    "controller.dump"),
        "controller.report_calls": calls("controller.report"),
        "controller.report_self_s": self_s("controller.report"),
        "controller.env_ms_p50": 1e3 * percentile(tracer.env_seconds, 50),
        "controller.env_ms_p90": 1e3 * percentile(tracer.env_seconds, 90),
        "controller.format_self_s": self_s("controller.format"),
        "optimizers.self_s": self_s("optimizers.optimize"),
        "optimizers.generations": int(
            (pick("controller.report")
             & np.isin(parent, np.flatnonzero(pick("optimizers.optimize")))
             ).sum()),
        "metrics.count_npf.calls": calls("metrics.count_npf"),
        "metrics.count_npf.self_s": self_s("metrics.count_npf"),
        "metrics.score_run.self_s": self_s("metrics.score_run"),
        "reporting.render_self_s": self_s("reporting.render"),
        "reporting.parse_self_s": self_s("reporting.parse"),
        "reporting.grid_self_s": self_s("reporting.grid"),
        "reporting.run_s_p50": percentile(runs, 50),
        "reporting.run_s_max": float(runs.max()) if len(runs) else 0.0,
        "reporting.run_s_sum": float(runs.sum()),
        "trace.spans": len(names),
    }
    for kind in ("sphere", "griewank", "rastrigin", "weierstrass",
                 "expanded_griewank_rosenbrock"):
        out[f"composition.{kind}.calls"] = calls(f"composition.{kind}")
        out[f"composition.{kind}.self_s"] = self_s(f"composition.{kind}")
    out.update(tracer.counters)
    return out


def check_nesting(tracer, rel=1e-9):
    """Problems with the recorded span tree, as a list of messages.

    Every child must lie inside its parent, no span's children may
    cover more than the span itself, and the self times of each root's
    subtree must add up to the root's duration.
    """
    _, start, end, parent = tracer.arrays()
    own = tracer.self_times()
    problems = []
    child = np.flatnonzero(parent >= 0)
    outside = (start[child] < start[parent[child]]) | (
        end[child] > end[parent[child]])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans end outside their parent")
    if (own < -rel * np.abs(end - start).max(initial=1.0)).any():
        problems.append("child spans cover more than their parent")
    root_of = parent.copy()
    roots = np.flatnonzero(parent < 0)
    root_of[roots] = roots
    # parents always precede their children, so one forward pass
    # resolves every span to its root
    for i in child:
        root_of[i] = root_of[parent[i]]
    subtree = np.bincount(root_of, weights=own, minlength=len(own))[roots]
    total = (end - start)[roots]
    if not np.allclose(subtree, total, rtol=rel, atol=1e-12):
        problems.append("self times do not add up to the root spans")
    return problems

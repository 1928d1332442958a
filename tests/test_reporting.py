import os
from concurrent.futures import Future

import numpy as np
import pytest

from dmmobench.config import BenchmarkSettings
from dmmobench.controller import PopulationSnapshot, create_problem
from dmmobench.core import PROBLEM_INDICES
from dmmobench.optimizers import OPTIMIZERS
from dmmobench import reporting
from dmmobench.reporting import (
    ResultsTable,
    _cost_rank,
    execute_run,
    export_landscape_grid,
    parse_snapshots,
    render_snapshots,
    rescore_snapshots,
    run_benchmark,
)


#: Column keys of two accuracy levels.
KEYS = ["1e-03", "1e-04"]


def cells(pr, best, worst):
    return [(pr, best, worst)] * len(KEYS)


def test_table_rejects_inconsistent_rows():
    table = ResultsTable(KEYS)
    table.add_row("P1", "G1", cells(0.5, 0.75, 0.25))
    with pytest.raises(ValueError):
        table.add_row("P2", "G1", cells(0.8, 0.75, 0.25))
    with pytest.raises(ValueError):
        table.add_row("P2", "G1", cells(0.2, 0.75, 0.25))


def test_table_renders_six_decimals():
    table = ResultsTable(KEYS)
    table.add_row("P1", "G1", cells(1 / 3, 0.5, 0.25))
    text = table.render()
    assert "0.333333" in text
    assert text.splitlines()[0].startswith("problem")
    csv = table.to_csv()
    assert csv.splitlines()[1] == "P1,G1,0.333333,0.500000,0.250000,0.333333,0.500000,0.250000"


def test_every_accuracy_has_its_own_column(tmp_path):
    settings = BenchmarkSettings(evals_per_dim=4, environments=1,
                                 fitness_accuracy_levels=(1e-3, 1.2e-3,
                                                          2.5e-6))
    run_benchmark(["P1"], [1], settings=settings, out_dir=str(tmp_path))
    keys = ["1e-03", "1.2e-03", "2.5e-06"]
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0].split(",") == ["problem", "group"] + [
        f"{name}_{key}" for key in keys for name in ("pr", "best", "worst")]
    records = (tmp_path / "records_P1.csv").read_text().splitlines()
    assert records[0].split(",") == ["seed", "env", "peaks"] + [
        f"npf_{key}" for key in keys]


def test_snapshot_text_round_trip():
    rng = np.random.default_rng(2)
    snapshots = [
        PopulationSnapshot(1, rng.uniform(-5, 5, (3, 5)), rng.uniform(0, 75, 3)),
        PopulationSnapshot(2, np.empty((0, 5)), np.empty(0)),
        PopulationSnapshot(3, rng.uniform(-5, 5, (1, 5)), rng.uniform(0, 75, 1)),
    ]
    text = render_snapshots("P9", 12, snapshots)
    problem, seed, parsed = parse_snapshots(text, 3)
    assert (problem, seed) == ("P9", 12)
    assert [s.environment for s in parsed] == [1, 2, 3]
    for a, b in zip(snapshots, parsed):
        assert np.array_equal(a.individuals, b.individuals)
        assert np.array_equal(a.fitness, b.fitness)


def test_execute_run_scores_every_environment():
    settings = BenchmarkSettings(evals_per_dim=40, environments=3)
    result = execute_run("P3", 2, settings=settings)
    assert result.peaks == [4, 4, 4]
    # one row per environment, one column per accuracy level
    assert result.npf.shape == (3, 3)
    assert result.snapshots is None
    kept = execute_run("P3", 2, settings=settings, keep_snapshots=True)
    assert len(kept.snapshots) == 3


class EarlyReturn:
    """Reports each environment's exact optima, spends its budget, and
    returns after the next of `sealed` environment counts, before the
    run froze."""

    name = "early"
    sealed = iter([])

    def __init__(self, config):
        pass

    def optimize(self, instance, rng):
        for env in range(1, next(self.sealed) + 1):
            instance.report_population(instance.ground_truth(env)[0])
            instance.evaluate_many(np.zeros(
                (instance.remaining_budget(), instance.spec.dimension)))
        return instance.snapshots


def test_a_run_that_returns_before_it_froze_fails(monkeypatch):
    monkeypatch.setitem(OPTIMIZERS, "early", EarlyReturn)
    monkeypatch.setattr(EarlyReturn, "sealed", iter([1, 1, 2]))
    settings = BenchmarkSettings(evals_per_dim=10, environments=5)
    with pytest.raises(RuntimeError, match="1 of 5 environments sealed"):
        execute_run("P1", 1, "early", settings)
    # seeds that sealed different numbers of environments
    report = run_benchmark(["P1"], [1, 2], "early", settings)
    assert [f[:2] for f in report.failures] == [("P1", 1), ("P1", 2)]
    assert "2 of 5 environments sealed" in report.failures[1][2]
    assert report.table.rows == [] and report.records == {}


def execute_unless_seed_3(problem, seed, *rest):
    """`execute_run`, except that every run of seed 3 fails; defined at
    module level, so a pool can send it to its workers."""
    if seed == 3:
        raise RuntimeError("seed 3 fails")
    return execute_run(problem, seed, *rest)


def test_failures_do_not_poison_the_table(monkeypatch, tmp_path):
    monkeypatch.setattr(reporting, "execute_run", execute_unless_seed_3)
    settings = BenchmarkSettings(evals_per_dim=40, environments=2)
    report = run_benchmark(["P1"], [1, 3, 2], settings=settings,
                           out_dir=str(tmp_path))
    assert len(report.failures) == 1
    assert report.failures[0][:2] == ("P1", 3)
    assert report.records["P1"].npf.shape == (3, 2, 2)
    assert len(report.table.rows) == 1


@pytest.mark.parametrize("problems, seeds, named", [
    (["P1"], [1, 1, 2, 3], "seed 1 "),
    (["P1", "P2", "P1"], [1], "problem 'P1' "),
], ids=["seed", "problem"])
def test_repeated_problem_or_seed_is_refused_before_any_run(
        monkeypatch, tmp_path, problems, seeds, named):
    # run twice, the repeat would be weighted twice in the table
    monkeypatch.setattr(reporting, "execute_run",
                        lambda *task: pytest.fail("a run started"))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=named):
        run_benchmark(problems, seeds, out_dir=str(out))
    assert not out.exists()


@pytest.mark.parametrize("problems, seeds, optimizer, jobs, named", [
    (["P1", "P99"], [1], "baseline", 1, "'P99'"),
    (["P1"], [1, -1], "baseline", 1, "seed -1 "),
    (["P1"], [1, 1.5], "baseline", 1, "seed 1.5 "),
    (["P1"], [1], "nope", 1, "'nope'"),
    (["P1"], [True], "baseline", 1, "seed True "),
    (["P1", "P2"], [1], "baseline", 1.5, "jobs 1.5 "),
    (["P1", "P2"], [1], "baseline", True, "jobs True "),
], ids=["unknown problem", "negative seed", "fractional seed",
        "unknown optimizer", "bool seed", "fractional jobs", "bool jobs"])
def test_a_request_that_cannot_run_is_refused_before_any_run(
        monkeypatch, tmp_path, problems, seeds, optimizer, jobs, named):
    # each would otherwise fail as a run of its own, after the others ran
    monkeypatch.setattr(reporting, "execute_run",
                        lambda *task: pytest.fail("a run started"))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=named):
        run_benchmark(problems, seeds, optimizer, out_dir=str(out),
                      jobs=jobs)
    assert not out.exists()


def test_rescore_names_a_snapshot_file_without_environments(tmp_path):
    path = tmp_path / "snapshots_P1_seed1.txt"
    path.write_text("problem P1\nseed 1\n")
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt"):
        rescore_snapshots(str(tmp_path))


def test_pool_output_and_failures_match_serial(monkeypatch, tmp_path):
    # the pool starts P21 and P5 before P17 and P1; nothing may show it
    monkeypatch.setattr(reporting, "execute_run", execute_unless_seed_3)
    settings = BenchmarkSettings(evals_per_dim=20, environments=2)
    problems, seeds = ["P1", "P5", "P17", "P21"], [1, 3]
    reports = {}
    for jobs in (1, 2):
        reports[jobs] = run_benchmark(
            problems, seeds, settings=settings, jobs=jobs,
            out_dir=str(tmp_path / str(jobs)), save_snapshots=True)
    assert reports[1].failures == reports[2].failures
    assert [f[:2] for f in reports[2].failures] == [(p, 3) for p in problems]
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "2"))
    assert len(names) == 2 + 2 * len(problems)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() \
            == (tmp_path / "2" / name).read_bytes()


def test_pool_has_at_most_one_worker_per_run(monkeypatch):
    worker_counts = []

    class InlinePool:
        """Records the worker count asked for and runs each task at
        submit, in this process."""

        def __init__(self, max_workers):
            worker_counts.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(reporting, "ProcessPoolExecutor", InlinePool)
    settings = BenchmarkSettings(evals_per_dim=20, environments=2)
    report = run_benchmark(["P1"], [1, 2], settings=settings, jobs=5000)
    assert worker_counts == [2]
    assert report.failures == []
    assert report.records["P1"].npf.shape == (3, 2, 2)


def test_cost_rank_puts_composition_and_higher_dimensions_first():
    ranked = sorted(PROBLEM_INDICES, key=_cost_rank)
    assert ranked[:4] == ["P21", "P22", "P23", "P24"]
    assert ranked[-8:] == ["P17", "P18", "P19", "P20", "P1", "P2", "P3", "P4"]


def write_snapshot_file(directory, environments, envs):
    lines = ["problem P1", "seed 1", f"environments {environments}"]
    for env in envs:
        lines += [f"env {env}", "individual 0 0 0 0 0 fitness 0"]
    path = directory / "snapshots_P1_seed1.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


BAD_ENVIRONMENTS = [
    (3, [0, 1], "env 0 outside 1..3"),
    (3, [1, 5], "env 5 outside 1..3"),
    (3, [1, 2, 2], "env 2 recorded twice"),
    (4, [1, 2], "recorded under environments 4, not 3"),
    (3, [1, 3], "2 of 3 environments recorded"),
    (2, [1, 2, 3], "recorded under environments 2, not 3"),
]


@pytest.mark.parametrize("environments, envs, message", BAD_ENVIRONMENTS)
def test_rescore_rejects_environments_the_run_never_had(
        tmp_path, environments, envs, message):
    write_snapshot_file(tmp_path, environments, envs)
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt") as info:
        rescore_snapshots(str(tmp_path), settings)
    assert message in str(info.value)


#: Lines that break a P1 (D=5) snapshot file when written as its sixth
#: line, after the header, `env 1` and one individual.
MALFORMED_LINES = [
    "env",
    "env 2 3",
    "seed",
    "individual 0 0 0 0 fitness 0",
    "individual 0 0 0 0 0 0 0 fitness 0",
    "individual 0 0 0 0 0 0",
    "individual 0 0 0 0 0 score 0",
    "individual 0 0 0 0 x fitness 0",
    "individual nan 99 0 0 0 fitness inf",
    "problem P2",
    "seed 9",
    "environments 3",
    # lines whose first word the format does not know
    "individul 0 0 0 0 0 fitness 75",
    "Individual 0 0 0 0 0 fitness 0",
    "fitness 0",
    "foo",
]


@pytest.mark.parametrize("line", MALFORMED_LINES)
def test_rescore_names_a_malformed_line(tmp_path, line):
    path = write_snapshot_file(tmp_path, 3, [1])
    path.write_text(path.read_text() + line + "\n")
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt") as info:
        rescore_snapshots(str(tmp_path), settings)
    assert f"line 6: malformed line {line!r}" in str(info.value)


@pytest.mark.parametrize("line", ["problem P1", "seed 1", "environments 3"])
def test_rescore_names_a_repeated_header(tmp_path, line):
    path = write_snapshot_file(tmp_path, 3, [1, 2, 3])
    path.write_text(path.read_text().replace(
        "environments 3\n", f"environments 3\n{line}\n"))
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt") as info:
        rescore_snapshots(str(tmp_path), settings)
    assert f"line 4: malformed line {line!r}" in str(info.value)


def test_rescore_names_a_negative_seed(tmp_path):
    path = write_snapshot_file(tmp_path, 3, [1, 2, 3])
    path.write_text(path.read_text().replace("seed 1", "seed -1"))
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt") as info:
        rescore_snapshots(str(tmp_path), settings)
    assert "line 2: seed must be >= 0, got -1" in str(info.value)


def test_rescore_names_an_unknown_problem_at_its_line(tmp_path):
    path = write_snapshot_file(tmp_path, 3, [1, 2, 3])
    path.write_text(path.read_text().replace("problem P1", "problem P99"))
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt") as info:
        rescore_snapshots(str(tmp_path), settings)
    assert ("line 1: unknown problem index 'P99'; expected P1..P24"
            in str(info.value))


def test_rescore_scores_environments_in_order_whatever_the_file_order(
        tmp_path):
    # environment 1's exact optima, recorded between environments 2 and 3
    settings = BenchmarkSettings(evals_per_dim=20, environments=3)
    positions, values = create_problem("P1", 1, settings).ground_truth(1)
    empty = (np.empty((0, 5)), np.empty(0))
    snapshots = [PopulationSnapshot(2, *empty),
                 PopulationSnapshot(1, positions, values),
                 PopulationSnapshot(3, *empty)]
    (tmp_path / "snapshots_P1_seed1.txt").write_text(
        render_snapshots("P1", 1, snapshots))
    report = rescore_snapshots(str(tmp_path), settings)
    assert report.records["P1"].npf.tolist() == [[[4, 0, 0]]] * 3


def test_parse_rejects_an_individual_before_any_environment():
    text = "problem P1\nseed 1\nindividual 0 0 0 0 0 fitness 0\nenv 1\n"
    with pytest.raises(ValueError, match="line 3"):
        parse_snapshots(text, 5)


#: Individuals that `report_population` refuses, or with a fitness that
#: is not finite.
IMPOSSIBLE_INDIVIDUALS = [
    "individual 0 0 5.000000000000001 0 0 fitness 0",
    "individual 0 0 0 0 -inf fitness 0",
    "individual 0 nan 0 0 0 fitness 0",
    "individual 0 0 0 0 0 fitness nan",
    "individual 0 0 0 0 0 fitness -inf",
]


@pytest.mark.parametrize("line", IMPOSSIBLE_INDIVIDUALS)
def test_parse_names_an_impossible_individual(line):
    good = "individual 5 -5 0 0 0 fitness 75"
    text = "\n".join(["problem P1", "seed 1", "environments 3", "env 2",
                      good, "env 1", good, "", good, line, good,
                      "env 3"]) + "\n"
    with pytest.raises(ValueError, match=f"line 10: malformed line {line!r}"):
        parse_snapshots(text, 3)
    _, _, snapshots = parse_snapshots(text.replace(line, good), 3)
    assert [len(s) for s in snapshots] == [4, 1, 0]


@pytest.mark.parametrize("argument, value", [
    ("env", 1.5), ("resolution", 2.5), ("dim_override", 2.5)])
def test_grid_refuses_an_argument_that_is_not_an_integer(argument, value):
    # env 1.5 would match no environment and sample the last one
    with pytest.raises(ValueError, match=f"{argument} {value} "):
        export_landscape_grid("P1", 1, settings=BenchmarkSettings(
            environments=3), **{argument: value})

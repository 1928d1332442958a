import numpy as np
import pytest

from dmmobench.config import BenchmarkSettings
from dmmobench.controller import PopulationSnapshot
from dmmobench.metrics import AccuracyLevel
from dmmobench.reporting import (
    ResultsTable,
    execute_run,
    parse_snapshots,
    render_snapshots,
    rescore_snapshots,
    run_benchmark,
)


LEVELS = (AccuracyLevel(1e-3), AccuracyLevel(1e-4))


def cells(pr, best, worst):
    return {level: (pr, best, worst) for level in LEVELS}


def test_table_rejects_inconsistent_rows():
    table = ResultsTable(LEVELS)
    table.add_row("P1", "G1", cells(0.5, 0.75, 0.25))
    with pytest.raises(ValueError):
        table.add_row("P2", "G1", cells(0.8, 0.75, 0.25))
    with pytest.raises(ValueError):
        table.add_row("P2", "G1", cells(0.2, 0.75, 0.25))


def test_table_renders_six_decimals():
    table = ResultsTable(LEVELS)
    table.add_row("P1", "G1", cells(1 / 3, 0.5, 0.25))
    text = table.render()
    assert "0.333333" in text
    assert text.splitlines()[0].startswith("problem")
    csv = table.to_csv()
    assert csv.splitlines()[1] == "P1,G1,0.333333,0.500000,0.250000,0.333333,0.500000,0.250000"


def test_snapshot_text_round_trip():
    rng = np.random.default_rng(2)
    snapshots = [
        PopulationSnapshot(1, rng.uniform(-5, 5, (3, 4)), rng.uniform(0, 75, 3)),
        PopulationSnapshot(2, np.empty((0, 4)), np.empty(0)),
        PopulationSnapshot(3, rng.uniform(-5, 5, (1, 4)), rng.uniform(0, 75, 1)),
    ]
    text = render_snapshots("P9", 12, snapshots, 3)
    problem, seed, parsed = parse_snapshots(text, 4)
    assert (problem, seed) == ("P9", 12)
    assert [s.environment for s in parsed] == [1, 2, 3]
    for a, b in zip(snapshots, parsed):
        assert np.array_equal(a.individuals, b.individuals)
        assert np.array_equal(a.fitness, b.fitness)


def test_execute_run_scores_every_environment():
    settings = BenchmarkSettings(evals_per_dim=40, environments=3)
    result = execute_run("P3", 2, settings=settings)
    assert result.problem == "P3"
    assert result.peaks == [4, 4, 4]
    for level, counts in result.counts.items():
        assert len(counts) == 3
    assert result.snapshots is None
    kept = execute_run("P3", 2, settings=settings, keep_snapshots=True)
    assert len(kept.snapshots) == 3


def test_failures_do_not_poison_the_table(tmp_path):
    settings = BenchmarkSettings(evals_per_dim=40, environments=2)
    report = run_benchmark(["P1"], [1, -3, 2], settings=settings,
                           out_dir=str(tmp_path))
    assert len(report.failures) == 1
    assert report.failures[0][:2] == ("P1", -3)
    assert report.records["P1"][LEVELS[0]].shape == (2, 2)
    assert len(report.table.rows) == 1


def test_rescore_names_a_snapshot_file_without_environments(tmp_path):
    path = tmp_path / "snapshots_P1_seed1.txt"
    path.write_text("problem P1\nseed 1\n")
    with pytest.raises(ValueError, match="snapshots_P1_seed1.txt"):
        rescore_snapshots(str(tmp_path))

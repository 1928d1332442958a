import numpy as np
import pytest

from dmmobench.config import BenchmarkSettings
from dmmobench.controller import (
    create_problem,
    dump_environments_text,
    iterate_environments,
)
from dmmobench.core import RunFrozenError


def tiny_settings(**overrides):
    base = dict(evals_per_dim=4, environments=3)
    base.update(overrides)
    return BenchmarkSettings(**base)


def test_budget_accounting_and_boundary():
    inst = create_problem("P1", 1, tiny_settings())
    assert inst.budget == 20
    point = np.zeros(5)
    first = inst.evaluate(point)
    for _ in range(18):
        assert inst.evaluate(point) == first
    assert inst.t == 1
    assert inst.remaining_budget() == 1
    # the 20th evaluation is scored under the old environment, and the
    # change happens immediately after it
    assert inst.evaluate(point) == first
    assert inst.t == 2
    assert inst.remaining_budget() == 20
    assert inst.evaluate(point) != first


def test_run_freezes_after_final_environment():
    inst = create_problem("P1", 1, tiny_settings())
    inst.evaluate_many(np.zeros((60, 5)))
    assert inst.frozen
    assert inst.t == 3
    assert len(inst.snapshots) == 3
    with pytest.raises(RunFrozenError):
        inst.evaluate(np.zeros(5))
    with pytest.raises(RunFrozenError):
        inst.evaluate_many(np.zeros((1, 5)))
    with pytest.raises(RunFrozenError):
        inst.report_population(np.zeros((1, 5)))


def test_batch_evaluation_matches_serial_across_boundaries():
    xs = np.random.default_rng(3).uniform(-5, 5, (50, 5))
    batch = create_problem("P2", 9, tiny_settings())
    serial = create_problem("P2", 9, tiny_settings())
    batched = batch.evaluate_many(xs)
    looped = np.array([serial.evaluate(x) for x in xs])
    assert np.array_equal(batched, looped)
    assert batch.t == serial.t == 3
    assert batch.remaining_budget() == serial.remaining_budget() == 10


def test_last_report_wins():
    inst = create_problem("P1", 1, tiny_settings())
    probe = create_problem("P1", 1, tiny_settings())
    early = np.full((3, 5), 0.5)
    late = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0, 0.0]])
    inst.report_population(early)
    inst.report_population(late)
    inst.evaluate_many(np.zeros((20, 5)))
    snap = inst.snapshots[0]
    assert snap.environment == 1
    assert np.array_equal(snap.individuals, late)
    assert np.array_equal(snap.fitness, probe.evaluate_many(late))


def test_unreported_environment_snapshots_empty():
    inst = create_problem("P1", 1, tiny_settings())
    inst.report_population(np.zeros((2, 5)))
    inst.evaluate_many(np.zeros((40, 5)))
    assert len(inst.snapshots) == 2
    assert len(inst.snapshots[0]) == 2
    # the report does not carry over into the next environment
    assert len(inst.snapshots[1]) == 0
    assert inst.snapshots[1].individuals.shape == (0, 5)
    assert inst.snapshots[1].fitness.shape == (0,)


def test_explicit_empty_report():
    for empty in ([], np.empty((0, 5))):
        inst = create_problem("P1", 1, tiny_settings())
        inst.report_population(np.zeros((2, 5)))
        inst.report_population(empty)
        inst.evaluate_many(np.zeros((20, 5)))
        assert inst.snapshots[0].individuals.shape == (0, 5)


def test_report_shape_checked():
    inst = create_problem("P1", 1, tiny_settings())
    kept = np.full((2, 5), 0.5)
    inst.report_population(kept)
    # an array with no elements is an empty report only as [] or (0, 5)
    for shape in [(2, 4), (3, 0), (0, 7), (0, 0), (0, 5, 1)]:
        with pytest.raises(ValueError):
            inst.report_population(np.zeros(shape))
    inst.evaluate_many(np.zeros((20, 5)))
    assert np.array_equal(inst.snapshots[0].individuals, kept)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 np.nextafter(5.0, 6.0),
                                 np.nextafter(-5.0, -6.0), -40.0])
def test_report_domain_checked_before_storing(bad):
    inst = create_problem("P1", 1, tiny_settings())
    kept = np.full((2, 5), 0.5)
    inst.report_population(kept)
    report = np.zeros((2, 5))
    report[1, 3] = bad
    with pytest.raises(ValueError):
        inst.report_population(report)
    with pytest.raises(ValueError):
        inst.report_population(report[1])
    inst.evaluate_many(np.zeros((20, 5)))
    # the rejected reports left the earlier one in force
    assert np.array_equal(inst.snapshots[0].individuals, kept)
    assert np.isfinite(inst.snapshots[0].fitness).all()

# Each case is (batch shape, value of the batch's last coordinate).
@pytest.mark.parametrize("shape", [
    ((5,), 0.0), ((2, 4), 0.0), ((1, 5, 1), 0.0),
    ((2, 5), np.nan), ((2, 5), np.inf), ((2, 5), -np.inf),
    ((2, 5), np.nextafter(5.0, 6.0)), ((2, 5), -40.0),
])
def test_batch_shape_checked_before_charging(shape):
    shape, last = shape
    batch = np.zeros(shape)
    batch.flat[-1] = last
    inst = create_problem("P1", 1, tiny_settings())
    with pytest.raises(ValueError):
        inst.evaluate_many(batch)
    assert inst.remaining_budget() == inst.budget


def test_single_point_domain_checked_before_charging():
    inst = create_problem("P1", 1, tiny_settings())
    with pytest.raises(ValueError):
        inst.evaluate([0.0, 0.0, np.nan, 0.0, 0.0])
    assert inst.remaining_budget() == inst.budget
    # the closed box itself is inside the domain
    inst.evaluate([-5.0, 5.0, 0.0, 0.0, 0.0])
    assert inst.remaining_budget() == inst.budget - 1


def test_ground_truth_archive():
    cone = create_problem("P2", 1, tiny_settings())
    positions, values = cone.ground_truth(1)
    assert len(positions) == 4
    assert (values == 75.0).all()
    blend = create_problem("P5", 1, tiny_settings())
    positions, values = blend.ground_truth(1)
    assert len(positions) == 6
    assert (values == 0.0).all()
    with pytest.raises(ValueError):
        cone.ground_truth(2)
    with pytest.raises(ValueError):
        cone.ground_truth(0)
    cone.evaluate_many(np.zeros((20, 5)))
    assert len(cone.ground_truth(2)[0]) == 4


def test_environment_index_visibility():
    # the index is always public: while the run is live, `t` is
    # 1 + evaluations charged // budget, which is what an optimizer
    # counting its own evaluations would work out
    inst = create_problem("P1", 1, tiny_settings())
    charged = 0
    for size in [7, 20, 13, 19]:
        inst.evaluate_many(np.zeros((size, 5)))
        charged += size
        assert inst.t == 1 + charged // inst.budget
    inst.evaluate(np.zeros(5))
    assert inst.frozen
    assert inst.t == inst.settings.environments


def test_same_seed_same_dynamics():
    a = dump_environments_text("P3", 7, tiny_settings())
    b = dump_environments_text("P3", 7, tiny_settings())
    assert a == b


def test_different_seeds_differ():
    a = dump_environments_text("P1", 1, tiny_settings())
    b = dump_environments_text("P1", 2, tiny_settings())
    assert a != b


@pytest.mark.parametrize("call, seed", [
    (lambda seed: create_problem("P1", seed), 1.5),
    (lambda seed: create_problem("P1", seed), True),
    (lambda seed: dump_environments_text("P1", seed, tiny_settings()), True),
], ids=["problem, fractional seed", "problem, bool seed", "dump, bool seed"])
def test_a_seed_that_is_not_an_integer_is_refused(call, seed):
    # a bool would otherwise build seed 1's problem, under its own name
    with pytest.raises(ValueError, match=f"seed {seed} "):
        call(seed)


def test_iterate_environments_spans_requested_range():
    seen = [env for env, _, _ in
            iterate_environments("P4", 2, tiny_settings())]
    assert seen == [1, 2, 3]


def test_dump_layout_for_cone_problems():
    text = dump_environments_text("P1", 1, tiny_settings(environments=2))
    lines = text.splitlines()
    assert lines[:6] == ["problem P1", "seed 1", "family F1", "mode C1",
                         "dim 5", "environments 2"]
    assert lines.count("env 1") == 1 and lines.count("env 2") == 1
    assert any(line.startswith("peak 0 global ") for line in lines)
    assert any(line.startswith("position 0 ") for line in lines)
    assert any(line.startswith("angle positions ") for line in lines)
    assert text.endswith("\n")


def test_dump_layout_for_composition_problems():
    text = dump_environments_text("P5", 1, tiny_settings(environments=1))
    lines = text.splitlines()
    assert any(line.startswith("component 0 griewank ") for line in lines)
    assert any(line.startswith("shift 0 ") for line in lines)
    assert any(line.startswith("rotation 5 ") for line in lines)
    assert any(line.startswith("g ") for line in lines)

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from dmmobench import metrics
from dmmobench.config import BenchmarkSettings
from dmmobench.controller import PopulationSnapshot, create_problem
from dmmobench.core import (first_violation, format_rows,
                            reflect_into_domain)
from dmmobench.dynamics import (ChangeState, ScalarChangeParams,
                                apply_scalar_change, rotation_from_pairs)
from dmmobench.metrics import count_npf


class OneShotRng:
    def __init__(self, draw, noise):
        self.draw = draw
        self.noise = noise

    def uniform_vector(self, low, high, size):
        return np.full(size, self.draw)

    def normal_vector(self, size):
        return np.full(size, self.noise)

    def randint(self, low, high):
        return low

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


@given(st.lists(finite, min_size=1, max_size=12))
def test_reflection_always_lands_in_the_domain(coords):
    folded = reflect_into_domain(np.array(coords))
    assert (folded >= -5.0).all() and (folded <= 5.0).all()
    # in-domain points are untouched, so folding is idempotent
    assert np.array_equal(reflect_into_domain(folded), folded)


@given(
    mode=st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]),
    value=st.floats(min_value=1.0, max_value=12.0),
    t=st.integers(min_value=1, max_value=60),
    draw=st.floats(min_value=-1.0, max_value=1.0),
    noise=st.floats(min_value=-6.0, max_value=6.0),
)
def test_scalar_changes_respect_their_bounds(mode, value, t, draw, noise):
    params = ScalarChangeParams(1.0, 12.0, 1.0, 0.0)
    state = ChangeState(mode, 8)
    state.t = t
    rng = OneShotRng(draw, noise)
    out = apply_scalar_change(state, value, params, rng)
    assert params.e_min <= out <= params.e_max


#: Any float64, or one from the range the formatter handles in numpy.
any_float = st.floats() | st.floats(min_value=-1e15, max_value=1e15)


@given(st.lists(st.lists(any_float, max_size=6), max_size=6))
def test_format_rows_prints_each_value_as_format_e16(rows):
    flat = [value for row in rows for value in row]
    assert format_rows(flat, [len(row) for row in rows]) == [
        " ".join(map("%.16e".__mod__, row)) for row in rows]


def lattice(step, reach):
    """Multiples of `step` (a power of two) up to `reach` steps from 0:
    exact values, whose gaps repeat exactly."""
    return st.integers(-reach, reach).map(lambda k: k * step)


@st.composite
def spacings(draw):
    """A point set, mostly on a half-unit lattice, and a spacing that is
    often exactly one of the set's gaps, or 0."""
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(1, 9))
    coords = draw(st.lists(lattice(0.5, 6) | st.floats(-5.0, 5.0),
                           min_size=count * dim, max_size=count * dim))
    points = np.reshape(coords, (count, dim))
    gaps = [np.sqrt(((points[i] - points[j]) ** 2).sum())
            for j in range(count) for i in range(j)]
    min_dist = draw(st.sampled_from([0.0] + gaps) | st.floats(0.01, 10.0))
    return points, min_dist


@given(spacings())
def test_first_violation_matches_the_point_by_point_check(spacing):
    assert first_violation(*spacing) == helpers.first_violation(*spacing)


angles = st.floats(-4.0, 4.0)


@given(st.data())
def test_rotation_from_pairs_matches_the_pair_by_pair_build(data):
    dim = data.draw(st.integers(1, 10))
    order = data.draw(st.permutations(range(dim)))
    pairs = np.reshape(order[:dim // 2 * 2], (-1, 2))
    shared = data.draw(angles)
    per_pair = data.draw(st.lists(angles, min_size=len(pairs),
                                  max_size=len(pairs)))
    for angle in (shared, per_pair):
        assert (rotation_from_pairs(dim, pairs, angle).tobytes()
                == helpers.rotation_from_pairs(dim, pairs, angle).tobytes())


@given(st.lists(st.floats(-4.0 * math.pi, 4.0 * math.pi), min_size=1,
                max_size=16), st.booleans())
def test_array_sine_and_cosine_round_as_math_does(values, strided):
    # the dynamics take np.sin and np.cos of arrays; where they round
    # otherwise than math.sin and math.cos, this fails before a golden
    # hash moves
    args = np.array(values)
    if strided:
        args = np.repeat(args, 3)[::3]
    for array_fn, scalar_fn in ((np.sin, math.sin), (np.cos, math.cos)):
        expected = np.array([scalar_fn(value) for value in values])
        assert array_fn(args).tobytes() == expected.tobytes()
        assert array_fn(args[0]).tobytes() == expected[0].tobytes()


@st.composite
def scorings(draw):
    """Optima on a quarter-unit lattice and individuals on an
    eighth-unit one, so that an individual is often equally near two
    optima; some individuals are repeated, fitness values sit on, near
    or beyond the fitness thresholds, and one to three distinct fitness
    accuracies are scored together."""
    dim = draw(st.integers(1, 3))
    point = st.lists(lattice(0.25, 4), min_size=dim, max_size=dim)
    positions = draw(st.lists(point, max_size=5))
    values = draw(st.lists(st.sampled_from([0.0, 70.5, 75.0]),
                           min_size=len(positions), max_size=len(positions)))
    individuals = draw(st.lists(
        st.lists(lattice(0.125, 8), min_size=dim, max_size=dim),
        max_size=8))
    if individuals:
        individuals += [individuals[i] for i in draw(st.lists(
            st.integers(0, len(individuals) - 1), max_size=3))]
    near = st.sampled_from(values or [0.0])
    offset = st.sampled_from([0.0, 5e-5, -5e-4, 1e-3, -2e-3, 1.0])
    fitness = [draw(near) + draw(offset) for _ in individuals]
    levels = draw(st.lists(st.sampled_from([1e-3, 1e-4, 5e-4, 2e-3]),
                           min_size=1, max_size=3, unique=True))
    distance = draw(st.sampled_from([0.125, 0.3, 1.0]))
    snapshot = PopulationSnapshot(
        1, np.reshape(individuals, (-1, dim)), np.array(fitness))
    return (snapshot, (np.reshape(positions, (-1, dim)), values), levels,
            distance)


@given(scorings())
def test_count_npf_matches_the_individual_by_individual_count(scoring):
    snapshot, optima, levels, distance = scoring
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "DISTANCE_ACCURACY", distance)
        assert count_npf(snapshot, optima, levels).tolist() == [
            helpers.count_npf(snapshot, optima, level, distance)
            for level in levels]


#: Cone and composition problems of both dimensions, every kind of
#: basic function among them.
BATCH_PROBLEMS = ["P1", "P5", "P8", "P17", "P21", "P24"]
#: Environments short enough that a few fit in one small run.
SHORT = BenchmarkSettings(evals_per_dim=3, environments=3)


@cache
def first_landscape(problem, seed):
    return create_problem(problem, seed, SHORT).landscape


@st.composite
def chunks(draw, count, avoid=None):
    """[start, stop) bounds of consecutive chunks covering 0..count,
    some of them empty; no cut falls on a multiple of `avoid`."""
    cuts = draw(st.lists(st.integers(0, count), max_size=6))
    cuts = sorted(c for c in cuts if avoid is None or c % avoid)
    return list(zip([0, *cuts], [*cuts, count]))


@st.composite
def uniform_points(draw, count, dim):
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(-5.0, 5.0, (count, dim))


@settings(max_examples=60, deadline=None)
@given(problem=st.sampled_from(BATCH_PROBLEMS), seed=st.integers(1, 3),
       data=st.data())
def test_landscape_evaluation_is_batch_invariant(problem, seed, data):
    landscape = first_landscape(problem, seed)
    xs = data.draw(uniform_points(data.draw(st.integers(1, 30)),
                                  landscape.dim))
    if data.draw(st.booleans()):
        # optima exactly, each at distance 0 from its own peak or shift
        xs = np.concatenate((xs, landscape.global_optima()[0]))
    whole = landscape.evaluate_many(xs)
    one_by_one = np.concatenate([landscape.evaluate_many(x[None])
                                 for x in xs])
    in_chunks = np.concatenate([landscape.evaluate_many(xs[a:b])
                                for a, b in data.draw(chunks(len(xs)))])
    assert whole.tobytes() == one_by_one.tobytes() == in_chunks.tobytes()


@settings(max_examples=30, deadline=None)
@given(problem=st.sampled_from(BATCH_PROBLEMS), data=st.data())
def test_batches_that_straddle_changes_score_as_single_evaluations(
        problem, data):
    single, chunked, whole = (create_problem(problem, 1, SHORT)
                              for _ in range(3))
    budget, dim = single.budget, single.spec.dimension
    xs = data.draw(uniform_points(SHORT.environments * budget, dim))
    # sealed with environment 1; environments 2 and 3 seal no report
    report = xs[:data.draw(st.integers(0, budget))]
    for instance in (single, chunked, whole):
        instance.report_population(report)
    one_by_one = np.array([single.evaluate(x) for x in xs])
    # every change falls inside a chunk
    in_chunks = np.concatenate([chunked.evaluate_many(xs[a:b]) for a, b
                                in data.draw(chunks(len(xs), budget))])
    at_once = whole.evaluate_many(xs)
    assert one_by_one.tobytes() == in_chunks.tobytes() == at_once.tobytes()
    assert single.frozen and chunked.frozen and whole.frozen
    assert single.snapshots[0].fitness.tobytes() \
        == one_by_one[:len(report)].tobytes()
    for snapshots in zip(single.snapshots, chunked.snapshots,
                         whole.snapshots):
        assert len({s.individuals.tobytes() for s in snapshots}) == 1
        assert len({s.fitness.tobytes() for s in snapshots}) == 1
    assert [len(s) for s in single.snapshots] == [len(report), 0, 0]

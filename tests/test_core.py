import numpy as np
import pytest

from dmmobench.core import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    PROBLEM_INDICES,
    PROBLEM_TABLE,
    PlacementError,
    coordinate_sum,
    draw_spaced_points,
    format_floats,
    make_rng,
    problem_spec,
    reflect_into_domain,
)
from helpers import min_pairwise_distance


def test_rng_same_seed_same_sequence():
    a = make_rng(7)
    b = make_rng(7)
    assert [a.uniform(0, 1) for _ in range(20)] \
        == [b.uniform(0, 1) for _ in range(20)]


def test_rng_streams_are_independent():
    base = make_rng(7)
    other = make_rng(7, stream=1)
    assert base.uniform(0, 1) != other.uniform(0, 1)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        make_rng(-1)


def test_randint_is_inclusive_both_ends():
    rng = make_rng(3)
    draws = {rng.randint(2, 4) for _ in range(200)}
    assert draws == {2, 3, 4}


def test_index_permutation_covers_all_indices():
    rng = make_rng(5)
    perm = rng.index_permutation(8)
    assert sorted(perm) == list(range(8))


@pytest.mark.parametrize("rows, n", [(0, 5), (1, 4), (10, 10), (3, 1)])
def test_index_permutations_draw_as_successive_permutations(rows, n):
    batched, looped = make_rng(5, 1), make_rng(5, 1)
    expected = [looped.index_permutation(n) for _ in range(rows)]
    perms = batched.index_permutations(rows, n)
    assert perms.shape == (rows, n)
    assert np.array_equal(perms, np.reshape(expected, (rows, n)))
    assert batched.uniform(0, 1) == looped.uniform(0, 1)


def test_draw_spaced_points_respects_spacing():
    rng = make_rng(11)
    points = draw_spaced_points(8, 5, rng, min_dist=0.1)
    assert points.shape == (8, 5)
    assert min_pairwise_distance(points) >= 0.1
    assert (points >= DOMAIN_LOW).all() and (points <= DOMAIN_HIGH).all()


def test_draw_spaced_points_impossible_spacing():
    rng = make_rng(11)
    with pytest.raises(PlacementError):
        draw_spaced_points(5, 2, rng, min_dist=50.0)


def test_reflect_into_domain_folds_back():
    points = np.array([[5.3, -5.3, 0.0, 4.9, -17.0]])
    reflected = reflect_into_domain(points)
    assert (reflected >= DOMAIN_LOW).all() and (reflected <= DOMAIN_HIGH).all()
    assert reflected[0, 0] == pytest.approx(4.7)
    assert reflected[0, 1] == pytest.approx(-4.7)
    assert reflected[0, 2] == 0.0
    assert reflected[0, 3] == pytest.approx(4.9)


def test_reflect_identity_inside_domain():
    rng = make_rng(2)
    points = rng.uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, (30, 4))
    assert np.array_equal(reflect_into_domain(points), points)


def test_problem_table_has_24_rows_grouped_8_8_8():
    assert len(PROBLEM_TABLE) == 24
    groups = [problem_spec(i).group for i in PROBLEM_INDICES]
    assert groups.count("G1") == 8
    assert groups.count("G2") == 8
    assert groups.count("G3") == 8


def test_problem_table_known_rows():
    p10 = problem_spec("P10")
    assert (p10.family, p10.mode, p10.dimension) == ("F8", "C2", 5)
    p17 = problem_spec("P17")
    assert (p17.family, p17.mode, p17.dimension) == ("F1", "C1", 10)
    p24 = problem_spec("P24")
    assert (p24.family, p24.mode, p24.dimension) == ("F8", "C1", 10)
    p3 = problem_spec("P3")
    assert (p3.family, p3.mode, p3.dimension) == ("F3", "C1", 5)


def test_problem_table_g2_sweeps_modes_on_f8():
    for offset, mode in enumerate(
            ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")):
        spec = problem_spec(f"P{9 + offset}")
        assert spec.family == "F8"
        assert spec.mode == mode
        assert spec.dimension == 5


def test_unknown_problem_index():
    with pytest.raises(ValueError):
        problem_spec("P25")


def test_format_floats_matches_format_e16():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
               np.finfo(float).max, -np.finfo(float).max,
               np.finfo(float).tiny, 1.0, -75.0]
    drawn = np.random.default_rng(3).standard_normal(5000) \
        * 10.0 ** np.random.default_rng(4).integers(-300, 300, 5000)
    for values in (special, drawn, np.reshape(special, (3, 4))):
        expected = " ".join(format(v, ".16e")
                            for v in np.ravel(values).tolist())
        assert format_floats(values) == expected
    assert format_floats(np.float64(-0.0)) == "-0.0000000000000000e+00"
    assert format_floats([]) == ""


#: Leading shapes for the coordinate sum: one point, a batch, the DE's
#: (subs, trial, member) layout and a long axis.
SUM_SHAPES = [(1,), (7,), (3, 4), (2, 3, 5), (301,)]


@pytest.mark.parametrize("shape", SUM_SHAPES)
def test_coordinate_sum_adds_in_numpys_order(shape):
    # Continuous data: squares of differences at many scales, whose sum
    # depends on the order of addition (the in-order sum differs from
    # numpy's at most lengths from 8 on).
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    for dim in range(1, 301):
        a = rng.standard_normal(shape + (dim,)) * 10.0 ** rng.uniform(
            -3, 3, shape + (dim,))
        diff = a - rng.standard_normal(shape + (dim,))
        expected = (diff * diff).sum(-1)
        got = coordinate_sum(np.moveaxis(diff * diff, -1, 0))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), dim


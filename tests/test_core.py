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
    format_rows,
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


def _e16(values, widths):
    """The reference: each value through `"%.16e"`, one at a time."""
    flat = np.ravel(values).tolist()
    ends = np.cumsum(widths, dtype=int).tolist()
    return [" ".join(map("%.16e".__mod__, flat[end - width:end]))
            for width, end in zip(widths, ends)]


def _ties():
    """Values m * 2**-k with exactly 18 significant digits, the last a 5
    (m is odd and m * 2**-k == m * 5**k / 10**k): halfway between two
    17-digit numbers, so only round half to even gets them right."""
    rng = np.random.default_rng(5)
    ties = []
    for k in range(2, 26):
        low = max(-(-10**17 // 5**k), 1)
        high = min(10**18 // 5**k, 2**53)
        for m in rng.integers(low, high, 40).tolist():
            m |= 1
            if len(str(m * 5**k)) == 18:
                ties.append(m * 2.0 ** -k)
    return ties


#: Neighbours of each power of ten, where `log10` may miss the decimal
#: exponent by one.
DECADE_EDGES = [float(edge) for n in range(-7, 17)
                for edge in (np.nextafter(10.0 ** n, 0), 10.0 ** n,
                             np.nextafter(10.0 ** n, np.inf))]
#: The doubles below 10**n nearest to it, whose 17 digits round up to
#: 1.0000000000000000e+n, and the eight doubles below each power of ten
#: of the fast range, whose digits carry through the run of nines.
ROUNDING_UP = [1e-305, 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78,
               1e-73, 1e-70, 1e-14, 1e98, 1e129, 1e153, 1e220] + [
    v for n in range(-5, 16)
    for v in (np.float64(10.0 ** n).view(np.int64)
              - np.arange(1, 9)).view(float).tolist()]


def test_format_floats_matches_format_e16():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
               np.finfo(float).max, -np.finfo(float).max,
               np.finfo(float).tiny, 1.0, -75.0]
    drawn = np.random.default_rng(3).standard_normal(5000) \
        * 10.0 ** np.random.default_rng(4).integers(-300, 300, 5000)
    sweep = np.geomspace(1e-6, 1e16, 22 * 500)
    ties = _ties()
    assert len(ties) > 500
    for values in (special, drawn, ties, DECADE_EDGES, ROUNDING_UP,
                   np.concatenate((sweep, -sweep)),
                   np.reshape(special, (3, 4))):
        for signed in (values, np.negative(values)):
            assert format_rows(signed, [np.size(signed)]) \
                == _e16(signed, [np.size(signed)])
            assert format_rows(signed, [1] * np.size(signed)) \
                == _e16(signed, [1] * np.size(signed))
    # rows mixing values of the fast path and the fallback, and empty rows
    mixed = [1.5, np.nan, 2.5, 1e-300, 3.0, np.inf, 0.5, -0.0, 1e20,
             -7.25, 1e15, 99999.5, 2.0 ** -25]
    widths = [0, 3, 2, 1, 0, 0, 3, 2, 2, 0]
    assert format_rows(mixed, widths) == _e16(mixed, widths)
    ragged = np.random.default_rng(6).integers(0, 4, 300)
    assert format_rows(drawn[:ragged.sum()], ragged) \
        == _e16(drawn[:ragged.sum()], ragged)
    assert format_rows(np.float64(-0.0), [1]) == ["-0.0000000000000000e+00"]
    assert format_rows([], [0]) == [""]
    assert format_rows([], []) == []
    with pytest.raises(ValueError):
        format_rows([1.0, 2.0], [1])


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
        strided = np.moveaxis(diff * diff, -1, 0)
        # the strided view, and the contiguous layout the call sites pass
        for terms in (strided, np.ascontiguousarray(strided)):
            got = coordinate_sum(terms)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), dim



@pytest.mark.parametrize("shape", SUM_SHAPES)
def test_coordinate_sum_of_few_terms_matches_sum_in_either_layout(shape):
    # Fewer than 8 terms: signed values at many scales, so the order of
    # addition shows, and some outputs summing negative zeros only.
    rng = np.random.default_rng(shape[-1])
    for dim in range(1, 8):
        t = rng.standard_normal(shape + (dim,)) * 10.0 ** rng.uniform(
            -8, 8, shape + (dim,))
        t[..., :1, :] = -0.0
        expected = t.sum(-1)
        strided = np.moveaxis(t, -1, 0)
        for terms in (strided, np.ascontiguousarray(strided)):
            got = coordinate_sum(terms)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), dim

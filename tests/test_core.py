import hashlib

import numpy as np
import pytest

from dmmobench import core
from dmmobench.core import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    MIN_PEAK_DISTANCE,
    PROBLEM_INDICES,
    PROBLEM_TABLE,
    PlacementError,
    RngStream,
    draw_spaced_points,
    format_rows,
    problem_spec,
    reflect_into_domain,
    squared_distances,
)
import helpers
from helpers import StubRng, min_pairwise_distance


def test_rng_same_seed_same_sequence():
    a = RngStream(7)
    b = RngStream(7)
    assert [a.uniform(0, 1) for _ in range(20)] \
        == [b.uniform(0, 1) for _ in range(20)]


def test_rng_streams_are_independent():
    base = RngStream(7)
    other = RngStream(7, stream=1)
    assert base.uniform(0, 1) != other.uniform(0, 1)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_randint_is_inclusive_both_ends():
    rng = RngStream(3)
    draws = {rng.randint(2, 4) for _ in range(200)}
    assert draws == {2, 3, 4}


def test_index_permutation_covers_all_indices():
    rng = RngStream(5)
    perm = rng.index_permutation(8)
    assert sorted(perm) == list(range(8))


@pytest.mark.parametrize("rows, n", [(0, 5), (1, 4), (10, 10), (3, 1)])
def test_index_permutations_draw_as_successive_permutations(rows, n):
    batched, looped = RngStream(5, 1), RngStream(5, 1)
    expected = [looped.index_permutation(n) for _ in range(rows)]
    perms = batched.index_permutations(rows, n)
    assert perms.shape == (rows, n)
    assert np.array_equal(perms, np.reshape(expected, (rows, n)))
    assert batched.uniform(0, 1) == looped.uniform(0, 1)


def test_draw_spaced_points_respects_spacing():
    rng = RngStream(11)
    points = draw_spaced_points(8, 5, rng)
    assert points.shape == (8, 5)
    assert min_pairwise_distance(points) >= MIN_PEAK_DISTANCE
    assert (points >= DOMAIN_LOW).all() and (points <= DOMAIN_HIGH).all()


def test_draw_spaced_points_rejects_candidates_inside_the_spacing():
    # the second draw lies 0.07 from the first, inside the 0.1 spacing
    # but outside half of it, so only the far third draw may join
    first, close, far = [0.0, 0.0], [0.07, 0.0], [3.0, -2.0]
    points = draw_spaced_points(2, 2, StubRng(uniforms=[first, close, far]))
    assert np.array_equal(points, [first, far])


@pytest.mark.parametrize("spacing", [0.1, 1.0, 1.5])
@pytest.mark.parametrize("dim", [2, 5])
def test_draw_spaced_points_keeps_what_the_loop_oracle_accepts(
        monkeypatch, spacing, dim):
    # a random walk of steps 0.3 to 2 spacings long, so many candidates
    # fall inside the spacing, some of them beyond half of it
    monkeypatch.setattr(core, "MIN_PEAK_DISTANCE", spacing)
    walk = np.random.default_rng(dim)
    steps = walk.standard_normal((80, dim))
    steps *= (spacing * walk.uniform(0.3, 2.0, (80, 1))
              / np.linalg.norm(steps, axis=1, keepdims=True))
    candidates = np.clip(steps.cumsum(0), DOMAIN_LOW, DOMAIN_HIGH)
    kept, drawn, half_only = [], 0, 0
    for candidate in candidates:
        if len(kept) == 8:
            break
        drawn += 1
        trial = np.array(kept + [candidate])
        if helpers.first_violation(trial, spacing) is None:
            kept.append(candidate)
        elif helpers.first_violation(trial, 0.5 * spacing) is None:
            half_only += 1
    assert len(kept) == 8 and half_only > 0
    rng = StubRng(uniforms=candidates[:drawn])
    assert np.array_equal(draw_spaced_points(8, dim, rng), kept)
    assert rng.uniforms == []


def test_draw_spaced_points_impossible_spacing(monkeypatch):
    monkeypatch.setattr(core, "MIN_PEAK_DISTANCE", 50.0)
    rng = RngStream(11)
    with pytest.raises(PlacementError):
        draw_spaced_points(5, 2, rng)


def test_reflect_into_domain_folds_back():
    points = np.array([[5.3, -5.3, 0.0, 4.9, -17.0]])
    reflected = reflect_into_domain(points)
    assert (reflected >= DOMAIN_LOW).all() and (reflected <= DOMAIN_HIGH).all()
    assert reflected[0, 0] == pytest.approx(4.7)
    assert reflected[0, 1] == pytest.approx(-4.7)
    assert reflected[0, 2] == 0.0
    assert reflected[0, 3] == pytest.approx(4.9)


def test_reflect_identity_inside_domain():
    rng = RngStream(2)
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


#: Leading shapes of the kernel's (a, b): 2-D point sets with fewer and
#: with more than 128 pairs, the DE's (subpopulation, trial, member)
#: batch, and an empty `a`, as `count_npf` passes for an empty report.
KERNEL_SHAPES = {"2-D": ((7,), (5,)), "DE batch": ((10, 10), (10, 10)),
                 "empty a": ((0,), (1,)), "2-D, many pairs": ((30,), (8,))}


@pytest.mark.parametrize("a_rows, b_rows", KERNEL_SHAPES.values(),
                         ids=KERNEL_SHAPES)
def test_squared_distances_equal_the_point_major_sum(a_rows, b_rows):
    # coordinates at many scales, so the order of addition shows; D runs
    # over the in-order sums, the eight-accumulator ones and numpy's own
    rng = np.random.default_rng(len(a_rows) * 100 + a_rows[-1])
    for dim in range(1, 21):
        a = rng.standard_normal(a_rows + (dim,)) * 10.0 ** rng.uniform(
            -3, 3, a_rows + (dim,))
        b = rng.standard_normal(b_rows + (dim,))
        expected = ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(-1)
        got = squared_distances(a, b)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), dim


#: One call of each RngStream draw method, and the sha256 of what five
#: successive calls return, as float64 bytes, on streams 0 and 1 of
#: seeds 1, 2 and 7 (numpy 2.4.6).  numpy may change a Generator
#: method's algorithm in a release (NEP 19); the failing case then names
#: the method whose draws moved.
DRAWS = {
    "uniform": (lambda rng: rng.uniform(-5.0, 5.0),
                "b780bf1a47864a607d9659a63e509de7"
                "2d2840c3b7a579a7056bb29a570af697"),
    "uniform_vector": (lambda rng: rng.uniform_vector(-5.0, 5.0, (3, 4)),
                       "e3d5b34fdfe5b8e708b4f2f1a69683a5"
                       "938d9d16012fa0361a0ddb8ccc453330"),
    "randint": (lambda rng: rng.randint(2, 8),
                "af598348fafc5bcdd5b3ff1fd24a210b"
                "27c57ce64a6d26fb2b4f61e713a335fe"),
    "normal": (lambda rng: rng.normal(),
               "9fa264b5c941551ef65d6a0709e74843"
               "3a767e3e05263381b8f67ff3f0bee27a"),
    "normal_vector": (lambda rng: rng.normal_vector(7),
                      "707270b8a8dbaf2c2a43c8c0b6485b15"
                      "3146540cf6d48a981985afa8be14d7ea"),
    "permutation": (lambda rng: rng.permutation(9),
                    "e65ada68e76731a1f75d0af686e369f6"
                    "837fab348f1a2e104edb970caeadcda1"),
    "index_permutation": (lambda rng: rng.index_permutation(9),
                          "3d11021677797a8a9e6cd7cbc1e7dfc7"
                          "82579cb047b999c4ed762c8bbe80dd32"),
    "index_permutations": (lambda rng: rng.index_permutations(10, 10),
                           "0b57213ae5ba1edd7becdd9d211205be"
                           "5eb51dfd7cc80414eb9d0dbaed0eab14"),
}


@pytest.mark.parametrize("draw, expected", DRAWS.values(), ids=DRAWS)
def test_each_draw_method_keeps_its_stored_hash(draw, expected):
    digest = hashlib.sha256()
    for seed in (1, 2, 7):
        for stream in (0, 1):
            rng = RngStream(seed, stream)
            for _ in range(5):
                digest.update(np.asarray(draw(rng), dtype=float).tobytes())
    assert digest.hexdigest() == expected

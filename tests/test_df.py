import numpy as np
import pytest

from dmmobench.core import make_rng, min_pairwise_distance
from dmmobench.df import (
    DEACTIVATED_HEIGHT,
    GLOBAL_PEAK_COUNT,
    GLOBAL_PEAK_HEIGHT,
    init_df,
)


def test_f2_layout_is_fixed():
    landscape = init_df("F2", 5, make_rng(1))
    assert landscape.n_peaks == 4
    assert (landscape.heights == 75.0).all()
    assert (landscape.widths == 12.0).all()
    expected = np.array([np.full(5, c) for c in (-3.0, -2.0, 2.0, 3.0)])
    assert np.array_equal(landscape.positions, expected)


def test_f3_f4_layouts():
    f3 = init_df("F3", 2, make_rng(1))
    assert np.array_equal(f3.positions[:, 0], [-2.5, -1.5, 0.5, 4.5])
    assert (f3.widths == 5.0).all()
    f4 = init_df("F4", 10, make_rng(1))
    assert np.array_equal(f4.positions[:, 0], [-3.0, -1.0, 1.0, 3.0])
    assert (f4.widths == 5.0).all()


def test_f1_draws_within_documented_ranges():
    for seed in range(1, 30):
        landscape = init_df("F1", 5, make_rng(seed))
        assert landscape.n_global == GLOBAL_PEAK_COUNT
        assert 0 <= landscape.n_local <= 4
        assert (landscape.heights[:4] == GLOBAL_PEAK_HEIGHT).all()
        if landscape.n_local:
            locals_ = landscape.heights[4:]
            assert (locals_ >= 30.0).all() and (locals_ <= 70.0).all()
        assert (landscape.widths >= 1.0).all()
        assert (landscape.widths <= 12.0).all()
        assert min_pairwise_distance(landscape.positions) >= 0.1


def test_f1_local_peak_count_varies_across_seeds():
    counts = {init_df("F1", 5, make_rng(seed)).n_local
              for seed in range(1, 40)}
    assert len(counts) > 1


def test_evaluate_is_cone_envelope():
    landscape = init_df("F2", 2, make_rng(1))
    x = np.array([0.0, 0.0])
    expected = max(
        75.0 - 12.0 * np.sqrt(((p - x) ** 2).sum())
        for p in landscape.positions)
    assert landscape.evaluate_many([x])[0] == pytest.approx(expected, abs=1e-12)


def test_peak_positions_evaluate_to_height():
    landscape = init_df("F1", 5, make_rng(3))
    positions, values = landscape.global_optima()
    for point, value in zip(positions, values):
        assert landscape.evaluate_many([point])[0] == pytest.approx(
            value, abs=1e-12)


def test_evaluate_many_matches_scalar_path():
    landscape = init_df("F1", 5, make_rng(9))
    xs = make_rng(10).uniform_vector(-5, 5, (50, 5))
    batch = landscape.evaluate_many(xs)
    single = np.array([landscape.evaluate_many([x])[0] for x in xs])
    assert np.array_equal(batch, single)


def test_dimension_mismatch_rejected():
    landscape = init_df("F2", 5, make_rng(1))
    with pytest.raises(ValueError):
        landscape.evaluate_many([np.zeros(4)])


def test_deactivation_drops_optima_and_caps_height():
    landscape = init_df("F2", 5, make_rng(1))
    landscape.set_active_count(2)
    positions, values = landscape.global_optima()
    assert len(positions) == 2
    assert (values == 75.0).all()
    # a deactivated peak responds at the top of the local range
    dead = landscape.positions[3]
    assert landscape.evaluate_many([dead])[0] == pytest.approx(
        DEACTIVATED_HEIGHT)
    landscape.set_active_count(4)
    assert len(landscape.global_optima()[0]) == 4


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        init_df("F9", 5, make_rng(1))

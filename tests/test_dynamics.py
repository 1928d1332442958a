import math

import numpy as np
import pytest

from dmmobench import dynamics
from dmmobench.composition import init_composition
from dmmobench.core import PlacementError, RngStream
from dmmobench.df import init_df
from dmmobench.dynamics import (
    ChangeState,
    ScalarChangeParams,
    advance_environment,
    apply_scalar_change,
    enforce_min_distance,
    init_change_state,
    random_pairing,
    random_rotation,
    rotation_from_pairs,
    update_active_count,
)
from helpers import StubRng, min_pairwise_distance


HEIGHT_PARAMS = ScalarChangeParams(30.0, 70.0, 7.0, 0.0)


def at(mode, t=1):
    """The change state of a run under `mode`, leaving environment `t`."""
    state = ChangeState(mode, 8)
    state.t = t
    return state


def test_small_step_hand_value():
    # 50 + 0.04 * 40 * 1 * 7 = 61.2
    out = apply_scalar_change(at("C1"), 50.0, HEIGHT_PARAMS, StubRng([1.0]))
    assert out == pytest.approx(61.2)


def test_count_modes_move_scalars_in_small_steps():
    for mode in ("C7", "C8"):
        out = apply_scalar_change(at(mode), 50.0, HEIGHT_PARAMS,
                                  StubRng([1.0]))
        assert out == pytest.approx(61.2)


def test_large_step_hand_value():
    # step = 0.04*sign(0.5) + (0.01-0.04)*0.5 = 0.025; 50 + 40*0.025*7 = 57
    out = apply_scalar_change(at("C2"), 50.0, HEIGHT_PARAMS, StubRng([0.5]))
    assert out == pytest.approx(57.0)


def test_noisy_step_hand_values():
    unchanged = apply_scalar_change(at("C3"), 50.0, HEIGHT_PARAMS,
                                    StubRng(normals=[0.0]))
    assert unchanged == 50.0
    out = apply_scalar_change(at("C3"), 50.0, HEIGHT_PARAMS,
                              StubRng(normals=[2.0]))
    assert out == pytest.approx(64.0)


def test_chaotic_step_hand_value():
    # 30 + 3.67 * 20 * (1 - 20/40) = 66.7, no randomness consumed
    out = apply_scalar_change(at("C4"), 50.0, HEIGHT_PARAMS, StubRng())
    assert out == pytest.approx(66.7)


def test_chaotic_iterates_stay_bounded():
    value = 50.0
    peak = HEIGHT_PARAMS.e_min + HEIGHT_PARAMS.e_range * 3.67 / 4.0
    for _ in range(1000):
        value = apply_scalar_change(at("C4"), value, HEIGHT_PARAMS, StubRng())
        assert HEIGHT_PARAMS.e_min <= value <= peak + 1e-9


def test_recurrent_hand_value():
    # 30 + 40 * (sin(2*pi*3/12) + 1) / 2 = 70 at the crest
    out = apply_scalar_change(at("C5", 3), 11.0, HEIGHT_PARAMS, StubRng())
    assert out == pytest.approx(70.0)


def test_recurrent_is_periodic_in_t():
    params = ScalarChangeParams(30.0, 70.0, 7.0, 1.234)
    for t in range(1, 25):
        a = apply_scalar_change(at("C5", t), 0.0, params, StubRng())
        b = apply_scalar_change(at("C5", t + 12), 99.0, params, StubRng())
        assert a == pytest.approx(b, abs=1e-9)


def test_noisy_recurrent_hand_value():
    # level at t=6 is 50; plus 0.8 * 1.0 of noise
    out = apply_scalar_change(at("C6", 6), 50.0, HEIGHT_PARAMS,
                              StubRng(normals=[1.0]))
    assert out == pytest.approx(50.8)


def test_noisy_recurrent_residual_scale():
    rng = RngStream(7)
    residuals = [
        apply_scalar_change(at("C6", 6), 50.0, HEIGHT_PARAMS, rng) - 50.0
        for _ in range(1000)
    ]
    assert 0.64 <= np.std(residuals) <= 0.96


def test_changes_clamp_to_bounds():
    high = apply_scalar_change(at("C1"), 69.0, HEIGHT_PARAMS, StubRng([1.0]))
    assert high == 70.0
    low = apply_scalar_change(at("C3"), 31.0, HEIGHT_PARAMS,
                              StubRng(normals=[-50.0]))
    assert low == 30.0


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        apply_scalar_change(at("C9"), 50.0, HEIGHT_PARAMS, StubRng([0.0]))


def test_zero_angle_rotation_is_identity():
    pairs = random_pairing(6, RngStream(1))
    assert np.array_equal(rotation_from_pairs(6, pairs, 0.0), np.eye(6))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 10])
def test_random_rotations_are_orthogonal(dim):
    for seed in range(1, 21):
        matrix = random_rotation(dim, RngStream(seed))
        gap = np.abs(matrix @ matrix.T - np.eye(dim)).max()
        assert gap <= 1e-12
        assert np.linalg.det(matrix) == pytest.approx(1.0, abs=1e-9)


def test_odd_dimension_fixes_exactly_one_axis():
    matrix = rotation_from_pairs(5, random_pairing(5, RngStream(3)), 0.7)
    fixed = [
        i for i in range(5)
        if np.array_equal(matrix[i], np.eye(5)[i])
        and np.array_equal(matrix[:, i], np.eye(5)[i])
    ]
    assert len(fixed) == 1


def test_rotation_from_pairs_block_structure():
    pairs = np.array([[0, 1], [2, 3]])
    matrix = rotation_from_pairs(4, pairs, [math.pi / 2.0, 0.0])
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = math.cos(math.pi / 2.0)
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    assert np.allclose(matrix, expected, atol=1e-12)


def test_pairing_is_disjoint():
    pairs = random_pairing(7, RngStream(9))
    assert pairs.shape == (3, 2)
    flat = pairs.ravel()
    assert len(set(flat.tolist())) == 6


def test_spacing_repair_leaves_good_sets_alone():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 3.0]])
    repaired = enforce_min_distance(points, RngStream(1))
    assert np.array_equal(repaired, points)


def test_spacing_repair_moves_by_exactly_min_dist():
    points = [[0.0, 0.0], [0.01, 0.0]]
    repaired = enforce_min_distance(points, StubRng(normals=[[3.0, 4.0]]))
    assert np.allclose(repaired[1], [0.07, 0.08], atol=1e-15)
    assert min_pairwise_distance(repaired) >= 0.1


def test_spacing_repair_fixes_random_clusters():
    rng = RngStream(5)
    points = RngStream(6).uniform_vector(-0.05, 0.05, (8, 3))
    repaired = enforce_min_distance(points, rng)
    assert min_pairwise_distance(repaired) >= 0.1 - 1e-12
    assert (np.abs(repaired) <= 5.0).all()


def test_spacing_repair_gives_up_eventually():
    # the scripted direction keeps pushing into the box wall, so the
    # pair can never separate
    stub = StubRng(normals=[[0.0, 1.0]] * 20000)
    with pytest.raises(PlacementError):
        enforce_min_distance([[5.0, 5.0], [5.0, 4.95]], stub)


def _count_state(mode, g, direction, g_max=8):
    state = ChangeState(mode, g_max)
    state.g = g
    state.direction = direction
    return state


def test_sweep_reverses_at_ceiling():
    state = _count_state("C7", 8, 1)
    update_active_count(state, StubRng())
    assert (state.g, state.direction) == (7, -1)


def test_sweep_reverses_at_floor():
    state = _count_state("C7", 2, -1)
    update_active_count(state, StubRng())
    assert (state.g, state.direction) == (3, 1)


def test_sweep_walks_a_triangle_wave():
    state = ChangeState("C7", 8)
    seen = []
    for _ in range(13):
        update_active_count(state, StubRng())
        seen.append(state.g)
    assert seen == [7, 6, 5, 4, 3, 2, 3, 4, 5, 6, 7, 8, 7]


def test_random_count_covers_its_range():
    state = ChangeState("C8", 8)
    rng = RngStream(11)
    seen = set()
    for _ in range(10000):
        update_active_count(state, rng)
        assert 2 <= state.g <= 8
        seen.add(state.g)
    assert seen == {2, 3, 4, 5, 6, 7, 8}


def test_count_update_rejects_other_modes():
    with pytest.raises(ValueError):
        update_active_count(ChangeState("C1", 8), StubRng())


def test_initial_state_draws_do_not_depend_on_mode():
    landscapes = [init_df("F1", 5, RngStream(3)) for _ in range(2)]
    state_a = init_change_state(landscapes[0], "C1", RngStream(4))
    state_b = init_change_state(landscapes[1], "C8", RngStream(4))
    assert np.array_equal(state_a.pairings["positions"],
                          state_b.pairings["positions"])
    for name in ("positions", "heights", "widths"):
        assert np.array_equal(state_a.rules[name].phase,
                              state_b.rules[name].phase)
    assert state_b.g == state_b.g_max  # everything active in environment 1


def test_changes_follow_the_settings_the_run_started_with(monkeypatch):
    """The change constants in force when a run starts shape its changes."""
    for name, value in dict(MIN_PEAK_DISTANCE=2.0, HEIGHT_SEVERITY=3.0,
                            WIDTH_SEVERITY=2.0,
                            ROTATION_SEVERITY=0.5).items():
        monkeypatch.setattr(dynamics, name, value)
    rng = RngStream(1)
    landscape = init_df("F2", 2, rng)
    state = init_change_state(landscape, "C1", rng)
    assert [state.rules[name].severity
            for name in ("positions", "heights", "widths")] == [0.5, 3.0, 2.0]
    for _ in range(5):
        advance_environment(landscape, state, rng)
        # pairs reflect to about 1.41 apart here, far above the usual
        # spacing, so only a repair to the constant's value parts them
        assert min_pairwise_distance(landscape.positions) >= 2.0


def test_one_change_keeps_cone_invariants():
    rng = RngStream(21)
    landscape = init_df("F2", 5, rng)
    state = init_change_state(landscape, "C1", rng)
    advance_environment(landscape, state, rng)
    assert state.t == 2
    assert (landscape.heights[:4] == 75.0).all()
    assert ((landscape.widths >= 1.0) & (landscape.widths <= 12.0)).all()
    assert min_pairwise_distance(landscape.positions) >= 0.1 - 1e-12
    assert (np.abs(landscape.positions) <= 5.0).all()


def test_sixty_changes_keep_rotations_orthogonal():
    rng = RngStream(22)
    landscape = init_composition("F5", 5, rng)
    state = init_change_state(landscape, "C1", rng)
    for _ in range(59):
        advance_environment(landscape, state, rng)
    for matrix in landscape.rotations:
        assert np.abs(matrix @ matrix.T - np.eye(5)).max() <= 1e-9
    assert min_pairwise_distance(landscape.shifts) >= 0.1 - 1e-12


def test_recurrent_shifts_revisit_exactly():
    rng = RngStream(23)
    landscape = init_composition("F8", 5, rng)
    state = init_change_state(landscape, "C5", rng)
    trail = {}
    for _ in range(30):
        advance_environment(landscape, state, rng)
        trail[state.t] = landscape.shifts.copy()
    for t in range(2, 19):
        assert np.abs(trail[t] - trail[t + 12]).max() <= 1e-9


def test_count_sweep_drives_active_optima():
    rng = RngStream(24)
    landscape = init_df("F2", 5, rng)
    state = init_change_state(landscape, "C7", rng)
    advance_environment(landscape, state, rng)
    positions, values = landscape.global_optima()
    assert state.g == 3
    assert len(positions) == 3
    assert (values == 75.0).all()

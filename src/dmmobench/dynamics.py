"""Environmental change engine: the eight change modes and the rotation
machinery that moves optima between environments.

Scalar parameters (local peak heights, widths) step according to the
active change mode.  Position sets and rotation matrices evolve through
a single rotation angle per parameter: the angle follows the same scalar
change rules, and each new environment rotates the frozen initial
parameter by the current angle over a fixed random pairing of
dimensions.  Driving matrices through an angle state keeps the
recurrent modes exactly periodic and stops sixty successive changes
from compounding floating-point drift.

Change modes:
  C1  small steps          C5  recurrent (sinusoidal)
  C2  large steps          C6  recurrent with noise
  C3  additive Gaussian    C7  optimum count sweeps 2..max and back
  C4  chaotic (logistic)   C8  optimum count drawn uniformly in [2, max]
Under C7/C8 every other parameter keeps changing in small steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (DOMAIN_HIGH, DOMAIN_LOW, MIN_PEAK_DISTANCE,
                   PlacementError, first_violation, reflect_into_domain)
from .df import LOCAL_HEIGHT_HIGH, LOCAL_HEIGHT_LOW, WIDTH_HIGH, WIDTH_LOW

#: Total single moves allowed while repairing optimum spacing after one
#: change; exceeding it means the layout is pathological.
REPAIR_MOVE_CAP = 10_000

# The change constants of the problem definition (C1-C6 are GDBG's
# change types); changing one moves the benchmark's golden hashes.

#: Small-step severity scale.
ALPHA = 0.04
#: Large-step severity cap, printed value; 0.1 is a common
#: alternative in dynamic-benchmark generators.
ALPHA_MAX = 0.01
#: Logistic-map coefficient of the chaotic mode.
CHAOS_FACTOR = 3.67
#: Period of the recurrent modes, in environments.
PERIOD = 12
#: Noise scale added on top of the noisy recurrent mode.
NOISE_SEVERITY = 0.8
#: Per-parameter change severities.
HEIGHT_SEVERITY = 7.0
WIDTH_SEVERITY = 1.0
ROTATION_SEVERITY = 1.0

#: Rotation-angle bounds: a narrow arc under the recurrent modes (their
#: level is an absolute function of time, so a full circle would swing
#: optima wildly), the full circle otherwise.
RECURRENT_ANGLE_RANGE = (0.0, math.pi / 6.0)
FULL_ANGLE_RANGE = (-math.pi, math.pi)


@dataclass
class ScalarChangeParams:
    """Bounds, severity and phase of one changing scalar, or of a run of
    them with one phase each."""

    e_min: float
    e_max: float
    severity: float
    phase: float

    @property
    def e_range(self):
        return self.e_max - self.e_min


def _recurrent_level(state, params, shape):
    # reducing t first makes recurrence bit-exact: t and t + period
    # produce the same sine argument, not two arguments 2*pi apart
    start = 2.0 * math.pi * (state.t % PERIOD) / PERIOD
    wave = np.sin(start + np.broadcast_to(params.phase, shape))
    return params.e_min + params.e_range * (wave + 1.0) / 2.0


def apply_scalar_change(state, value, params, rng):
    """One update of a scalar, or of each scalar of an array, under the
    run's change mode in `state` and the change constants, clamped to
    bounds.

    `params.phase` is one phase or one per value.  The values draw in
    one vector call what as many scalar draws would, in order.
    `state.t` is the index of the environment being left.  The
    recurrent modes depend only on it (not on the current value), so
    they revisit the same level every `PERIOD` changes exactly.
    """
    value = np.asarray(value, dtype=float)
    shape = value.shape
    mode = "C1" if state.mode in ("C7", "C8") else state.mode
    if mode == "C1":
        shift = rng.uniform_vector(-1.0, 1.0, shape)
        value = value + ALPHA * params.e_range * shift * params.severity
    elif mode == "C2":
        shift = rng.uniform_vector(-1.0, 1.0, shape)
        step = ALPHA * np.sign(shift) + (ALPHA_MAX - ALPHA) * shift
        value = value + params.e_range * step * params.severity
    elif mode == "C3":
        value = value + params.severity * rng.normal_vector(shape)
    elif mode == "C4":
        offset = value - params.e_min
        value = (params.e_min + CHAOS_FACTOR * offset
                 * (1.0 - offset / params.e_range))
    elif mode == "C5":
        value = _recurrent_level(state, params, shape)
    elif mode == "C6":
        value = (_recurrent_level(state, params, shape)
                 + NOISE_SEVERITY * rng.normal_vector(shape))
    else:
        raise ValueError(f"unknown change mode {mode!r}")
    return np.minimum(np.maximum(value, params.e_min), params.e_max)


def random_pairing(dim, rng):
    """Disjoint random dimension pairs; odd dims leave one axis out."""
    order = rng.index_permutation(dim)
    n_pairs = dim // 2
    return order[:2 * n_pairs].reshape(n_pairs, 2)


def rotation_from_pairs(dim, pairs, angles):
    """Orthogonal matrix rotating each listed coordinate plane.

    `angles` is one shared angle or one angle per pair.  Axes that
    appear in no pair are left fixed.
    """
    return _rotation(dim, _pair_entries(dim, pairs), angles)


def _pair_entries(dim, pairs):
    """Flat indices, in a dim x dim matrix, of the entries (a, a),
    (a, b), (b, a) and (b, b) of each pair (a, b): one row per kind."""
    a, b = np.reshape(np.asarray(pairs, dtype=np.intp), (-1, 2)).T
    return np.stack((a * (dim + 1), a * dim + b, b * dim + a, b * (dim + 1)))


def _rotation(dim, entries, angles):
    """`rotation_from_pairs` from the pairs' `_pair_entries`; a shared
    angle costs one cosine and one sine."""
    angles = np.ravel(angles)
    cos = np.cos(angles)
    sin = np.sin(angles)
    rotation = np.eye(dim)
    rotation.reshape(-1)[entries] = (cos, sin, -sin, cos)
    return rotation


def random_rotation(dim, rng):
    """Orthogonal matrix with an independent random angle per plane."""
    pairs = random_pairing(dim, rng)
    angles = rng.uniform_vector(-math.pi, math.pi, len(pairs))
    return rotation_from_pairs(dim, pairs, angles)


def enforce_min_distance(positions, rng):
    """Repair a point set until every pairwise distance reaches the
    optimum spacing `MIN_PEAK_DISTANCE`.

    A violating point is nudged by exactly `MIN_PEAK_DISTANCE` in a
    uniformly random direction (then clamped to the box), as many times
    as it takes; the total move budget guards against pathological
    layouts.
    """
    points = np.array(positions, dtype=float)
    dim = points.shape[1]
    moves = 0
    while True:
        culprit = first_violation(points, MIN_PEAK_DISTANCE)
        if culprit is None:
            return points
        if moves >= REPAIR_MOVE_CAP:
            raise PlacementError(
                f"spacing repair exceeded {REPAIR_MOVE_CAP} moves")
        moves += 1
        direction = rng.normal_vector(dim)
        # an all-zero draw (about 2**(-52 D)) raises ZeroDivisionError
        norm = float(np.sqrt((direction * direction).sum()))
        points[culprit] = np.clip(
            points[culprit] + direction * (MIN_PEAK_DISTANCE / norm),
            DOMAIN_LOW, DOMAIN_HIGH)


class ChangeState:
    """Mutable per-run dynamics state.

    Each rotated parameter ("positions" for cone landscapes, "shifts"
    and "rotations" for compositions) keeps its frozen initial value in
    `bases`, a frozen dimension pairing (held as the `_pair_entries` of
    its rotation matrices), and the current angle.  `rules` holds the
    fixed change rule of each angle and of a cone landscape's "heights"
    and "widths".  `t` is the index of the current environment, from 1.
    Under C7, `direction` is the signed step of the optimum count `g`.
    """

    def __init__(self, mode, g_max):
        self.mode = mode
        self.t = 1
        self.g_max = g_max
        self.g = g_max
        self.direction = -1
        self.angles = {}
        self.pairings = {}
        self.bases = {}
        self.rules = {}


def init_change_state(landscape, mode, rng):
    """Draw the frozen randomness of a run's dynamics and fix its change
    rules at the change severities.

    The draw sequence is identical for every change mode, so a given
    seed yields the same initial environment no matter which mode later
    perturbs it.  Order: per rotated parameter its pairing then its
    phase; then height phases; then width phases.
    """
    if landscape.kind == "df":
        state = ChangeState(mode, landscape.n_global)
        rotated = ("positions",)
    else:
        state = ChangeState(mode, landscape.n_components)
        rotated = ("shifts", "rotations")
    arc = RECURRENT_ANGLE_RANGE if mode in ("C5", "C6") else FULL_ANGLE_RANGE
    for name in rotated:
        state.pairings[name] = _pair_entries(
            landscape.dim, random_pairing(landscape.dim, rng))
        state.rules[name] = ScalarChangeParams(
            *arc, ROTATION_SEVERITY,
            rng.uniform(0.0, 2.0 * math.pi))
        state.angles[name] = 0.0
        state.bases[name] = getattr(landscape, name).copy()
    if landscape.kind == "df":
        state.rules["heights"] = ScalarChangeParams(
            LOCAL_HEIGHT_LOW, LOCAL_HEIGHT_HIGH, HEIGHT_SEVERITY,
            rng.uniform_vector(0.0, 2.0 * math.pi, landscape.n_local))
        state.rules["widths"] = ScalarChangeParams(
            WIDTH_LOW, WIDTH_HIGH, WIDTH_SEVERITY,
            rng.uniform_vector(0.0, 2.0 * math.pi, landscape.n_peaks))
    return state


def update_active_count(state, rng):
    """Step the active-optimum count for the two count-varying modes.

    The sweep mode reverses direction when it reaches either end before
    stepping, so from the ceiling it walks down to 2 and back up.
    """
    if state.mode == "C7":
        if state.g == state.g_max:
            state.direction = -1
        elif state.g == 2:
            state.direction = 1
        state.g += state.direction
    elif state.mode == "C8":
        state.g = rng.randint(2, state.g_max)
    else:
        raise ValueError(
            f"mode {state.mode!r} does not vary the optimum count")


def apply_matrix_change(name, state, rng):
    """Advance the named rotated parameter and return its new value.

    The stored angle steps like any scalar, under its rule; the result
    is the frozen initial parameter rotated by the whole current angle,
    about the domain center, rather than a cumulative product of sixty
    slightly-off incremental rotations.
    """
    state.angles[name] = float(apply_scalar_change(
        state, state.angles[name], state.rules[name], rng))
    base = state.bases[name]
    rotation = _rotation(
        base.shape[-1], state.pairings[name], state.angles[name])
    return base @ rotation


def _move_optima(name, state, rng):
    """The named optimum set rotated, reflected into the domain and
    repaired to the optimum spacing."""
    moved = apply_matrix_change(name, state, rng)
    return enforce_min_distance(reflect_into_domain(moved), rng)


def advance_environment(landscape, state, rng):
    """Mutate the landscape and state into the next environment.

    Draw order is part of the reproducibility contract: the
    active-count update (C7/C8 only), then scalars in storage order,
    then each rotated parameter, an optimum set's spacing repair right
    after its rotation.
    """
    if state.mode in ("C7", "C8"):
        update_active_count(state, rng)
    if landscape.kind == "df":
        _advance_df(landscape, state, rng)
    else:
        _advance_composition(landscape, state, rng)
    landscape.set_active_count(state.g)
    state.t += 1


def _advance_df(landscape, state, rng):
    local = slice(landscape.n_global, None)
    landscape.heights[local] = apply_scalar_change(
        state, landscape.heights[local], state.rules["heights"], rng)
    landscape.widths[:] = apply_scalar_change(
        state, landscape.widths, state.rules["widths"], rng)
    landscape.positions = _move_optima("positions", state, rng)


def _advance_composition(landscape, state, rng):
    landscape.shifts = _move_optima("shifts", state, rng)
    landscape.rotations = apply_matrix_change("rotations", state, rng)
    landscape.refresh_normalization()

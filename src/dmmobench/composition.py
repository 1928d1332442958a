"""Complex multimodal functions F5-F8: weight-blended composition landscapes.

Each component is a shifted, stretched, rotated basic function whose raw
value is zero at its shift vector.  The landscape is the negated,
weight-blended sum of the normalized component values, so every active
component contributes one global optimum of fitness 0 at its shift, and
no point evaluates above 0.
"""

import numpy as np

from .core import MIN_PEAK_DISTANCE, draw_spaced_points
from .dynamics import random_rotation

#: Scale applied to each normalized component value.
NORMALIZATION_SCALE = 2000.0

#: Exponent sharpening the dominance of the best-matching component.
WEIGHT_SHARPNESS = 10

#: Penalty added to a deactivated component's normalized value; pushes its
#: former optimum down to fitness -1.
DEACTIVATION_PENALTY = 1.0

_WEIERSTRASS_TERMS = 21
_W_AMP = 0.5 ** np.arange(_WEIERSTRASS_TERMS)
_W_FREQ = 2.0 * np.pi * 3.0 ** np.arange(_WEIERSTRASS_TERMS)
_W_OFFSET = float(_W_AMP @ np.cos(_W_FREQ * 0.5))


def _sphere(z):
    return (z * z).sum(-1)


def _griewank(z):
    denom = np.sqrt(np.arange(1, z.shape[-1] + 1, dtype=float))
    return 1.0 + (z * z).sum(-1) / 4000.0 - np.cos(z / denom).prod(-1)


def _rastrigin(z):
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(-1)


def _weierstrass(z):
    per_dim = np.cos((z + 0.5)[..., None] * _W_FREQ) @ _W_AMP
    return per_dim.sum(-1) - z.shape[-1] * _W_OFFSET


def _expanded_griewank_rosenbrock(z):
    # Evaluated at z+1 so the Rosenbrock chain bottoms out at the origin;
    # wraps around so every coordinate appears in two links.
    a = z + 1.0
    b = np.roll(a, -1, axis=-1)
    link = 100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2
    return (link * link / 4000.0 - np.cos(link) + 1.0).sum(-1)


BASIC_FUNCTIONS = {
    "sphere": _sphere,
    "griewank": _griewank,
    "rastrigin": _rastrigin,
    "weierstrass": _weierstrass,
    "expanded_griewank_rosenbrock": _expanded_griewank_rosenbrock,
}

# Component recipe per family: basic-function kinds, stretch factors,
# weight spreads.  All three lists line up index by index.
_FAMILY_RECIPES = {
    "F5": (("griewank", "griewank", "weierstrass", "weierstrass",
            "sphere", "sphere"),
           (1.0, 1.0, 8.0, 8.0, 1.0 / 5.0, 1.0 / 5.0),
           (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)),
    "F6": (("rastrigin", "rastrigin", "weierstrass", "weierstrass",
            "griewank", "griewank", "sphere", "sphere"),
           (1.0, 1.0, 10.0, 10.0, 1.0 / 10.0, 1.0 / 10.0, 1.0 / 7.0, 1.0 / 7.0),
           (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)),
    "F7": (("expanded_griewank_rosenbrock", "expanded_griewank_rosenbrock",
            "weierstrass", "weierstrass", "griewank", "griewank"),
           (1.0 / 4.0, 1.0 / 10.0, 2.0, 1.0, 2.0, 5.0),
           (1.0, 1.0, 2.0, 2.0, 2.0, 2.0)),
    "F8": (("rastrigin", "rastrigin",
            "expanded_griewank_rosenbrock", "expanded_griewank_rosenbrock",
            "weierstrass", "weierstrass", "griewank", "griewank"),
           (4.0, 1.0, 4.0, 1.0, 1.0 / 10.0, 1.0 / 5.0, 1.0 / 10.0, 1.0 / 40.0),
           (1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0)),
}


def basic_function(kind, z):
    """Raw value of one basic function; zero at the zero vector."""
    try:
        evaluate = BASIC_FUNCTIONS[kind]
    except KeyError:
        raise ValueError(f"unknown basic function {kind!r}") from None
    return float(evaluate(np.asarray(z, dtype=float)))


class CompositionLandscape:
    """Component-list landscape for one environment of F5-F8.

    Shift vectors are row vectors; rotation is applied by right
    multiplication, z_i = ((x - shift_i) / stretch_i) @ rotation_i.
    Immutable between environmental changes.
    """

    kind = "composition"

    def __init__(self, family, dim, kinds, shifts, rotations, stretches,
                 spreads, peak_magnitudes):
        self.family = family
        self.dim = dim
        self.kinds = kinds
        self.shifts = shifts
        self.rotations = rotations
        self.stretches = stretches
        self.spreads = spreads
        #: |raw value| at the domain's far corner, used for normalization.
        self.peak_magnitudes = peak_magnitudes
        self.active = np.ones(len(kinds), dtype=bool)
        self._penalty = np.zeros(len(kinds))

    @property
    def n_components(self):
        return len(self.kinds)

    @property
    def active_global_count(self):
        return int(self.active.sum())

    def set_active_count(self, count):
        """Keep the first `count` components active, deactivate the rest."""
        self.active = np.arange(self.n_components) < count
        self.refresh()

    def refresh(self):
        self._penalty = np.where(self.active, 0.0, DEACTIVATION_PENALTY)

    def refresh_normalization(self):
        """Recompute each component's normalizing magnitude.

        The reference point is the domain's far corner pushed through
        the component's own stretch and rotation, so magnitudes must be
        refreshed whenever rotations change.
        """
        corner = np.full(self.dim, 5.0)
        for i, kind in enumerate(self.kinds):
            raw = BASIC_FUNCTIONS[kind](
                (corner / self.stretches[i]) @ self.rotations[i])
            self.peak_magnitudes[i] = abs(float(raw))

    def evaluate_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        diff = xs[:, None, :] - self.shifts[None, :, :]
        scaled = diff / self.stretches[None, :, None]
        rotated = np.einsum("bnd,nde->bne", scaled, self.rotations)

        normalized = np.empty((xs.shape[0], self.n_components))
        for i, kind in enumerate(self.kinds):
            raw = BASIC_FUNCTIONS[kind](rotated[:, i, :])
            normalized[:, i] = NORMALIZATION_SCALE * raw / self.peak_magnitudes[i]
        normalized += self._penalty[None, :]

        weights = self._weights(diff)
        return -(weights * normalized).sum(1)

    def _weights(self, diff):
        sq_dist = (diff * diff).sum(-1)
        raw = np.exp(-sq_dist / (2.0 * self.dim * self.spreads[None, :] ** 2))
        peak = raw.max(1, keepdims=True)
        damped = np.where(raw == peak, raw, raw * (1.0 - peak ** WEIGHT_SHARPNESS))
        total = damped.sum(1, keepdims=True)
        # A point astronomically far from every shift underflows all
        # weights; fall back to an even blend.
        fallback = total == 0.0
        if fallback.any():
            damped = np.where(fallback, 1.0, damped)
            total = damped.sum(1, keepdims=True)
        return damped / total

    def global_optima(self):
        """Shift vectors and target fitness of the active components."""
        positions = self.shifts[self.active].copy()
        values = np.zeros(len(positions))
        return positions, values


def init_composition(family, dim, rng, min_dist=None):
    """Build the initial landscape for one of F5-F8.

    Shifts are drawn with the spacing rejection used everywhere else;
    each component then gets an independent random rotation.  Draw
    order: all shifts first, then rotations component by component.
    """
    if dim < 2:
        raise ValueError("composition landscapes need dim >= 2")
    try:
        kinds, stretches, spreads = _FAMILY_RECIPES[family]
    except KeyError:
        raise ValueError(f"unknown composition family {family!r}") from None
    if min_dist is None:
        min_dist = MIN_PEAK_DISTANCE

    count = len(kinds)
    shifts = draw_spaced_points(count, dim, rng, min_dist)
    rotations = np.stack([random_rotation(dim, rng) for _ in range(count)])
    landscape = CompositionLandscape(
        family, dim, kinds, shifts, rotations,
        np.asarray(stretches), np.asarray(spreads), np.zeros(count))
    landscape.refresh_normalization()
    return landscape

"""Complex multimodal functions F5-F8: weight-blended composition landscapes.

Each component is a shifted, stretched, rotated basic function whose raw
value is zero at its shift vector.  The landscape is the negated,
weight-blended sum of the normalized component values, so every active
component contributes one global optimum of fitness 0 at its shift, and
no point evaluates above 0.
"""

import numpy as np

from .core import DOMAIN_HIGH, draw_spaced_points, squared_distances
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
    divisors = np.sqrt(np.arange(1.0, z.shape[-1] + 1.0))
    return 1.0 + (z * z).sum(-1) / 4000.0 - np.cos(z / divisors).prod(-1)


def _rastrigin(z):
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(-1)


def _weierstrass(z):
    # The BLAS product `@ _W_AMP` must see the rows in (point,
    # component, coordinate, term) order: laid out (coordinate, point,
    # term), the same rows give other bits at D = 10.  The cosines
    # overwrite the phases, which keeps a run of components fast.
    phases = np.multiply((z + 0.5)[..., None], _W_FREQ)
    per_dim = np.cos(phases, out=phases) @ _W_AMP
    return per_dim.sum(-1) - z.shape[-1] * _W_OFFSET


def _expanded_griewank_rosenbrock(z):
    # Evaluated at z+1 so the Rosenbrock chain bottoms out at the origin;
    # wraps around so every coordinate appears in two links.
    a = z + 1.0
    b = np.concatenate((a[..., 1:], a[..., :1]), axis=-1)
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


class CompositionLandscape:
    """Component-list landscape for one environment of F5-F8.

    Shift vectors are row vectors; rotation is applied by right
    multiplication, z_i = ((x - shift_i) / stretch_i) @ rotation_i.
    Immutable between environmental changes.
    """

    kind = "composition"

    def __init__(self, dim, kinds, shifts, rotations, stretches, spreads):
        self.dim = dim
        self.kinds = kinds
        self.shifts = shifts
        self.rotations = rotations
        self.stretches = stretches
        self.spreads = spreads
        self.set_active_count(len(kinds))
        # the domain's far corner, stretched by each component
        self._corners = np.full(dim, DOMAIN_HIGH) / stretches[:, None]
        # (kind, slice) of each run of equal consecutive kinds
        bounds = [0] + [i for i in range(1, len(kinds))
                        if kinds[i] != kinds[i - 1]] + [len(kinds)]
        self._runs = [(kinds[a], slice(a, b))
                      for a, b in zip(bounds, bounds[1:])]
        self.refresh_normalization()

    @property
    def n_components(self):
        return len(self.kinds)

    def set_active_count(self, count):
        """Keep the first `count` components active, deactivate the rest."""
        self.active = np.arange(self.n_components) < count
        self._penalty = np.where(self.active, 0.0, DEACTIVATION_PENALTY)

    def refresh_normalization(self):
        """Recompute each component's normalizing magnitude.

        The reference point is the domain's far corner pushed through
        the component's own stretch and rotation, so magnitudes must be
        refreshed whenever rotations change.
        """
        corners = np.matmul(self._corners[:, None, :], self.rotations)[:, 0]
        #: |raw value| at the domain's far corner, used for normalization.
        self.peak_magnitudes = np.abs(self._component_values(corners))

    def evaluate_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        scaled = (xs[:, None, :] - self.shifts) / self.stretches[:, None]
        rotated = np.einsum("bnd,nde->bne", scaled, self.rotations)
        normalized = (NORMALIZATION_SCALE * self._component_values(rotated)
                      / self.peak_magnitudes + self._penalty)
        return -(self._weights(xs) * normalized).sum(1)

    def _component_values(self, z):
        """Each component's basic function of its own coordinates: `z`
        is shaped (..., components, D), the result (..., components).
        One call per run of equal kinds, on a view of the run."""
        values = np.empty(z.shape[:-1])
        for kind, run in self._runs:
            values[..., run] = BASIC_FUNCTIONS[kind](z[..., run, :])
        return values

    def _weights(self, xs):
        sq_dist = squared_distances(xs, self.shifts)
        raw = np.exp(-sq_dist / (2.0 * self.dim * self.spreads[None, :] ** 2))
        peak = raw.max(1, keepdims=True)
        damped = np.where(raw == peak, raw, raw * (1.0 - peak ** WEIGHT_SHARPNESS))
        # exponents >= -50 in the domain, so no sum is 0: test_kernel_ranges.py
        return damped / damped.sum(1, keepdims=True)

    def global_optima(self):
        """Shift vectors and target fitness of the active components."""
        positions = self.shifts[self.active].copy()
        values = np.zeros(len(positions))
        return positions, values


def init_composition(family, dim, rng):
    """Build the initial landscape for one of F5-F8.

    Shifts are drawn at least `core.MIN_PEAK_DISTANCE` apart by the
    spacing rejection used everywhere else; each component then gets an
    independent random rotation.  Draw order: all shifts first, then
    rotations component by component.
    """
    try:
        kinds, stretches, spreads = _FAMILY_RECIPES[family]
    except KeyError:
        raise ValueError(f"unknown composition family {family!r}") from None

    count = len(kinds)
    shifts = draw_spaced_points(count, dim, rng)
    rotations = np.stack([random_rotation(dim, rng) for _ in range(count)])
    return CompositionLandscape(dim, kinds, shifts, rotations,
                                np.asarray(stretches), np.asarray(spreads))

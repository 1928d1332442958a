"""Simple multimodal functions F1-F4: cone-peak landscapes.

Fitness is the upper envelope of linear cones, one per peak:

    f(x) = max_i  height_i - width_i * ||x - position_i||

F1 is fully random; F2-F4 place four global peaks on the diagonal at
fixed per-family coordinates.  Global peaks share height 75 and always
dominate the local peaks.
"""

import numpy as np

from .core import MIN_PEAK_DISTANCE, draw_spaced_points

GLOBAL_PEAK_HEIGHT = 75.0

#: Height range (and change bounds) for local peaks.
LOCAL_HEIGHT_LOW, LOCAL_HEIGHT_HIGH = 30.0, 70.0

#: Width range (and change bounds) for every peak.
WIDTH_LOW, WIDTH_HIGH = 1.0, 12.0

#: Height a deactivated global peak presents during evaluation: top of the
#: local range, so it stays a prominent but non-global feature.
DEACTIVATED_HEIGHT = LOCAL_HEIGHT_HIGH

#: Per-family diagonal coordinates and fixed width (F2-F4).
_FIXED_LAYOUTS = {
    "F2": ((-3.0, -2.0, 2.0, 3.0), 12.0),
    "F3": ((-2.5, -1.5, 0.5, 4.5), 5.0),
    "F4": ((-3.0, -1.0, 1.0, 3.0), 5.0),
}

GLOBAL_PEAK_COUNT = 4
MAX_LOCAL_PEAKS = 4


class DFLandscape:
    """Peak-list landscape for one environment of F1-F4.

    Peaks are stored globals-first; `active` tracks which globals
    currently count as optima (all of them except under the
    optima-count change modes).  Instances are treated as immutable
    between environmental changes; mutation belongs to the dynamics
    engine.
    """

    kind = "df"

    def __init__(self, family, dim, heights, widths, positions, n_global):
        self.family = family
        self.dim = dim
        self.heights = heights
        self.widths = widths
        self.positions = positions
        self.n_global = n_global
        self.active = np.ones(len(heights), dtype=bool)
        self._eval_heights = heights.copy()

    @property
    def n_peaks(self):
        return len(self.heights)

    @property
    def n_local(self):
        return self.n_peaks - self.n_global

    @property
    def active_global_count(self):
        return int(self.active[:self.n_global].sum())

    def set_active_count(self, count):
        """Keep the first `count` global peaks active, deactivate the rest."""
        self.active[:self.n_global] = np.arange(self.n_global) < count
        self.refresh()

    def refresh(self):
        """Recompute the evaluation heights after a parameter change."""
        self._eval_heights = self.heights.copy()
        inactive = ~self.active[:self.n_global]
        self._eval_heights[:self.n_global][inactive] = DEACTIVATED_HEIGHT

    def evaluate_many(self, xs):
        """Fitness for a batch of points, one row each."""
        xs = np.asarray(xs, dtype=float)
        diff = xs[:, None, :] - self.positions[None, :, :]
        dist = np.sqrt((diff * diff).sum(-1))
        return (self._eval_heights[None, :] - self.widths[None, :] * dist).max(1)

    def global_optima(self):
        """Positions and heights of the currently active global peaks."""
        mask = self.active[:self.n_global]
        positions = self.positions[:self.n_global][mask].copy()
        values = self.heights[:self.n_global][mask].copy()
        return positions, values


def init_df(family, dim, rng, min_dist=None):
    """Build the initial landscape for one of F1-F4.

    F1 draws everything: a local-peak count in 0..4, spaced positions,
    widths in [1, 12] and local heights in [30, 70].  F2-F4 are fully
    deterministic layouts.  Draw order is fixed and part of the
    reproducibility contract: local count, positions, widths, local
    heights.
    """
    if min_dist is None:
        min_dist = MIN_PEAK_DISTANCE
    if family == "F1":
        n_local = rng.randint(0, MAX_LOCAL_PEAKS)
        n_peaks = GLOBAL_PEAK_COUNT + n_local
        positions = draw_spaced_points(n_peaks, dim, rng, min_dist)
        widths = rng.uniform_vector(WIDTH_LOW, WIDTH_HIGH, n_peaks)
        heights = np.full(n_peaks, GLOBAL_PEAK_HEIGHT)
        if n_local:
            heights[GLOBAL_PEAK_COUNT:] = rng.uniform_vector(
                LOCAL_HEIGHT_LOW, LOCAL_HEIGHT_HIGH, n_local)
        return DFLandscape(family, dim, heights, widths, positions,
                           GLOBAL_PEAK_COUNT)

    try:
        diagonal, width = _FIXED_LAYOUTS[family]
    except KeyError:
        raise ValueError(f"unknown DF family {family!r}") from None
    positions = np.array([np.full(dim, value) for value in diagonal])
    widths = np.full(GLOBAL_PEAK_COUNT, width)
    heights = np.full(GLOBAL_PEAK_COUNT, GLOBAL_PEAK_HEIGHT)
    return DFLandscape(family, dim, heights, widths, positions,
                       GLOBAL_PEAK_COUNT)

"""Peak counting and score aggregation.

An optimum counts as found when some reported individual is close to it
in both position and fitness; each individual is matched only against
its nearest optimum, and duplicates of an already-found optimum do not
count again.  The headline score is found peaks over total peaks,
summed across every run and environment.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AccuracyLevel:
    """Thresholds deciding whether an individual has found an optimum."""

    fitness_accuracy: float
    distance_accuracy: float

    def __post_init__(self):
        if self.fitness_accuracy <= 0 or self.distance_accuracy <= 0:
            raise ValueError("accuracy thresholds must be positive")

    @property
    def key(self):
        """Stable identifier used in file headers, e.g. 1e-03."""
        return format(self.fitness_accuracy, ".0e")


def count_npf(snapshot, optima, level):
    """Number of distinct optima found by a population snapshot.

    `optima` is a (positions, values) pair.  Each individual is
    assigned to its nearest optimum by Euclidean distance (ties go to
    the lowest optimum index); the optimum is found when the fitness
    gap is below the fitness accuracy and the distance below the
    distance accuracy, both strictly.  An individual never counts
    toward a farther optimum, even if it would satisfy both thresholds
    there.
    """
    positions, values = optima
    individuals = np.asarray(snapshot.individuals, dtype=float)
    if len(individuals) == 0 or len(positions) == 0:
        return 0
    fitness = np.asarray(snapshot.fitness, dtype=float)
    diff = individuals[:, None, :] - np.asarray(positions, dtype=float)[None]
    distances = np.sqrt((diff * diff).sum(-1))
    nearest = distances.argmin(1)
    hit = ((np.abs(fitness - np.asarray(values, dtype=float)[nearest])
            < level.fitness_accuracy)
           & (distances[np.arange(len(nearest)), nearest]
              < level.distance_accuracy))
    found = np.zeros(len(positions), dtype=bool)
    found[nearest[hit]] = True
    return int(np.count_nonzero(found))


class RunRecord:
    """Found-peak and total-peak counts, one row per run, one column
    per environment."""

    def __init__(self, npf, peaks):
        npf = np.asarray(npf, dtype=int)
        peaks = np.asarray(peaks, dtype=int)
        if npf.ndim != 2 or npf.shape != peaks.shape:
            raise ValueError(
                f"need matching run-by-environment tables, got {npf.shape} "
                f"and {peaks.shape}")
        if (npf < 0).any() or (npf > peaks).any():
            raise ValueError("found-peak counts must lie in [0, peaks]")
        self.npf = npf
        self.peaks = peaks


def peak_ratio(record):
    """Found peaks over total peaks, both summed over runs and
    environments."""
    total = record.peaks.sum()
    if total == 0:
        raise ValueError("record has no peaks")
    return float(record.npf.sum() / total)


def best_worst(record):
    """Peak ratios of the best and the worst run."""
    per_run_total = record.peaks.sum(1)
    if (per_run_total == 0).any():
        raise ValueError("every run needs at least one peak")
    ratios = record.npf.sum(1) / per_run_total
    return float(ratios.max()), float(ratios.min())


def score_run(snapshots, ground_truth, levels):
    """Score one run's snapshots at several accuracy levels in one pass.

    `ground_truth(env)` gives environment `env`'s (positions, values).
    Returns (peaks, counts): the per-environment optimum counts and a
    dict mapping each level to its per-environment found counts.
    """
    peaks = []
    counts = {level: [] for level in levels}
    for snapshot in snapshots:
        optima = ground_truth(snapshot.environment)
        peaks.append(len(optima[0]))
        for level in levels:
            counts[level].append(count_npf(snapshot, optima, level))
    return peaks, counts

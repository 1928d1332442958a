"""Peak counting and score aggregation.

An optimum counts as found when some reported individual is close to it
in both position and fitness; each individual is matched only against
its nearest optimum, and duplicates of an already-found optimum do not
count again.  The headline score is found peaks over total peaks,
summed across every run and environment.  Every fitness accuracy is
scored in one pass: the accuracy levels are the leading axis of the
found counts.
"""

import numpy as np

from .core import squared_distances

#: Position tolerance of peak counting.
DISTANCE_ACCURACY = 0.05


def count_npf(snapshot, optima, fitness_accuracies):
    """Number of distinct optima found by a population snapshot, one
    count per fitness accuracy.

    `optima` is a (positions, values) pair.  Each individual is
    assigned to its nearest optimum by Euclidean distance (ties go to
    the lowest optimum index); the optimum is found at an accuracy when
    the fitness gap is below it and the distance below
    DISTANCE_ACCURACY, both strictly.  An individual never counts
    toward a farther optimum, even if it would satisfy both thresholds
    there.
    """
    positions, values = (np.asarray(part, dtype=float) for part in optima)
    individuals = np.asarray(snapshot.individuals, dtype=float)
    fitness = np.asarray(snapshot.fitness, dtype=float)
    distances = np.sqrt(squared_distances(individuals, positions))
    # (individual, optimum) pairs of each individual and its nearest
    # optimum, the first of a tie; a row without optima has none
    nearest = distances == distances.min(1, keepdims=True, initial=np.inf)
    nearest &= nearest.cumsum(1) == 1
    close = nearest & (distances < DISTANCE_ACCURACY)
    gaps = np.abs(fitness[:, None] - values)
    levels = np.asarray(fitness_accuracies, dtype=float)
    hit = (gaps < levels[:, None, None]) & close
    return np.count_nonzero(hit.any(1), axis=1)


class RunRecord:
    """Found-peak and total-peak counts, one row per run, one column
    per environment; the found counts may carry a leading axis of
    accuracy levels."""

    def __init__(self, npf, peaks):
        npf = np.asarray(npf, dtype=int)
        peaks = np.asarray(peaks, dtype=int)
        if (peaks.ndim != 2 or npf.ndim not in (2, 3)
                or npf.shape[-2:] != peaks.shape):
            raise ValueError(
                f"need matching run-by-environment tables, got {npf.shape} "
                f"and {peaks.shape}")
        if (npf < 0).any() or (npf > peaks).any():
            raise ValueError("found-peak counts must lie in [0, peaks]")
        self.npf = npf
        self.peaks = peaks


def peak_ratio(record):
    """Found peaks over total peaks, both summed over runs and
    environments; one ratio per level of a record with levels."""
    total = record.peaks.sum()
    if total == 0:
        raise ValueError("record has no peaks")
    return record.npf.sum((-2, -1)) / total


def best_worst(record):
    """Peak ratios of the best and the worst run, per level of a record
    with levels."""
    per_run_total = record.peaks.sum(1)
    if (per_run_total == 0).any():
        raise ValueError("every run needs at least one peak")
    ratios = record.npf.sum(-1) / per_run_total
    return ratios.max(-1), ratios.min(-1)


def score_run(snapshots, ground_truth, settings):
    """Score one run's snapshots at every accuracy level of `settings`.

    `ground_truth(env)` gives environment `env`'s (positions, values).
    Returns (peaks, npf): the per-environment optimum counts and an
    array with one row of found counts per environment, one column per
    fitness accuracy.
    """
    peaks, npf = [], []
    for snapshot in snapshots:
        optima = ground_truth(snapshot.environment)
        peaks.append(len(optima[0]))
        npf.append(count_npf(snapshot, optima,
                             settings.fitness_accuracy_levels))
    return peaks, np.array(npf)

"""Oracles shared by several test modules."""

import numpy as np


def min_pairwise_distance(points):
    """Smallest distance between any two distinct rows (inf for < 2 rows)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        return float("inf")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    return float(dist[np.triu_indices(n, k=1)].min())

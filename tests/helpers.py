"""Oracles and scripted draws shared by several test modules."""

import math

import numpy as np

from dmmobench.composition import (BASIC_FUNCTIONS, DEACTIVATION_PENALTY,
                                   NORMALIZATION_SCALE)
from dmmobench.core import DOMAIN_HIGH


class StubRng:
    """Plays back scripted draws so change formulas and placement can be
    hand-checked; each scripted value, a scalar or a vector, answers one
    draw call."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)

    def uniform_vector(self, low, high, size):
        return np.broadcast_to(self.uniforms.pop(0), size)

    def normal_vector(self, size):
        return np.broadcast_to(self.normals.pop(0), size)


def min_pairwise_distance(points):
    """Smallest distance between any two distinct rows (inf for < 2 rows)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        return float("inf")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    return float(dist[np.triu_indices(n, k=1)].min())


def first_violation(points, min_dist):
    """Index of the first point closer than `min_dist` to an earlier one,
    or None: one point at a time, as the spacing check once ran."""
    for j in range(1, len(points)):
        gaps = np.sqrt(((points[:j] - points[j]) ** 2).sum(1))
        if gaps.min() < min_dist:
            return j
    return None


def rotation_from_pairs(dim, pairs, angles):
    """The plane rotation of each pair, written one pair at a time."""
    rotation = np.eye(dim)
    angles = np.broadcast_to(np.asarray(angles, dtype=float), (len(pairs),))
    for (a, b), angle in zip(pairs, angles):
        c = math.cos(angle)
        s = math.sin(angle)
        rotation[a, a] = c
        rotation[a, b] = s
        rotation[b, a] = -s
        rotation[b, b] = c
    return rotation


def count_npf(snapshot, optima, fitness_accuracy, distance_accuracy):
    """Distinct optima found at one fitness accuracy, written straight
    from the matching rule, one individual and one optimum at a time:
    each individual is matched only to its nearest optimum, the lowest
    index on a tie."""
    positions, values = optima
    found = set()
    for point, fitness in zip(snapshot.individuals, snapshot.fitness):
        best_j, best_d = None, None
        for j, position in enumerate(positions):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(point, position)))
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if (best_j is not None
                and abs(fitness - values[best_j]) < fitness_accuracy
                and best_d < distance_accuracy):
            found.add(best_j)
    return len(found)


def composition_blend(landscape, xs):
    """(fitness of `xs`, peak magnitudes) of a composition landscape,
    each basic function called on one component at a time, as the blend
    and its normalization were first written.  The rotations and the
    weights are computed as the landscape computes them."""
    xs = np.asarray(xs, dtype=float)
    stretches = landscape.stretches[:, None]
    corners = np.matmul((np.full(landscape.dim, DOMAIN_HIGH) / stretches)
                        [:, None, :], landscape.rotations)[:, 0]
    scaled = (xs[:, None, :] - landscape.shifts) / stretches
    rotated = np.einsum("bnd,nde->bne", scaled, landscape.rotations)
    magnitudes = np.empty(landscape.n_components)
    normalized = np.empty((len(xs), landscape.n_components))
    for i, kind in enumerate(landscape.kinds):
        basic = BASIC_FUNCTIONS[kind]
        magnitudes[i] = abs(basic(corners[i:i + 1])[0])
        normalized[:, i] = (NORMALIZATION_SCALE * basic(rotated[:, i, :])
                            / magnitudes[i])
    normalized += np.where(landscape.active, 0.0, DEACTIVATION_PENALTY)
    return -(landscape._weights(xs) * normalized).sum(1), magnitudes

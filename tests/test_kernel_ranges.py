"""The range of every argument the composition kernels receive.

F5-F8 are only evaluated inside the domain [-5, 5]^D: `_checked_batch`
refuses any other point, the grid samples inside the domain and the DE
clips its trials.  A shift o lies in the domain too, so |x - o| is at
most 10·√D; the stretch λ divides it and the rotation keeps it, so
every component sees |z| <= B = 10·√D / λ.  `kernel_bounds` derives
each kernel's own argument bound from B, and the test checks them on
replayed landscapes at every corner of the domain.  |z_i| and
|x - o|² are convex in x, so over the box they peak at a corner: the
corners are exhaustive, not a sample.
"""

import itertools
import math

import numpy as np
import pytest

from dmmobench.composition import _FAMILY_RECIPES, _W_FREQ
from dmmobench.config import BenchmarkSettings
from dmmobench.controller import iterate_environments
from dmmobench.core import (DOMAIN_HIGH, DOMAIN_LOW, problem_spec,
                            squared_distances)

#: Largest coordinate distance between two points of the domain.
SPAN = DOMAIN_HIGH - DOMAIN_LOW

#: Relative slack for the rounding of the stretch and the rotation.
SLACK = 1e-12

#: Environments replayed per problem.
SETTINGS = BenchmarkSettings(environments=5)


def kernel_bounds(family, dim):
    """Per component of `family` at dimension `dim`, in order, its kind
    and the bounds of its kernel's arguments over the domain.

    Each dict gives `z`, the bound B on |z| (and so on every |z_i|),
    and `weight_exponent`, the lowest exponent of its blend weight,
    -SPAN² / (2 σ²).  Weierstrass adds `phase`, its largest cosine
    argument |z_i + ½|·2π·3²⁰; Griewank `quotient`, |z_i| / √i;
    Rastrigin `phase`, |2π z_i|; the expanded Griewank-Rosenbrock
    `link`, 100 (a_i² - a_j)² + (a_i - 1)² with a = z + 1.
    """
    kinds, stretches, spreads = _FAMILY_RECIPES[family]
    bounds = []
    for kind, stretch, spread in zip(kinds, stretches, spreads):
        z = SPAN * math.sqrt(dim) / stretch
        bound = {"z": z, "weight_exponent": -SPAN ** 2 / (2.0 * spread ** 2)}
        if kind == "weierstrass":
            bound["phase"] = (z + 0.5) * 2.0 * math.pi * 3.0 ** 20
        elif kind == "griewank":
            bound["quotient"] = z
        elif kind == "rastrigin":
            bound["phase"] = 2.0 * math.pi * z
        elif kind == "expanded_griewank_rosenbrock":
            bound["link"] = 100.0 * ((z + 1.0) ** 2 + z + 1.0) ** 2 + z * z
        bounds.append((kind, bound))
    return bounds


def _largest_arguments(kind, z):
    """The largest magnitude of each bounded argument over the rows of
    `z`, under the names `kernel_bounds` uses (less the weight's)."""
    largest = {"z": np.sqrt((z * z).sum(-1)).max()}
    if kind == "weierstrass":
        largest["phase"] = np.abs((z + 0.5) * _W_FREQ[-1]).max()
    elif kind == "griewank":
        divisors = np.sqrt(np.arange(1.0, z.shape[-1] + 1.0))
        largest["quotient"] = np.abs(z / divisors).max()
    elif kind == "rastrigin":
        largest["phase"] = np.abs(2.0 * np.pi * z).max()
    elif kind == "expanded_griewank_rosenbrock":
        a = z + 1.0
        b = np.roll(a, -1, axis=-1)
        largest["link"] = (100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2).max()
    return largest


CASES = ([(f"P{n}", 2) for n in range(5, 9)]
         + [(f"P{n}", None) for n in (*range(5, 9), *range(21, 25))])


@pytest.mark.parametrize("problem, dim_override", CASES, ids=[
    problem + (f" --dim {dim}" if dim else "") for problem, dim in CASES])
def test_every_kernel_argument_stays_in_its_bound_at_every_corner(
        problem, dim_override):
    spec = problem_spec(problem)
    dim = dim_override or spec.dimension
    bounds = kernel_bounds(spec.family, dim)
    corners = np.array(list(itertools.product((DOMAIN_LOW, DOMAIN_HIGH),
                                              repeat=dim)))
    for _, landscape, _ in iterate_environments(
            problem, 1, SETTINGS, dim_override=dim_override):
        offsets = ((corners[:, None, :] - landscape.shifts)
                   / landscape.stretches[:, None])
        z = np.einsum("bnd,nde->bne", offsets, landscape.rotations)
        exponents = (-squared_distances(corners, landscape.shifts)
                     / (2.0 * dim * landscape.spreads ** 2))
        for i, (kind, bound) in enumerate(bounds):
            assert kind == landscape.kinds[i]
            for name, value in _largest_arguments(kind, z[:, i]).items():
                assert value <= bound[name] * (1.0 + SLACK), (i, kind, name)
            assert exponents[:, i].min() >= bound["weight_exponent"] * (
                1.0 + SLACK), (i, kind)
            # so each raw weight is at least e**-50 and no blend sums to 0
            assert bound["weight_exponent"] >= -50.0
        assert np.isfinite(landscape.evaluate_many(corners)).all()

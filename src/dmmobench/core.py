"""Shared domain types, the deterministic random-stream contract, and
geometric helpers used by every other module.

The search domain for every benchmark function is the box [-5, 5]^D with
D in {5, 10} for the official problems (2-D instances are allowed for
visualisation).  All arithmetic is IEEE-754 binary64.
"""

import numpy as np

DOMAIN_LOW = -5.0
DOMAIN_HIGH = 5.0

#: Attempts allowed when rejection-sampling a spaced point set.
PLACEMENT_ATTEMPTS = 1000

FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8")
#: The cone-peak families; the others are composition landscapes.
CONE_FAMILIES = FAMILIES[:4]
CHANGE_MODES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")


class RunFrozenError(RuntimeError):
    """Raised when a problem instance is used after its final budget is spent."""


class PlacementError(RuntimeError):
    """Raised when spaced placement or distance repair exceeds its retry cap."""


class RngStream:
    """Deterministic random stream backed by numpy's PCG64 generator.

    The generator algorithm is part of the reproducibility contract:
    identical seeds produce identical draw sequences on every platform,
    so golden files and run records are bit-stable.  Changing the
    generator is a format-breaking change.

    A stream is single-owner: exactly one logical thread of control may
    draw from it.
    """

    def __init__(self, seed, stream=0):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        entropy = seed if stream == 0 else (seed, stream)
        self._gen = np.random.Generator(np.random.PCG64(entropy))
        self._permutation_bases = {}

    def uniform(self, low, high):
        """One uniform real in [low, high)."""
        return float(self._gen.uniform(low, high))

    def uniform_vector(self, low, high, size):
        return self._gen.uniform(low, high, size)

    def randint(self, low, high):
        """One uniform integer in [low, high], both ends inclusive."""
        return int(self._gen.integers(low, high + 1))

    def normal(self):
        """One standard normal draw."""
        return float(self._gen.standard_normal())

    def normal_vector(self, size):
        return self._gen.standard_normal(size)

    def permutation(self, n):
        """A uniformly random permutation of 1..n."""
        return self._gen.permutation(n) + 1

    def index_permutation(self, n):
        """A uniformly random permutation of 0..n-1."""
        return self._gen.permutation(n)

    def index_permutations(self, rows, n):
        """A (rows, n) array whose rows are uniformly random permutations
        of 0..n-1.

        Draws exactly as `rows` successive `index_permutation(n)` calls
        do: the same rows, and the same stream state afterwards.
        """
        base = self._permutation_bases.get((rows, n))
        if base is None:
            base = np.tile(np.arange(n), (rows, 1))
            base.flags.writeable = False
            self._permutation_bases[rows, n] = base
        # `permuted` shuffles a copy, so one read-only base serves every call
        return self._gen.permuted(base, axis=1)


def make_rng(seed, stream=0):
    """Create a named random stream for the given seed.

    Streams with different `stream` numbers are independent even for the
    same seed; the problem dynamics draw from stream 0 and optimizers
    from stream 1 so neither perturbs the other.
    """
    return RngStream(seed, stream)


def format_floats(values):
    """Every value of an array-like, in C order, as space-separated text.

    This is the one float format of every text artifact: 17 significant
    digits, so each value reads back bit for bit.  The bytes are those
    of `format(v, ".16e")`, including signed zeros, infinities and NaN.
    """
    return " ".join(map("%.16e".__mod__,
                        np.asarray(values, float).ravel().tolist()))


#: Length up to which numpy's pairwise summation runs one unrolled block.
_PAIRWISE_BLOCK = 128


def coordinate_sum(terms):
    """Sum over the leading axis, of length at least 1, bit for bit as
    numpy's `sum` adds the elements of one contiguous axis.

    `coordinate_sum(np.moveaxis(t, -1, 0))` equals `t.sum(-1)` for a
    C-contiguous `t`, but each addition runs over whole arrays instead
    of one short loop per output element, which is faster when the
    summed axis is short and the others are long.  Numpy's order
    (pairwise summation): fewer than 8 terms are added in order; up to
    128 are gathered in eight interleaved accumulators, which are then
    combined pairwise, and the tail is added in order; longer runs are
    split at half their length rounded down to a multiple of 8 and the
    two halves summed the same way.  The one difference: numpy starts
    from +0.0, so a sum of negative zeros only is +0.0 there and -0.0
    here.  A sum of squares holds no negative zero.
    """
    n = len(terms)
    if n == 1:
        return terms[0].copy()
    if n < 8:
        total = terms[0] + terms[1]
        for term in terms[2:]:
            total += term
        return total
    if n <= _PAIRWISE_BLOCK:
        blocked = n - n % 8
        acc = terms[:8]
        if blocked > 8:
            acc = acc + terms[8:16]
            for start in range(16, blocked, 8):
                acc += terms[start:start + 8]
        # one slab at a time: faster here than adding strided halves
        total = acc[0] + acc[1]
        total += acc[2] + acc[3]
        right = acc[4] + acc[5]
        right += acc[6] + acc[7]
        total += right
        for term in terms[blocked:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return coordinate_sum(terms[:half]) + coordinate_sum(terms[half:])


def draw_spaced_points(count, dim, rng, min_dist):
    """Draw `count` points uniformly in the box, rejecting any placement
    closer than `min_dist` to an earlier point.

    The box is vast relative to the exclusion balls, so rejection is
    practically free; exhausting the retry cap indicates a bug.
    """
    points = np.empty((count, dim))
    for i in range(count):
        for _ in range(PLACEMENT_ATTEMPTS):
            candidate = rng.uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, dim)
            if i == 0:
                points[i] = candidate
                break
            gaps = np.sqrt(((points[:i] - candidate) ** 2).sum(1))
            if gaps.min() >= min_dist:
                points[i] = candidate
                break
        else:
            raise PlacementError(
                f"could not place point {i + 1}/{count} with spacing {min_dist}")
    return points


def reflect_into_domain(points):
    """Fold coordinates back into the domain by reflection at the walls."""
    width = DOMAIN_HIGH - DOMAIN_LOW
    folded = np.mod(np.asarray(points, dtype=float) - DOMAIN_LOW, 2.0 * width)
    folded = np.where(folded <= width, folded, 2.0 * width - folded)
    return DOMAIN_LOW + folded


class ProblemSpec:
    """One row of the 24-problem benchmark table."""

    __slots__ = ("index", "family", "mode", "dimension")

    def __init__(self, index, family, mode, dimension):
        self.index = index
        self.family = family
        self.mode = mode
        self.dimension = dimension

    @property
    def group(self):
        number = int(self.index[1:])
        return "G1" if number <= 8 else ("G2" if number <= 16 else "G3")

    def __repr__(self):
        return (f"ProblemSpec({self.index}: {self.family}, "
                f"{self.mode}, D={self.dimension})")

    def __eq__(self, other):
        return (isinstance(other, ProblemSpec)
                and (self.index, self.family, self.mode, self.dimension)
                == (other.index, other.family, other.mode, other.dimension))


def _build_problem_table():
    rows = {}
    # G1: one problem per function family, small-step changes, D=5.
    for i, family in enumerate(FAMILIES, start=1):
        rows[f"P{i}"] = (family, "C1", 5)
    # G2: F8 under every change mode, D=5.
    for i, mode in enumerate(CHANGE_MODES, start=9):
        rows[f"P{i}"] = ("F8", mode, 5)
    # G3: same as G1 but D=10.
    for i, family in enumerate(FAMILIES, start=17):
        rows[f"P{i}"] = (family, "C1", 10)
    return {index: ProblemSpec(index, *row) for index, row in rows.items()}


#: The 24 official problems, P1..P24.
PROBLEM_TABLE = _build_problem_table()

PROBLEM_INDICES = tuple(PROBLEM_TABLE)


def problem_spec(index):
    """Look up a benchmark problem by its P-index."""
    try:
        return PROBLEM_TABLE[index]
    except KeyError:
        raise ValueError(f"unknown problem index {index!r}; expected P1..P24") from None

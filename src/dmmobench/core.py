"""Shared domain types, the deterministic random-stream contract, and
geometric helpers used by every other module.

The search domain for every benchmark function is the box [-5, 5]^D with
D in {5, 10} for the official problems (2-D instances are allowed for
visualisation).  All arithmetic is IEEE-754 binary64.
"""

import numbers

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


def check_integer(name, value, minimum=None, error=ValueError):
    """Raise `error`, naming `name` and `value`, for a value that is not
    an integer (a bool is not one) or is below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise error(f"{name} {value!r} is less than {minimum}")


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
        check_integer("seed", seed, 0)
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


#: Exact powers of ten, 10**0 .. 10**22 (5**22 < 2**53), the scales
#: that bring a value of the fast range to 17 integer digits.
_POW10 = 10.0 ** np.arange(23)
#: Values per pass of the formatter, which bounds its temporaries.
_FORMAT_CHUNK = 8192


def _veltkamp_split(a):
    """`a` as hi + lo exactly, each with at most 26 significant bits, so
    that products of the halves are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp_split(_POW10)


def _words(text):
    """ASCII text as little-endian 32-bit words of four characters."""
    return np.frombuffer(text.encode("ascii"), "<u4")


#: Each of 0000-9999 as four ASCII digits in one word.
_DIGIT_WORDS = np.ascontiguousarray(np.moveaxis(
    np.indices((10,) * 4, np.uint8) + 48, 0, -1)).view("<u4").ravel()
#: [0, sign, lead digit, "."] indexed by lead + 11 * sign; a lead of 10
#: comes only from values the range checks refuse.
_HEAD_WORDS = _words("".join(f"\0{sign}{chr(48 + lead)}."
                             for sign in "\0-" for lead in range(11)))
#: "e+16" .. "e-06": the exponent 16 - k of a value scaled by 10**k.
_EXPONENT_WORDS = _words("".join(f"e{16 - k:+03d}" for k in range(23)))
#: Words of a value's record: [0, sign, lead, "."], four groups of four
#: digits, exponent, [separator, 0, 0, 0].  Zero bytes are dropped.
_RECORD_WORDS = 7


def format_rows(values, widths):
    """Rows of floats as text, each value printed as `"%.16e" % v`.

    `values` is read in C order; row i holds the next `widths[i]` of
    them, joined by single spaces.  Returns one str per row.  This is
    the one float format of every text artifact: 17 significant digits,
    so each value reads back bit for bit, with the bytes of `"%.16e"`
    including signed zeros, infinities and NaN.

    Zeros, and values with 1e-5 <= |v| < 1e15, are formatted in numpy
    with `+ - *` only (see `_format_chunk`), so the bytes are the same
    on every IEEE-754 machine.  A row holding any other value, or one
    the exact range check refuses, is formatted with `"%.16e"` whole.
    """
    values = np.asarray(values, float).ravel()
    widths = np.asarray(widths, np.intp)
    ends = np.cumsum(widths)
    if widths.sum() != len(values):
        raise ValueError(
            f"rows of {widths.sum()} values in all, given {len(values)}")
    last = np.zeros(len(values), bool)
    last[ends[widths > 0] - 1] = True
    exact = np.empty(len(values), bool)
    # chunks bound the temporaries; a row may straddle two of them
    rows, tail = [], ""
    for start in range(0, len(values), _FORMAT_CHUNK):
        chunk = slice(start, start + _FORMAT_CHUNK)
        text, exact[chunk] = _format_chunk(values[chunk], last[chunk])
        *done, tail = (tail + text).split("\n")
        rows += done
    if not widths.all():
        filled = iter(rows)
        rows = [next(filled) if width else "" for width in widths.tolist()]
    if not exact.all():
        inexact = np.concatenate(([0], np.cumsum(~exact)))
        starts = ends - widths
        for i in np.flatnonzero(inexact[ends] > inexact[starts]).tolist():
            rows[i] = " ".join(map("%.16e".__mod__,
                                   values[starts[i]:ends[i]].tolist()))
    return rows


def _format_chunk(values, last):
    """The values as text, each followed by a line break where `last`
    is set and by a space elsewhere, and which of them are exact.

    A value v with 1e-5 <= |v| < 1e15 has a decimal exponent e =
    floor(log10 |v|) in -6..15, so 10**k with k = 16 - e is exact, and
    x = |v| * 10**k = hi + lo exactly by Dekker's product.  hi is an
    integer (it is at least 2**53), and lo is a multiple of 2**-52 with
    |lo| <= 8, so its floor and fraction are exact: the 17 digits are
    hi + floor(lo), rounded half to even on the fraction.  They are the
    right ones only if 10**16 <= x < 10**17; `log10` may miss e by one
    near a power of ten, and then the range checks mark v inexact, so
    its rounding never changes a byte.
    """
    magnitude = np.abs(values)
    exact = (magnitude >= 1e-5) & (magnitude < 1e15)
    magnitude = np.where(exact, magnitude, 1.0)
    # k is in 1..22, and hi, within a decade of 1e16, fits in int64
    k = 16 - np.floor(np.log10(magnitude)).astype(np.intp)
    hi = magnitude * _POW10[k]
    a_hi, a_lo = _veltkamp_split(magnitude)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    exact &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    floor = np.floor(lo)
    fraction = lo - floor
    digits = hi.astype(np.int64) + floor.astype(np.int64)
    digits += (fraction > 0.5) | ((fraction == 0.5) & (digits % 2 == 1))
    exact &= digits < 10 ** 17
    zero = values == 0
    digits[zero] = 0
    k[zero] = 16
    records = np.empty((len(values), _RECORD_WORDS), "<u4")
    lead, rest = np.divmod(digits, 10 ** 16)
    records[:, 0] = _HEAD_WORDS[lead + 11 * np.signbit(values)]
    for word, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=1):
        group, rest = np.divmod(rest, scale)
        records[:, word] = _DIGIT_WORDS[group]
    records[:, 4] = _DIGIT_WORDS[rest]
    records[:, 5] = _EXPONENT_WORDS[k]
    records[:, 6] = np.where(last, ord("\n"), ord(" "))
    text = records.tobytes().translate(None, b"\0").decode("ascii")
    return text, exact | zero


def squared_distances(a, b):
    """Squared distances between the rows of `a` (..., n, D) and of `b`
    (..., m, D), shaped (..., n, m), bit for bit as numpy's `sum` adds
    the D squares of one pair, which the golden hashes rest on: pairwise
    summation, that is fewer than 8 terms in order, and 8 to 15 from
    eight accumulators, one per term, combined pairwise, then the tail
    in order.  Below 128 pairs, where that is faster, and from 16
    coordinates on, which no benchmark problem reaches, numpy sums the
    point-major squares itself.  Otherwise the coordinates are laid out
    first, so that each of the D additions spans every pair."""
    dim = a.shape[-1]
    if dim >= 16 or a.shape[-2] * b[..., 0].size < 128:
        return ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(-1)
    axes = (a.ndim - 1, *range(a.ndim - 1))
    diff = (np.ascontiguousarray(a.transpose(axes))[..., :, None]
            - np.ascontiguousarray(b.transpose(axes))[..., None, :])
    squares = np.multiply(diff, diff, out=diff)
    if dim < 8:
        # in order, as numpy's pairwise sum adds fewer than 8 terms
        return np.add.reduce(squares, axis=0)
    # one slab at a time: faster here than adding strided halves
    total = squares[0] + squares[1]
    total += squares[2] + squares[3]
    right = squares[4] + squares[5]
    right += squares[6] + squares[7]
    total += right
    for square in squares[8:]:
        total += square
    return total


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
            gaps = np.sqrt(squared_distances(points[:i], candidate[None]))
            if gaps.min(initial=np.inf) >= min_dist:
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

import numpy as np
from hypothesis import given, strategies as st

from dmmobench.core import format_rows, reflect_into_domain
from dmmobench.dynamics import ScalarChangeParams, apply_scalar_change


class OneShotRng:
    def __init__(self, draw, noise):
        self.draw = draw
        self.noise = noise

    def uniform(self, low, high):
        return self.draw

    def normal(self):
        return self.noise

    def randint(self, low, high):
        return low

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


@given(st.lists(finite, min_size=1, max_size=12))
def test_reflection_always_lands_in_the_domain(coords):
    folded = reflect_into_domain(np.array(coords))
    assert (folded >= -5.0).all() and (folded <= 5.0).all()
    # in-domain points are untouched, so folding is idempotent
    assert np.array_equal(reflect_into_domain(folded), folded)


@given(
    mode=st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]),
    value=st.floats(min_value=1.0, max_value=12.0),
    t=st.integers(min_value=1, max_value=60),
    draw=st.floats(min_value=-1.0, max_value=1.0),
    noise=st.floats(min_value=-6.0, max_value=6.0),
)
def test_scalar_changes_respect_their_bounds(mode, value, t, draw, noise):
    params = ScalarChangeParams(1.0, 12.0, 1.0)
    rng = OneShotRng(draw, noise)
    out = apply_scalar_change(mode, value, t, params, rng)
    assert params.e_min <= out <= params.e_max


#: Any float64, or one from the range the formatter handles in numpy.
any_float = st.floats() | st.floats(min_value=-1e15, max_value=1e15)


@given(st.lists(st.lists(any_float, max_size=6), max_size=6))
def test_format_rows_prints_each_value_as_format_e16(rows):
    flat = [value for row in rows for value in row]
    assert format_rows(flat, [len(row) for row in rows]) == [
        " ".join(map("%.16e".__mod__, row)) for row in rows]

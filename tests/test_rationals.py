"""Exact matrix product: the sparse row-wise mat_mul against the definition."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic.errors import DimensionError
from conelogic.rationals import mat_mul

# mostly zero, with both signs so that products cancel
entry = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


def matrix(rows, cols):
    return st.lists(
        st.tuples(*[entry] * cols) if cols else st.just(()),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


@st.composite
def factors(draw):
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrix(m, k)), draw(matrix(k, n))


def definitional(a, b):
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(cols))
        for i in range(len(a))
    )


@settings(max_examples=200, deadline=None)
@given(factors())
def test_mat_mul_matches_the_definition(ab):
    a, b = ab
    out = mat_mul(a, b)
    assert out == definitional(a, b)
    assert all(type(x) is F for row in out for x in row)


def test_mat_mul_cancellation_and_empty_shapes():
    a = ((F(1), F(-1)),)
    b = ((F(2), F(0)), (F(2), F(3)))
    assert mat_mul(a, b) == ((F(0), F(-3)),)
    assert mat_mul((), b) == ()  # no rows
    assert mat_mul(((), ()), ()) == ((), ())  # inner dimension 0
    assert mat_mul(a, ((), ())) == ((),)  # no columns


@pytest.mark.parametrize(
    "a, b",
    [
        (((F(1), F(2)),), ((F(1),),)),
        (((F(1),),), ((F(1),), (F(1),))),
        (((F(1),),), ()),
        (((),), ((F(1),),)),
    ],
)
def test_mat_mul_rejects_mismatched_shapes(a, b):
    with pytest.raises(DimensionError):
        mat_mul(a, b)

"""Multiset coordinate combinatorics and the pairing-weight identity."""

from fractions import Fraction
from itertools import permutations
from math import comb

from hypothesis import given, strategies as st

from conelogic.multisets import (
    graded_layout,
    mset_count,
    mset_union,
    msets,
    multiplicity,
)
from reference import monomial


def test_counts_match_enumeration():
    for dim in range(5):
        for degree in range(5):
            assert len(msets(dim, degree)) == mset_count(dim, degree)
            # The closed form the size guard of whynot_obj reads.
            lay = graded_layout(dim, degree)
            assert len(lay.coords) == comb(dim + degree, degree)


def test_lex_order_and_positions():
    ms = msets(3, 2)
    assert ms == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert ms == tuple(sorted(ms))
    lay = graded_layout(3, 2)
    # Grade 2 is the last block: it starts after () and the three singletons.
    assert lay.coords[4:] == ms
    assert lay.index[(1, 2)] - 4 == 4


def test_degree_zero_and_dim_zero():
    assert msets(0, 0) == ((),)
    assert msets(0, 3) == ()
    assert mset_count(0, 0) == 1
    assert mset_count(0, 3) == 0
    lay = graded_layout(0, 3)
    assert (lay.coords, lay.grades, lay.weights) == (((),), (0,), (1,))


def test_multiplicity_values():
    assert multiplicity(()) == 1
    assert multiplicity((0,)) == 1
    assert multiplicity((0, 0)) == 1
    assert multiplicity((0, 1)) == 2
    assert multiplicity((0, 1, 1)) == 3
    assert multiplicity((0, 1, 2)) == 6


def test_arrangements_agree_with_multiplicity():
    for m in msets(3, 3):
        assert len(set(permutations(m))) == multiplicity(m)


def test_mset_union_merges_sorted():
    assert mset_union((0, 2), (1,)) == (0, 1, 2)
    assert mset_union((0, 0), (0, 1)) == (0, 0, 0, 1)
    assert mset_union() == ()


def test_graded_enumeration_is_degree_major():
    lay = graded_layout(2, 2)
    assert lay.coords == ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
    assert lay.grades == (0, 1, 1, 2, 2, 2)
    assert lay.weights == (1, 1, 1, 1, 2, 1)
    assert all(type(w) is int for w in lay.weights)
    assert lay.index[(0, 1)] == 4
    assert graded_layout(2, 2) is lay


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_power_pairing_identity(dim, degree, data):
    # sum_mu multiplicity(mu) phi^mu x^mu == <phi, x>^degree, exactly.
    rat = st.fractions(
        min_value=Fraction(0), max_value=Fraction(3), max_denominator=7
    )
    phi = [data.draw(rat) for _ in range(dim)]
    x = [data.draw(rat) for _ in range(dim)]
    lhs = sum(
        (
            multiplicity(m) * monomial(phi, m) * monomial(x, m)
            for m in msets(dim, degree)
        ),
        Fraction(0),
    )
    inner = sum((a * b for a, b in zip(phi, x)), Fraction(0))
    assert lhs == inner**degree

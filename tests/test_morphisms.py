"""Sparse morphisms: the column store against the dense definitions.

A Morphism keeps, per source coordinate, the nonzero (target row, value)
pairs in ascending row order; `matrix` is a dense view built from them.
compose, adjoint, morphism_norm and application walk the nonzeros only, so
each is checked here against its definition on the dense view, on
mostly-zero matrices with both signs so that products cancel.
"""

from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic.backends import cube_pcs, simplex_pcs
from conelogic.cones import dual_object, pairing, zero_obj
from conelogic.errors import CompositionError, DimensionError, MembershipError
from conelogic.exponentials import bang_obj, whynot_obj
from conelogic.mall import adjoint, compose, identity, mor, morphism_norm, sparse_mor

# mostly zero, with both signs so that products cancel
entry = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
nonneg = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
)


def obj(n):
    return simplex_pcs(n) if n else zero_obj()


def matrix(rows, cols, entries=entry):
    return st.lists(
        st.tuples(*[entries] * cols) if cols else st.just(()),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


@st.composite
def factors(draw):
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrix(m, k)), draw(matrix(k, n)), (m, k, n)


def product_by_definition(a, b, inner, cols):
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols))
        for row in a
    )


def apply_by_definition(m, x):
    return tuple(sum((r * y for r, y in zip(row, x)), F(0)) for row in m)


def assert_canonical(f):
    assert len(f.cols) == f.source.dim
    for col in f.cols:
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows))
        assert all(0 <= i < f.target.dim for i in rows)
        assert all(type(x) is F and x != 0 for _, x in col)


@settings(max_examples=200, deadline=None)
@given(factors())
def test_compose_matches_the_definition(abd):
    a, b, (m, k, n) = abd
    g = mor(obj(k), obj(m), a, validate=False)
    f = mor(obj(n), obj(k), b, validate=False)
    h = compose(g, f)
    assert h.matrix == product_by_definition(a, b, k, n)
    assert (h.source, h.target) == (f.source, g.target)
    assert_canonical(h)
    assert all(type(x) is F for row in h.matrix for x in row)


def test_compose_cancellation_and_empty_shapes():
    g = mor(obj(2), obj(1), [[1, -1]], validate=False)
    f = mor(obj(2), obj(2), [[2, 0], [2, 3]], validate=False)
    h = compose(g, f)
    assert h.matrix == ((F(0), F(-3)),)
    assert h.cols == ((), ((0, F(-3)),))  # the cancelled entry is absent
    z = zero_obj()
    assert compose(mor(obj(2), z, ()), f).matrix == ()  # no rows
    into, out = mor(obj(2), z, ()), mor(z, obj(3), [(), (), ()])
    assert compose(out, into).matrix == ((F(0), F(0)),) * 3  # inner dimension 0
    assert compose(g, mor(z, obj(2), [(), ()])).matrix == ((),)  # no columns


def test_compose_reuses_unit_columns():
    g = mor(obj(2), obj(2), [[F(1, 2), 0], [1, 3]])
    assert compose(g, identity(obj(2))).cols == g.cols
    assert compose(g, identity(obj(2))).cols[1] is g.cols[1]


@pytest.mark.parametrize(
    "g_dims, f_dims",
    [((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 1), (0, 0)), ((0, 1), (1, 1))],
)
def test_compose_rejects_mismatched_objects(g_dims, f_dims):
    # (source dim, target dim) of each; f's target is never g's source
    g = mor(obj(g_dims[0]), obj(g_dims[1]), [[1] * g_dims[0]] * g_dims[1])
    f = mor(obj(f_dims[0]), obj(f_dims[1]), [[1] * f_dims[0]] * f_dims[1])
    with pytest.raises(CompositionError):
        compose(g, f)


WEIGHTED = [
    obj(0),
    obj(2),
    cube_pcs(3),
    whynot_obj(simplex_pcs(2), 2),  # weights (1, 1, 1, 1, 2, 1)
    bang_obj(cube_pcs(2), 2),
]


@st.composite
def weighted_maps(draw):
    src = draw(st.sampled_from(WEIGHTED))
    tgt = draw(st.sampled_from(WEIGHTED))
    rows = draw(matrix(tgt.dim, src.dim))
    return mor(src, tgt, rows, validate=False)


@settings(max_examples=80, deadline=None)
@given(weighted_maps(), st.data())
def test_adjoint_matches_the_definition(f, data):
    fa = adjoint(f)
    ws, wt = f.source.pairing_weights, f.target.pairing_weights
    assert (fa.source, fa.target) == (dual_object(f.target), dual_object(f.source))
    assert fa.matrix == tuple(
        tuple(f.matrix[j][i] * wt[j] / ws[i] for j in range(f.target.dim))
        for i in range(f.source.dim)
    )
    assert_canonical(fa)
    assert adjoint(fa) == f
    psi = data.draw(st.tuples(*[entry] * f.target.dim))
    v = data.draw(st.tuples(*[entry] * f.source.dim))
    assert pairing(f.source, fa(psi), v) == pairing(f.target, psi, f(v))


@settings(max_examples=80, deadline=None)
@given(weighted_maps(), st.data())
def test_call_matches_the_definition(f, data):
    x = data.draw(st.tuples(*[entry] * f.source.dim))
    assert f(x) == apply_by_definition(f.matrix, x)
    assert all(type(y) is F for y in f(x))
    with pytest.raises(DimensionError):
        f(x + (F(1),))


PLAIN = [obj(0), obj(1), obj(3), cube_pcs(2), cube_pcs(3), dual_object(obj(2))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLAIN), st.sampled_from(PLAIN), st.data())
def test_morphism_norm_matches_the_definition(src, tgt, data):
    rows = data.draw(matrix(tgt.dim, src.dim, nonneg))
    f = mor(src, tgt, rows)
    images = [apply_by_definition(rows, u) for u in src.p_ball_gens]
    want = max(
        (
            sum((g_c * y_c for g_c, y_c in zip(g, y)), F(0))
            for y in images
            for g in tgt.q_ball_gens
        ),
        default=F(0),
    )
    assert morphism_norm(f) == want


# -- canonical form -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_mor_round_trips_its_rows(n, m, data):
    rows = data.draw(matrix(m, n))
    f = mor(obj(n), obj(m), [[str(x) for x in r] for r in rows], validate=False)
    assert f.matrix == rows
    assert_canonical(f)


small = st.sampled_from([F(0), F(0), F(1), F(1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_equality_and_hash_follow_the_dense_matrix(n, m, data):
    a = data.draw(matrix(m, n, small))
    b = data.draw(matrix(m, n, small))
    f, g = mor(obj(n), obj(m), a), mor(obj(n), obj(m), b)
    assert (f == g) == (f.matrix == g.matrix)
    if f == g:
        assert hash(f) == hash(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_mor_equals_mor_and_audits_alike(n, m, data):
    rows = data.draw(matrix(m, n))
    src, tgt = obj(n), obj(m)
    # every entry, zeros included, in a shuffled order per column
    r = random.Random(data.draw(st.integers(0, 2**16)))
    cols = []
    for j in range(n):
        col = [(i, rows[i][j]) for i in range(m)]
        r.shuffle(col)
        cols.append(col)
    negative = any(x < 0 for row in rows for x in row)
    if not negative:
        assert sparse_mor(src, tgt, cols) == mor(src, tgt, rows)
        return
    with pytest.raises(MembershipError) as by_rows:
        mor(src, tgt, rows)
    with pytest.raises(MembershipError) as by_cols:
        sparse_mor(src, tgt, cols)
    assert by_cols.value.witness == by_rows.value.witness
    assert str(by_cols.value) == str(by_rows.value)
    rr, cc = by_rows.value.witness
    assert rows[rr][cc] < 0
    assert all(x >= 0 for x in rows[rr][:cc]) and all(
        x >= 0 for row in rows[:rr] for x in row
    )


def test_sparse_mor_checks_shapes():
    with pytest.raises(DimensionError):
        sparse_mor(obj(2), obj(2), [[(0, F(1))]])
    with pytest.raises(DimensionError):
        sparse_mor(obj(1), obj(2), [[(2, F(1))]])
    with pytest.raises(DimensionError):
        sparse_mor(obj(1), obj(2), [[(-1, F(1))]])

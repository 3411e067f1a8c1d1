"""Sparse morphisms: the column store against the dense definitions.

A Morphism keeps, per source coordinate, the nonzero (target row, value)
pairs in ascending row order; `matrix` is a dense view built from them, and
`int_cols` an integer view (one common denominator). compose, adjoint,
morphism_norm and application walk the nonzeros only, and compose and
morphism_norm run on the integer view, so each is checked here against its
definition on the dense view in Fractions: on mostly-zero matrices with
both signs so that products cancel, with denominators both small and up to
60 so that common denominators mix, between weighted (graded and Sym^n)
endpoints, and for the norm against explicit, weighted and implicit tensor
targets. The integer views are built only when read: unit columns and
graded endpoints never build them, and each lift derives one.
"""

from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic import mall
from conelogic.backends import cube_pcs, simplex_pcs
from conelogic.cones import dual_object, materialize_q, pairing, zero_obj
from conelogic.errors import CapabilityError, CompositionError, DimensionError, MembershipError
from conelogic.exponentials import bang_mor, bang_obj, eta, mu, whynot_mor, whynot_obj
from conelogic.mall import (
    Morphism,
    adjoint,
    compose,
    identity,
    mor,
    morphism_norm,
    sparse_mor,
    tensor_obj,
)
from conelogic.symmetric import sym_power_obj

# mostly zero, with both signs so that products cancel; small denominators
# repeat, denominators up to 60 make the common denominators mix
entry = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=60),
)
nonneg = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
    st.fractions(min_value=0, max_value=2, max_denominator=60),
)


def obj(n):
    return simplex_pcs(n) if n else zero_obj()


def signed_mor(src, tgt, rows):
    """The map with these dense rows, entries of either sign. mor audits
    positivity and refuses a negative entry, so the canonical columns (the
    nonzeros of each column in ascending row order) go to Morphism as they
    are."""
    cols = tuple(
        tuple((i, F(row[j])) for i, row in enumerate(rows) if row[j]) for j in range(src.dim)
    )
    return Morphism(src, tgt, cols)


def matrix(rows, cols, entries=entry):
    return st.lists(
        st.tuples(*[entries] * cols) if cols else st.just(()),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


WEIGHTED = [
    obj(0),
    obj(2),
    cube_pcs(3),
    whynot_obj(simplex_pcs(2), 2),  # weights (1, 1, 1, 1, 2, 1)
    bang_obj(cube_pcs(2), 2),
]
ENDPOINTS = [obj(n) for n in range(6)] + WEIGHTED[2:]


@st.composite
def factors(draw):
    """a -f-> b -g-> c over plain and weighted endpoints of dims 0..6, as
    (rows of g, rows of f, (a, b, c))."""
    a, b, c = (draw(st.sampled_from(ENDPOINTS)) for _ in range(3))
    return draw(matrix(c.dim, b.dim)), draw(matrix(b.dim, a.dim)), (a, b, c)


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
    gm, fm, (a, b, c) = abd
    g = signed_mor(b, c, gm)
    f = signed_mor(a, b, fm)
    h = compose(g, f)
    assert h.matrix == product_by_definition(gm, fm, b.dim, a.dim)
    assert (h.source, h.target) == (f.source, g.target)
    assert_canonical(h)
    assert all(type(x) is F for row in h.matrix for x in row)


def test_compose_cancellation_and_empty_shapes():
    g = signed_mor(obj(2), obj(1), [[1, -1]])
    f = signed_mor(obj(2), obj(2), [[2, 0], [2, 3]])
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


@st.composite
def weighted_maps(draw):
    src = draw(st.sampled_from(WEIGHTED))
    tgt = draw(st.sampled_from(WEIGHTED))
    rows = draw(matrix(tgt.dim, src.dim))
    return signed_mor(src, tgt, rows)


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
# Sym^2 of the square pairs with weights (1, 2, 1); a tensor's dual side is
# implicit, so its norm is an LP and the definition reads the polar.
NORMED = PLAIN + [sym_power_obj(cube_pcs(2), 2), tensor_obj(obj(2), cube_pcs(2))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NORMED), st.sampled_from(NORMED), st.data())
def test_morphism_norm_matches_the_definition(src, tgt, data):
    rows = data.draw(matrix(tgt.dim, src.dim, nonneg))
    f = mor(src, tgt, rows)
    images = [apply_by_definition(rows, u) for u in src.p_ball_gens]
    w = tgt.pairing_weights
    want = max(
        (
            sum((w_c * g_c * y_c for w_c, g_c, y_c in zip(w, g, y)), F(0))
            for y in images
            for g in materialize_q(tgt).q_ball_gens
        ),
        default=F(0),
    )
    assert morphism_norm(f) == want


# -- integer views --------------------------------------------------------------


def test_unit_columns_leave_the_integer_views_unbuilt():
    # compose reads int_cols only for a column of f with two or more
    # entries; eta's columns are single weights and an identity's are 1s.
    b, n = cube_pcs(2), 2
    m, e = mu(b, n), eta(whynot_obj(b, n), n)
    compose(m, e)
    assert "int_cols" not in vars(m) and "int_cols" not in vars(e)
    g = mor(obj(2), obj(2), [[F(1, 2), 0], [1, F(1, 3)]])
    compose(g, identity(obj(2)))
    assert "int_cols" not in vars(g)
    # one column of two entries reads both views
    f = mor(obj(2), obj(2), [[1, 0], [F(1, 5), 1]])
    assert compose(g, f).matrix == ((F(1, 2), F(0)), (F(16, 15), F(1, 3)))
    assert g.int_cols == (6, (((0, 3), (1, 6)), ((1, 2),)))
    assert "int_cols" in vars(f)


def test_morphism_norm_on_graded_endpoints_builds_no_view():
    # A graded source has no exact generators and a graded target no exact
    # norm: the gate of the lifts trusts these maps without an integer view.
    b = cube_pcs(2)
    for f in (mu(b, 2), adjoint(eta(b, 2)), eta(b, 2)):
        with pytest.raises(CapabilityError):
            morphism_norm(f)
        assert "int_cols" not in vars(f)


def test_each_lift_derives_one_integer_view(monkeypatch):
    # The contraction gate and the symmetric-power kernel of !s and ?l read
    # the same view: int_cols, the only caller of mall.lcm, runs once.
    calls = []
    real = mall.lcm
    monkeypatch.setattr(mall, "lcm", lambda *xs: calls.append(1) or real(*xs))
    s = mor(cube_pcs(2), obj(2), [[F(1, 4), F(1, 6)], [0, F(1, 3)]])
    for lift in (bang_mor, whynot_mor):
        calls.clear()
        lift(s, 2)
        assert len(calls) == 1, lift


# -- canonical form -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_mor_round_trips_its_rows(n, m, data):
    rows = data.draw(matrix(m, n, nonneg))
    f = mor(obj(n), obj(m), [[str(x) for x in r] for r in rows])
    assert f.matrix == rows
    assert_canonical(f)
    assert signed_mor(obj(n), obj(m), rows) == f  # the helper is canonical too


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

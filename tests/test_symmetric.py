"""Symmetric powers: coordinates, the power functor, and the two norms.

Oracle values derived by hand before the assertions:

  * f(x, y) = (x1 y2 + x2 y1)/2 over the two-point simplex object has
    multiset coordinate f_{01} = 1/2; its tuple norm is f(e1, e2) = 1/2 and
    its diagonal sup is f(x, x) = x1 x2 at (1/2, 1/2), value 1/4.
  * polarization constants: K_1 = 1, K_2 = (2 + 4)/2 = 3,
    K_3 = (3 + 24 + 27)/6 = 9.
"""

from fractions import Fraction as F
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic.backends import bool_obj, cube_pcs, qcs_object, simplex_pcs
from conelogic.cones import from_p_gens, one_obj, pairing, validate_object, zero_obj
from conelogic.exponentials import bang_mor, bang_obj, whynot_mor, whynot_obj
from conelogic.errors import CapabilityError, DimensionError, NegativeCoefficientError
from conelogic.mall import compose, identity, mor
from conelogic.multisets import graded_layout, msets, sym_power_cols
from conelogic.rationals import vec
from conelogic.symmetric import (
    apply_multilinear,
    new_norm_bounds,
    old_norm,
    polarization_constant,
    power_tensor,
    sym_power_mor,
    sym_power_obj,
    sym_tensor,
)


def xy_form():
    # (x1 y2 + x2 y1)/2 as a symmetric bilinear functional on dim 2.
    return sym_tensor(2, 2, {(0, 1): F(1, 2)})


def test_power_tensor_and_pairing_identity():
    # The power object's multiplicity weights make <phi^n, x^n> = <phi, x>^n.
    x = vec([F(1, 2), F(1, 3)])
    phi = vec([F(2), F(1)])
    for n in range(4):
        p = sym_power_obj(simplex_pcs(2), n)
        lhs = pairing(p, power_tensor(phi, n).coords, power_tensor(x, n).coords)
        inner = phi[0] * x[0] + phi[1] * x[1]
        assert lhs == inner**n


def test_apply_multilinear_is_symmetric():
    f = xy_form()
    u, v = vec([1, 0]), vec([0, 1])
    assert apply_multilinear(f, (u, v)) == F(1, 2)
    assert apply_multilinear(f, (v, u)) == F(1, 2)
    assert apply_multilinear(f, (u, u)) == 0


def test_polarization_identity_validates_contraction():
    # n! f(x1..xn) = sum over nonempty S of (-1)^(n-|S|) f(x_S, ..., x_S).
    rng = random.Random(11)
    n, d = 3, 2
    coords = {m: F(rng.randint(0, 5), rng.randint(1, 4)) for m in msets(d, n)}
    f = sym_tensor(d, n, coords)
    xs = [vec([F(rng.randint(0, 4), 3) for _ in range(d)]) for _ in range(n)]
    lhs = 6 * apply_multilinear(f, tuple(xs))
    rhs = F(0)
    for mask in range(1, 2**n):
        s = [i for i in range(n) if mask >> i & 1]
        xs_sum = tuple(sum(x[c] for i, x in enumerate(xs) if i in s) for c in range(d))
        sign = (-1) ** (n - len(s))
        rhs += sign * apply_multilinear(f, (xs_sum,) * n)
    assert lhs == rhs


def test_power_object_shapes():
    b = bool_obj()
    s2 = sym_power_obj(b, 2)
    assert s2.dim == 3
    assert s2.p_ball_gens == ((0, 0, 1), (1, 0, 0))
    assert s2.weights == (1, 2, 1)
    assert sym_power_obj(b, 0) == one_obj()
    assert sym_power_obj(b, 1) == b


def test_power_object_dual_side_when_spanned():
    # The cube's generator (1,1) squares to a strictly positive vector, so
    # together with the unit squares the powers span and the polar exists.
    c = cube_pcs(2)
    s2 = sym_power_obj(c, 2)
    assert s2.q_ball_gens is not None
    assert validate_object(s2).passed


def test_power_object_dual_side_absent_when_unspanned():
    s2 = sym_power_obj(bool_obj(), 2)
    assert s2.q_ball_gens is None  # the {0,1} coordinate is never generated


def test_old_norm_worked_instance():
    assert old_norm(xy_form(), bool_obj()) == F(1, 2)


def test_new_norm_worked_instance():
    br = new_norm_bounds(xy_form(), bool_obj())
    assert br.lower == F(1, 4)
    assert br.upper == F(1, 2)
    # the witness is delta_x in the ball of !bool at x = (1/2, 1/2)
    assert br.argmax == (1, F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 4))


def test_rank_one_power_has_equal_norms():
    for n in (1, 2, 3):
        f = power_tensor(vec([1, 1]), n)  # the dual generator of the simplex
        assert old_norm(f, bool_obj()) == 1
        br = new_norm_bounds(f, bool_obj())
        assert br.lower == br.upper == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.booleans(), st.data())
def test_averaged_upper_collapses_to_old_norm(dim_n, simplex, data):
    # The diagonal polynomial of the !a scheme is homogeneous on one block,
    # so its averaged bound is the largest generator-tuple value:
    # new_norm_bounds reports old_norm as its upper bound without computing
    # it.
    dim, n = dim_n
    if simplex:
        a = simplex_pcs(dim)
    else:
        coord = st.fractions(min_value=0, max_value=1, max_denominator=4)
        pts = data.draw(
            st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4).filter(
                lambda ps: all(any(p[c] for p in ps) for c in range(dim))
            )
        )
        a = from_p_gens(pts, dim)
    value = st.fractions(min_value=0, max_value=6, max_denominator=5)
    f = sym_tensor(dim, n, {m: data.draw(value) for m in msets(dim, n)})
    assert new_norm_bounds(f, a).upper == old_norm(f, a)


def test_negative_tuple_value_is_refused():
    f = sym_tensor(2, 2, {(0, 1): F(-1)})
    with pytest.raises(NegativeCoefficientError):
        old_norm(f, bool_obj())
    with pytest.raises(NegativeCoefficientError):
        new_norm_bounds(f, bool_obj())


def test_dimension_mismatch_is_refused():
    for dim in (1, 3):
        f = sym_tensor(dim, 2, {})
        with pytest.raises(DimensionError):
            old_norm(f, bool_obj())
        with pytest.raises(DimensionError):
            new_norm_bounds(f, bool_obj())


@pytest.mark.parametrize(
    "key, where",
    [
        ((0, 5), "index 5 of multiset key (0, 5)"),
        ((-1, 1), "index -1 of multiset key (-1, 1)"),
        ((0,), "size of multiset key (0,)"),
        ((0, 1, 1), "size of multiset key (0, 1, 1)"),
    ],
)
def test_sym_tensor_names_a_bad_key(key, where):
    with pytest.raises(DimensionError) as err:
        sym_tensor(2, 2, {key: 1})
    assert err.value.where == where
    with pytest.raises(DimensionError):
        xy_form().coord(key)


def test_sym_tensor_refuses_a_negative_degree():
    for build in (
        lambda: sym_tensor(2, -1, {}),
        lambda: sym_tensor(2, -1, []),
        lambda: power_tensor((F(1), F(0)), -1),
    ):
        with pytest.raises(ValueError, match="^negative degree$"):
            build()


def test_new_norm_refuses_non_polyhedral_operands():
    # The diagonal norm brackets over the ball scheme of !a, which exists
    # for a polyhedral a only: a graded a would make !a nested.
    b = bool_obj()
    with pytest.raises(CapabilityError):
        new_norm_bounds(sym_tensor(4, 2, {(0, 3): 1}), qcs_object(2))
    for h in (bang_obj(b, 1), whynot_obj(b, 1)):
        with pytest.raises(CapabilityError):
            new_norm_bounds(sym_tensor(3, 2, {(0, 1): 1}), h)


def test_new_norm_on_the_zero_object():
    # The ball of 0 is its one point (), so f(x, ..., x) is f_() at degree
    # 0 and the empty sum above it.
    z = zero_obj()
    br = new_norm_bounds(sym_tensor(0, 0, [F(3, 2)]), z)
    assert (br.lower, br.upper) == (F(3, 2), F(3, 2))
    for n in (1, 2):
        br = new_norm_bounds(sym_tensor(0, n, []), z)
        assert (br.lower, br.upper) == (0, 0)


def test_polarization_constants():
    assert polarization_constant(1) == 1
    assert polarization_constant(2) == 3
    assert polarization_constant(3) == 9


def test_sandwich_on_random_samples():
    rng = random.Random(23)
    for dim, n in ((2, 2), (2, 3), (3, 2)):
        a = simplex_pcs(dim)
        k = polarization_constant(n)
        for _ in range(10):
            coords = {
                m: F(rng.randint(0, 8), rng.randint(1, 6)) for m in msets(dim, n)
            }
            f = sym_tensor(dim, n, coords)
            br = new_norm_bounds(f, a)
            old = old_norm(f, a)
            assert br.lower <= old <= k * br.upper
            assert br.lower <= br.upper


def test_power_functor_identity_and_composition():
    b = bool_obj()
    s = mor(b, b, ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))))
    t = mor(b, b, ((F(1, 3), F(0)), (F(1, 3), F(1))))
    for n in (0, 1, 2, 3):
        assert sym_power_mor(identity(b), n).matrix == identity(
            sym_power_obj(b, n)
        ).matrix
        lhs = sym_power_mor(compose(s, t), n)
        rhs = compose(sym_power_mor(s, n), sym_power_mor(t, n))
        assert lhs.matrix == rhs.matrix


def test_power_functor_acts_as_power_on_points():
    b = bool_obj()
    s = mor(b, b, ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))))
    x = vec([F(1, 3), F(2, 3)])
    for n in (2, 3):
        lhs = sym_power_mor(s, n)(power_tensor(x, n).coords)
        rhs = power_tensor(s(x), n).coords
        assert lhs == rhs


def test_grade_one_block_is_the_map_itself():
    b = bool_obj()
    s = mor(b, b, ((F(1, 2), F(0)), (F(1, 4), F(1))))
    assert sym_power_mor(s, 1).matrix == s.matrix


# -- the symmetric-power kernel ------------------------------------------------


def _ref_sym_power_matrix(m, n, dim_src, dim_tgt):
    # Entry (nu, mu) of Sym^n m: the sum over the distinct arrangements a of
    # mu of prod_t m[nu_t][a_t], filled densely, zeros included.
    out = []
    for nu in msets(dim_tgt, n):
        row = []
        for mu in msets(dim_src, n):
            total = F(0)
            for arr in set(itertools.permutations(mu)):
                term = F(1)
                for t in range(n):
                    term *= m[nu[t]][arr[t]]
                total += term
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def _dense_block(cols, dim_src, dim_tgt, n):
    """Grade n of the graded columns as a dense matrix: the grade-n source
    columns, their rows shifted from the target table to grade n."""
    lay_s, lay_t = graded_layout(dim_src, n), graded_layout(dim_tgt, n)
    start = len(lay_s.coords) - len(msets(dim_src, n))
    tstart = len(lay_t.coords) - len(msets(dim_tgt, n))
    rows = [[F(0)] * len(msets(dim_src, n)) for _ in msets(dim_tgt, n)]
    for j, col in enumerate(cols[start : start + len(msets(dim_src, n))]):
        for i, x in col:
            assert lay_t.grades[i] == n  # grades never mix
            rows[i - tstart][j] = x
    return tuple(map(tuple, rows))


entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=0, max_value=2, max_denominator=6)
)


@st.composite
def map_rows(draw):
    """dim_src, dim_tgt in 0..3 and dim_tgt rows of nonnegative entries,
    zeros and non-integers both likely."""
    ds, dt = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[draw(entries) for _ in range(ds)] for _ in range(dt)]
    return ds, dt, rows


@settings(max_examples=40, deadline=None)
@given(map_rows(), st.integers(0, 4))
def test_power_blocks_match_the_arrangement_sum(drawn, trunc):
    ds, dt, rows = drawn
    f = mor(simplex_pcs(ds) if ds else zero_obj(), simplex_pcs(dt) if dt else zero_obj(), rows)
    cols = sym_power_cols(f.int_cols, dt, trunc)
    assert len(cols) == len(graded_layout(ds, trunc).coords)
    assert all(x for col in cols for _, x in col)  # zeros are never kept
    for n in range(trunc + 1):
        assert _dense_block(cols, ds, dt, n) == _ref_sym_power_matrix(rows, n, ds, dt)


def test_power_blocks_entry_is_the_multinomial_coefficient():
    # m = [[1/2, 1], [1/3, 0]]: column (0, 1) of Sym^2 is the product of the
    # forms y0/2 + y1/3 and y0, i.e. y0^2/2 + y0 y1/3, times
    # multiplicity((0, 1)) = 2 and over multiplicity(nu): 1 at (0, 0) and
    # (1/3) * 2 / 2 = 1/3 at (0, 1). Its integer view is the columns times
    # the common denominator 6. In the graded table over two coordinates,
    # (0, 1) is column 4 and nu = (0, 0), (0, 1) are rows 3 and 4.
    view = (6, (((0, 3), (1, 2)), ((0, 6),)))
    assert mor(simplex_pcs(2), simplex_pcs(2), [[F(1, 2), 1], [F(1, 3), 0]]).int_cols == view
    cols = sym_power_cols(view, 2, 2)
    assert graded_layout(2, 2).coords[3:5] == ((0, 0), (0, 1))
    assert dict(cols[4]) == {3: F(1), 4: F(1, 3)}


def test_powers_out_of_the_zero_object():
    # Sym^0 of any map is the identity on 1; above grade 0 the source has no
    # coordinate, so Sym^n is the empty map into the n-th power.
    S = mor(zero_obj(), simplex_pcs(2), [[], []])
    assert sym_power_mor(S, 0).matrix == ((F(1),),)
    for n, dim in ((1, 2), (2, 3)):
        f = sym_power_mor(S, n)
        assert (f.source.dim, f.target.dim, f.cols) == (0, dim, ())
        assert f.target == sym_power_obj(simplex_pcs(2), n)


def test_exponentials_into_the_zero_object():
    # !s sends delta_x to delta_0 = (1), and ?l keeps only the constant term:
    # both are the 1 x 6 matrix with a 1 at the vacuum coordinate ().
    s = mor(simplex_pcs(2), zero_obj(), [])
    for f in (bang_mor(s, 2), whynot_mor(s, 2)):
        assert (f.source.dim, f.target.dim) == (6, 1)
        assert f.cols == (((0, F(1)),), (), (), (), (), ())

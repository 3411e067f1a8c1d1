"""Truncated exponentials: objects, deltas, norms, monad, the iso.

Hand-derived anchors used below, all over the two-point base:

  * ?(Bool*) at N=2 holds series on the ball of Bool (hull of e1, e2).
    f = 1 + (1/2) x1 x2 as coordinates is (1, 0, 0, 0, 1/2, 0); its sup on
    the segment (t, 1-t) is 1 + t(1-t), attained at t = 1/2 with value 5/4.
    On the segment f is 1 + t1 t2; the Bernstein upper bound homogenizes
    it to (t1 + t2)^2 + t1 t2 = t1^2 + 3 t1 t2 + t2^2, whose coefficients
    over the multinomials are 1, 3/2 and 1, giving 3/2.
  * delta_{(1,0)} at N=2 lists the powers of (1, 0): (1, 1, 0, 1, 0, 0).
  * <x1 x2 form, delta_{(1/2,1/2)}> = 2 * (1/2) * (1/4) = 1/4.
"""

from fractions import Fraction as F
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelogic import exponentials
from conelogic.backends import bool_obj, cube_pcs, simplex_pcs
from conelogic.cones import (
    Backend,
    dual_object,
    from_p_gens,
    in_ball,
    materialize_q,
    norm_primal,
    one_obj,
    pairing,
    primal_gens,
    zero_obj,
)
from conelogic.errors import (
    BallError,
    CapabilityError,
    CompositionError,
    DimensionError,
    MembershipError,
)
from conelogic.exponentials import (
    ExpNode,
    GradedDistribution,
    GradedSeries,
    SumNode,
    TensorNode,
    analytic_compose,
    analytic_eval,
    analytic_map,
    analytic_norm_bounds,
    bang_mor,
    bang_obj,
    delta,
    diag_mult,
    distribution_norm_bounds,
    eta,
    exp_iso,
    graded_coords,
    graded_coproduct_obj,
    graded_norm_bounds,
    graded_pairing,
    graded_par_mor,
    graded_par_obj,
    graded_product_obj,
    graded_relabel,
    graded_tensor_mor,
    graded_tensor_obj,
    monoid_unit,
    mu,
    pair_element,
    series_eval,
    series_norm_bounds,
    whynot_mor,
    whynot_obj,
    _sample_points,
    _shape,
)
from conelogic.lp import lp_maximize
from conelogic.mall import adjoint, compose, identity, mor, morphism_norm, product_obj, sparse_mor
from conelogic.multisets import graded_layout, monomial_values, mset_count, multiplicity
from conelogic.oracle import Bracket, averaged_upper, simplex_polynomial_bounds
from conelogic.polynomials import (
    Polynomial,
    layout_products,
    poly_combination,
    poly_product,
    poly_sum,
)
from conelogic.rationals import unit, vec
from conelogic.symmetric import apply_multilinear, new_norm_bounds, sym_tensor
import reference as ref

Bool = bool_obj()
BoolStar = dual_object(Bool)

rat01 = st.fractions(min_value=0, max_value=1, max_denominator=8)


def contraction_2x2(draw):
    # column sums <= 1 keep the map inside the Bool ball
    a, b = draw(rat01), draw(rat01)
    c = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
    rows = [[a * F(1, 2), b * F(1, 2)], [c * F(1, 2), F(1, 2) - b * F(1, 2)]]
    return mor(Bool, Bool, rows)


# -- objects and elements ----------------------------------------------------


def test_whynot_layout():
    w = whynot_obj(Bool, 2)
    assert w.dim == 6
    assert graded_coords(w) == ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
    assert w.pairing_weights == (F(1), F(1), F(1), F(1), F(2), F(1))
    assert w.label == "?Bool"


def test_whynot_trunc_zero_and_guardrails():
    assert whynot_obj(Bool, 0).dim == 1
    with pytest.raises(ValueError):
        whynot_obj(Bool, -1)
    with pytest.raises(CapabilityError):
        whynot_obj(whynot_obj(whynot_obj(Bool, 3), 3), 3)  # dimension explosion


def test_size_guard_reads_the_closed_form():
    # C(2 + 446, 446) = 100,128 multisets of size <= 446 over 2 coordinates,
    # the first truncation over the cap; 445 gives 99,681 and passes.
    with pytest.raises(CapabilityError, match="has 100128 coordinates"):
        whynot_obj(simplex_pcs(2), 446)
    with pytest.raises(CapabilityError, match="graded dimension exceeds"):
        whynot_obj(simplex_pcs(2), 10**12)


def test_size_guard_covers_pairs_and_sums(monkeypatch):
    # 35 multisets of size <= 4 over 3 coordinates per factor; 210 pairs
    # of grade sum <= 4, and 70 coordinates side by side
    monkeypatch.setattr(exponentials, "MAX_GRADED_DIM", 50)
    b = bang_obj(simplex_pcs(3), 4)
    assert b.dim == 35
    with pytest.raises(CapabilityError, match="has 210 coordinates"):
        graded_tensor_obj(b, b)
    with pytest.raises(CapabilityError, match="has 210 coordinates"):
        graded_par_obj(dual_object(b), dual_object(b))
    with pytest.raises(CapabilityError, match="has 70 coordinates"):
        graded_product_obj(b, b)
    monkeypatch.setattr(exponentials, "MAX_GRADED_DIM", 210)
    assert graded_tensor_obj(b, b).dim == 210


def test_bang_is_dual_of_whynot():
    bg = bang_obj(Bool, 2)
    assert bg.label == "!Bool"
    assert dual_object(bg) == whynot_obj(BoolStar, 2)
    assert dual_object(whynot_obj(Bool, 2)) == bang_obj(BoolStar, 2)


def test_delta_coordinates():
    assert delta(Bool, (F(1), F(0)), 2).coords == (1, 1, 0, 1, 0, 0)
    assert delta(Bool, (F(0), F(0)), 2).coords == (1, 0, 0, 0, 0, 0)
    d = delta(Bool, (F(1, 2), F(1, 2)), 2)
    assert d.coords == (1, F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 4))


def test_delta_rejects_points_outside_the_ball():
    with pytest.raises(BallError):
        delta(Bool, (F(1), F(1, 2)), 2)  # norm 3/2 in Bool
    with pytest.raises(MembershipError):
        delta(Bool, (F(-1), F(0)), 2)


def test_element_side_checks():
    w = whynot_obj(BoolStar, 2)
    bg = bang_obj(Bool, 2)
    with pytest.raises(CapabilityError):
        GradedSeries(bg, (1, 0, 0, 0, 0, 0))
    with pytest.raises(CapabilityError):
        GradedDistribution(w, (1, 0, 0, 0, 0, 0))
    with pytest.raises(MembershipError):
        GradedSeries(w, (1, -1, 0, 0, 0, 0))


def test_series_eval_and_pairing_agree_on_deltas():
    w = whynot_obj(BoolStar, 2)
    f = GradedSeries(w, (F(1), 0, 0, 0, F(1, 2), 0))
    x = (F(1, 2), F(1, 2))
    assert series_eval(f, x) == F(5, 4)
    assert graded_pairing(f, delta(Bool, x, 2)) == F(5, 4)
    g = GradedSeries(w, (0, 0, 0, 0, F(1, 2), 0))
    assert graded_pairing(g, delta(Bool, x, 2)) == F(1, 4)


def test_series_eval_gates_the_argument():
    w = whynot_obj(BoolStar, 2)
    f = GradedSeries(w, (F(1), 0, 0, 0, 0, 0))
    with pytest.raises(BallError):
        series_eval(f, (F(1), F(1, 2)))


def test_series_eval_gates_a_graded_argument_as_delta_does():
    # ??simplex(2): the argument x = 5 delta_y, y in the ball of simplex(2)*,
    # has graded norm exactly 5, so evaluation refuses it as delta does
    inner = whynot_obj(simplex_pcs(2), 2)
    w = whynot_obj(inner, 2)
    f = GradedSeries(w, (F(1),) + (F(0),) * (w.dim - 1))
    y = delta(dual_object(simplex_pcs(2)), (F(1, 2), F(1, 3)), 2)
    x = tuple(5 * c for c in y.coords)
    assert graded_norm_bounds(dual_object(inner), x).lower == 5
    with pytest.raises(BallError):
        series_eval(f, x)
    with pytest.raises(BallError):
        delta(dual_object(inner), x, 2)
    # an argument domain with no bracket, a graded sum, is refused outright
    s = graded_coproduct_obj(inner, inner)
    g = GradedSeries(whynot_obj(s, 1), (F(1),) + (F(0),) * s.dim)
    with pytest.raises(CapabilityError):
        series_eval(g, (F(1, 4),) + (F(0),) * (s.dim - 1))


@st.composite
def series_and_argument(draw):
    """A series f on ?B, B a simplex or cube of dim 1..3 at truncation 0..3,
    and an argument x in the ball of B* (the cube, resp. the simplex)."""
    kind, d, n = draw(st.sampled_from(("simplex", "cube"))), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    b = simplex_pcs(d) if kind == "simplex" else cube_pcs(d)
    w = whynot_obj(b, n)
    coord = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=3, max_denominator=6))
    f = GradedSeries(w, tuple(draw(coord) for _ in range(w.dim)))
    x = [draw(rat01) for _ in range(d)]
    if kind == "cube" and sum(x) > 1:
        x = [c / sum(x) for c in x]
    return b, n, f, tuple(x)


@settings(max_examples=60, deadline=None)
@given(series_and_argument())
def test_series_eval_is_the_pairing_with_delta(drawn):
    # f(x) = <f, delta_x>: evaluation and the weighted pairing with the
    # delta distribution in !(B*) agree exactly.
    b, n, f, x = drawn
    assert series_eval(f, x) == graded_pairing(f, delta(dual_object(b), x, n))


def test_pairing_requires_dual_objects():
    w = whynot_obj(Bool, 2)  # not the dual of !Bool
    f = GradedSeries(w, (F(1), 0, 0, 0, 0, 0))
    with pytest.raises(CompositionError):
        graded_pairing(f, delta(Bool, (F(1), F(0)), 2))


# -- norms -------------------------------------------------------------------


def test_series_norm_bracket_pinned():
    w = whynot_obj(BoolStar, 2)
    f = GradedSeries(w, (F(1), 0, 0, 0, F(1, 2), 0))
    br = series_norm_bounds(f)
    assert br.lower == F(5, 4)
    assert br.upper == F(3, 2)
    # the lower bound comes with a distribution witness
    assert br.argmax == delta(Bool, (F(1, 2), F(1, 2)), 2).coords


def test_series_norm_exact_when_degree_at_most_one():
    w = whynot_obj(BoolStar, 2)
    f = GradedSeries(w, (F(1, 3), F(1, 4), F(1, 2), 0, 0, 0))
    br = series_norm_bounds(f)
    assert br.lower == br.upper == F(1, 3) + F(1, 2)


def test_constant_series_norm_is_the_constant():
    w = whynot_obj(BoolStar, 3)
    f = GradedSeries(w, (F(3, 7),) + (F(0),) * (w.dim - 1))
    br = series_norm_bounds(f)
    assert br.lower == br.upper == F(3, 7)


def test_delta_norm_recognized_exactly():
    d = delta(Bool, (F(1, 2), F(1, 3)), 3)
    br = distribution_norm_bounds(d)
    assert br.lower == br.upper == 1
    e = GradedDistribution(d.obj, tuple(F(2, 5) * c for c in d.coords))
    bs = distribution_norm_bounds(e)
    assert bs.lower == bs.upper == F(2, 5)
    # The witness is the constant series: a member of the object's dual
    # ball, of its dimension, pairing with the element to the norm.
    d2 = delta(simplex_pcs(2), (F(1, 3), F(1, 2)), 2)
    for el in (d, e, d2):
        b = distribution_norm_bounds(el)
        assert b.note == "recognized multiple of a delta"
        assert b.argmax == (1,) + (0,) * (el.obj.dim - 1)
        assert pairing(dual_object(el.obj), b.argmax, el.coords) == b.lower


def test_delta_norm_upper_within_tolerance_on_pcs_base():
    # ||delta_x|| = 1 on the nose; the bracket may not exceed 1 + 1e-6
    for x in [(F(1), F(1)), (F(1, 3), F(2, 3)), (F(0), F(1))]:
        br = distribution_norm_bounds(delta(cube_pcs(2), x, 3))
        assert br.lower == 1
        assert br.upper <= F(1) + F(1, 10**6)


def test_pure_grade_one_distribution_norm_exact():
    bg = bang_obj(Bool, 2)
    e = GradedDistribution(bg, (0, F(1, 2), F(1, 3), 0, 0, 0))
    br = distribution_norm_bounds(e)
    assert br.lower == br.upper == norm_primal(Bool, (F(1, 2), F(1, 3)))


def test_zero_element_norm():
    bg = bang_obj(Bool, 2)
    br = distribution_norm_bounds(GradedDistribution(bg, (0,) * 6))
    assert br.lower == br.upper == 0


def test_delta_mix_bracket_contains_total_mass():
    # convex mixes of deltas have norm equal to their mass
    rng = random.Random(3)
    bg = bang_obj(simplex_pcs(2), 3)
    for _ in range(5):
        pts = [
            vec([F(rng.randint(0, 3), 6), F(rng.randint(0, 3), 6)])
            for _ in range(3)
        ]
        lam = [F(1, 4), F(1, 4), F(1, 2)]
        coords = [F(0)] * bg.dim
        for l, p in zip(lam, pts):
            if sum(p) > 1:
                p = (p[0] / 2, p[1] / 2)
            dc = delta(simplex_pcs(2), p, 3).coords
            coords = [c + l * d for c, d in zip(coords, dc)]
        br = graded_norm_bounds(bg, coords)
        assert br.lower <= 1 <= br.upper
        assert br.lower >= max(lam)  # the constant series sees each atom


def test_norm_bracket_sound_against_sampled_pairings():
    # any series/distribution pair in their balls pairs below the brackets
    w = whynot_obj(BoolStar, 2)
    f = GradedSeries(w, (F(1, 2), F(1, 4), 0, 0, F(1, 4), F(1, 8)))
    br = series_norm_bounds(f)
    rng = random.Random(9)
    for _ in range(20):
        t = F(rng.randint(0, 8), 8)
        x = (t, 1 - t)
        assert series_eval(f, x) <= br.upper
    assert br.lower <= br.upper


def test_tensor_of_bangs_norm():
    s = simplex_pcs(2)
    tt = graded_tensor_obj(bang_obj(s, 2), bang_obj(s, 2), 2)
    pe = pair_element(
        tt,
        delta(s, (F(1, 2), F(1, 2)), 2).coords,
        delta(s, (F(1, 3), F(0)), 2).coords,
    )
    br = graded_norm_bounds(tt, pe)
    assert br.lower == br.upper == 1


@pytest.mark.parametrize("left, right", [(8, 6), (5, 6), (6, 8), (6, 5)])
def test_pair_element_checks_factor_lengths(left, right):
    # Each factor of !s (x) !s at truncation 2 has 6 coordinates; a factor of
    # any other length is refused, not cut short or read past its end.
    s = simplex_pcs(2)
    tt = graded_tensor_obj(bang_obj(s, 2), bang_obj(s, 2), 2)
    with pytest.raises(DimensionError) as e:
        pair_element(tt, [F(1)] * left, [F(1)] * right)
    assert (e.value.expected, e.value.got) == (6, left if left != 6 else right)


def test_sum_objects_carry_no_norms():
    w = whynot_obj(Bool, 2)
    wp = graded_product_obj(w, w)
    assert wp.dim == 12
    assert dual_object(wp) == graded_coproduct_obj(
        dual_object(w), dual_object(w)
    )
    # the zero element short-circuits; anything else has no norm
    assert graded_norm_bounds(wp, (F(0),) * 12).upper == 0
    with pytest.raises(CapabilityError):
        graded_norm_bounds(wp, (F(1),) + (F(0),) * 11)


def _ref_honest_lower(k, members):
    """max over members z of sum k_c z_c in Fractions; first strict max."""
    best, arg = F(0), None
    for z in members:
        v = sum((kc * zc for kc, zc in zip(k, z)), F(0))
        if v > best:
            best, arg = v, z
    return best, arg


# Entries with unlike denominators, zeros, and integers among the weights.
honest_entry = st.sampled_from([F(0), F(0), F(1), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(7, 12)])


@st.composite
def honest_cases(draw):
    """Weights, an element and honest members. Members are drawn from a small
    pool, so equal members recur (ties); each is a fresh tuple, so the argmax
    can be told apart by identity."""
    d = draw(st.integers(1, 5))
    vector = st.lists(honest_entry, min_size=d, max_size=d)
    w = draw(st.lists(st.integers(1, 6) | honest_entry.filter(bool), min_size=d, max_size=d))
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    members = [tuple(pool[i]) for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))]
    e = draw(vector)
    if draw(st.booleans()):  # an e whose support misses every member
        e = [x if all(z[c] == 0 for z in members) else F(0) for c, x in enumerate(e)]
    return w, tuple(e), members


@settings(max_examples=300, deadline=None)
@given(honest_cases())
def test_honest_lower_matches_the_fraction_reference(case):
    w, e, members = case
    scheme = exponentials.BallScheme((), (), tuple(members), False)
    k = tuple(F(wc) * ec for wc, ec in zip(w, e))  # the weighted vector
    value, arg = exponentials._honest_lower(k, scheme)
    ref_value, ref_arg = _ref_honest_lower(k, members)
    assert value == ref_value and type(value) is F
    assert arg is ref_arg


def test_honest_lower_keeps_the_first_of_tied_members():
    first, second = (F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))
    scheme = exponentials.BallScheme((), (), ((F(1, 4), F(0)), first, second), False)
    # weights (2, 3/2) times the elements (1, 2/3), (0, 0) and (0, 5/7)
    value, arg = exponentials._honest_lower((F(2), F(1)), scheme)
    assert value == 2 * F(1, 2) + F(3, 2) * F(2, 3) * F(1, 3) and arg is first
    assert exponentials._honest_lower((F(0), F(0)), scheme) == (0, None)
    apart = exponentials.BallScheme((), (), ((F(1, 4), F(0)), (F(1), F(0))), False)
    assert exponentials._honest_lower((F(0), F(15, 14)), apart) == (0, None)
    # integer members: one denominator and the nonzeros scaled by it
    assert scheme.honest_ints == ((4, ((0, 1),)), (6, ((0, 3), (1, 2))), (6, ((0, 3), (1, 2))))


def test_box_scheme_refusal_names_the_missing_certificate():
    # Over !?a the distribution family reaches coordinate 5 only through the
    # inexact box of ?a, and no honest member is nonzero there.
    h = bang_obj(whynot_obj(simplex_pcs(2), 1), 2)
    with pytest.raises(CapabilityError, match="no certified positive lower bound") as info:
        graded_norm_bounds(h, (F(1),) + (F(0),) * 9)
    assert "coordinate 5 of" in str(info.value)
    assert "never appears" not in str(info.value)


def test_box_scheme_keeps_the_dead_coordinate_wording(monkeypatch):
    one, zero = Polynomial.constant(0, 1), Polynomial.zero(0)
    dead = exponentials.BallScheme((), (one, zero, one), ((F(1), F(0), F(1)),), False)
    monkeypatch.setattr(exponentials, "primal_ball_scheme", lambda _: dead)
    with pytest.raises(CapabilityError, match="dead coordinate") as info:
        exponentials._box_scheme(whynot_obj(simplex_pcs(2), 1))
    assert "coordinate 1 of" in str(info.value) and "never appears" in str(info.value)


@pytest.mark.parametrize(
    "h",
    [bang_obj(simplex_pcs(2), 2), bang_obj(cube_pcs(2), 3), bang_obj(Bool, 3)],
    ids=["simplex2-2", "cube2-3", "bool-3"],
)
def test_scheme_samples_keep_members_then_grid_in_order(h):
    s = exponentials._node_scheme(_shape(h).node)
    grid = [tuple(p.eval_exact(t) for p in s.polys) for t in _sample_points(s.blocks)]
    assert s.samples == tuple(dict.fromkeys(list(s.honest) + grid))
    assert len(s.samples) < len(s.honest) + len(grid)  # grid vertices repeat members


def test_whynot_rejects_spectral():
    from conelogic.backends import qcs_object

    with pytest.raises(CapabilityError):
        whynot_obj(qcs_object(2), 2)


# -- monad and comonoid ------------------------------------------------------


def assert_monad_unit_laws(b, n):
    w = whynot_obj(b, n)
    assert compose(mu(b, n), eta(w, n)).matrix == identity(w).matrix
    assert compose(mu(b, n), whynot_mor(eta(b, n), n)).matrix == identity(w).matrix


def test_monad_unit_laws_exact():
    for n in (1, 2, 3):
        assert_monad_unit_laws(Bool, n)


def test_monad_associative_on_untruncated_columns():
    # truncation makes digging lax; columns whose double union still fits
    # the truncation agree exactly on both paths
    n = 2
    w = whynot_obj(Bool, n)
    w2 = whynot_obj(w, n)
    w3 = whynot_obj(w2, n)
    left = compose(mu(Bool, n), mu(w, n))
    right = compose(mu(Bool, n), whynot_mor(mu(Bool, n), n))
    c2 = graded_coords(w2)
    c1 = graded_coords(w)
    checked = 0
    for j, m in enumerate(graded_coords(w3)):
        n_indices = sum(len(c2[p]) for p in m)
        grade = sum(len(c1[d]) for p in m for d in c2[p])
        if n_indices <= n and grade <= n:
            checked += 1
            for i in range(w.dim):
                assert left.matrix[i][j] == right.matrix[i][j]
    assert checked >= 40


def test_monad_unit_laws_exact_at_dim_3_trunc_3():
    # a 20 x 1771 x 20 product: affordable because compose skips zeros
    assert_monad_unit_laws(simplex_pcs(3), 3)


def _labels(h):
    return graded_coords(h) if h.backend is Backend.GRADED else tuple(range(h.dim))


def _index(h):
    return {lbl: i for i, lbl in enumerate(_labels(h))}


def _pair_mor_by_definition(src, tgt, f, g):
    # every (target pair, source pair) entry is f's entry times g's entry
    fs, ft, gs, gt = (_index(h) for h in (f.source, f.target, g.source, g.target))
    return tuple(
        tuple(
            f.matrix[ft[ta]][fs[sa]] * g.matrix[gt[tb]][gs[sb]]
            for sa, sb in graded_coords(src)
        )
        for ta, tb in graded_coords(tgt)
    )


@pytest.mark.parametrize("dim, n", [(2, 2), (2, 3), (3, 2)])
def test_graded_pair_maps_match_the_definition(dim, n):
    b = cube_pcs(dim)
    w = whynot_obj(b, n)
    d = diag_mult(b, n)
    wi, bb = identity(w), bang_mor(identity(b), n)
    cases = [
        (graded_par_mor, d, wi),
        (graded_par_mor, wi, d),
        (graded_par_mor, eta(b, n), wi),
        (graded_tensor_mor, bb, bb),
    ]
    assert_pair_maps_by_definition(cases, n)


def assert_pair_maps_by_definition(cases, n):
    for lift, f, g in cases:
        m = lift(f, g, n)
        assert m.matrix == _pair_mor_by_definition(m.source, m.target, f, g)


@pytest.mark.parametrize("base, n", [(cube_pcs(2), 3), (simplex_pcs(3), 3)])
def test_diag_mult_associative_through_pair_maps(base, n):
    assert_diag_mult_associative(base, n)


def assert_diag_mult_associative(base, n):
    w = whynot_obj(base, n)
    d = diag_mult(base, n)
    wi = identity(w)
    ww = graded_par_obj(w, w, n)
    alpha = graded_relabel(
        graded_par_obj(ww, w, n),
        graded_par_obj(w, ww, n),
        lambda t: (t[0][0], (t[0][1], t[1])),
    )
    path_a = compose(d, graded_par_mor(d, wi, n))
    path_b = compose(d, compose(graded_par_mor(wi, d, n), alpha))
    assert path_a.matrix == path_b.matrix


def test_eta_entries_are_the_pairing_weights():
    e = eta(Bool, 3)
    w = whynot_obj(Bool, 3)
    idx = {m: i for i, m in enumerate(graded_coords(w))}
    assert e.matrix[idx[(0,)]][0] == 1 and e.matrix[idx[(1,)]][1] == 1
    e2 = eta(w, 3)  # graded source: weights show up
    idx2 = {m: i for i, m in enumerate(graded_coords(whynot_obj(w, 3)))}
    pos_01 = idx[(0, 1)]
    assert e2.matrix[idx2[(pos_01,)]][pos_01] == 2
    # the table's int weights enter as Fractions, so the adjoint stays exact
    assert all(type(x) is F for col in adjoint(e2).cols for _, x in col)
    with pytest.raises(CapabilityError):
        eta(Bool, 0)


def test_diag_mult_unit_and_commutativity():
    n = 3
    w = whynot_obj(Bool, n)
    d = diag_mult(Bool, n)
    onew = graded_par_obj(one_obj(), w, n)
    lam = graded_relabel(w, onew, lambda m: (0, m))
    unit_path = compose(
        d, compose(graded_par_mor(monoid_unit(Bool, n), identity(w), n), lam)
    )
    assert unit_path.matrix == identity(w).matrix
    ww = graded_par_obj(w, w, n)
    swap = graded_relabel(ww, ww, lambda t: (t[1], t[0]))
    assert compose(d, swap).matrix == d.matrix


def test_diag_mult_associative():
    assert_diag_mult_associative(Bool, 3)


def test_diag_mult_merges_split_variables():
    # x1 y2 on the doubled object restricts to the form x1 x2
    ws = whynot_obj(BoolStar, 2)
    d = diag_mult(BoolStar, 2)
    src = d.source
    e = [F(0)] * src.dim
    e[graded_coords(src).index(((0,), (1,)))] = F(1)
    out = GradedSeries(ws, d(tuple(e)))
    assert out.coord((0, 1)) == F(1, 2)
    assert series_eval(out, (F(1, 3), F(1, 2))) == F(1, 6)
    assert series_eval(out, (F(1, 2), F(1, 2))) == F(1, 4)


def test_relabel_rejects_weight_changes():
    w = whynot_obj(Bool, 2)
    with pytest.raises(CompositionError):
        # swapping (0,1) with (0,0) maps weight 2 onto weight 1
        flip = {(0, 1): (0, 0), (0, 0): (0, 1)}
        graded_relabel(w, w, lambda m: flip.get(m, m))


# -- functors ----------------------------------------------------------------


def test_bang_functor_laws():
    n = 3
    s = mor(Bool, Bool, [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    t = mor(Bool, Bool, [[F(1, 3), F(0)], [F(1, 3), F(1, 3)]])
    assert bang_mor(identity(Bool), n).matrix == identity(bang_obj(Bool, n)).matrix
    assert (
        bang_mor(compose(s, t), n).matrix
        == compose(bang_mor(s, n), bang_mor(t, n)).matrix
    )
    assert whynot_mor(identity(Bool), n).matrix == identity(whynot_obj(Bool, n)).matrix
    assert (
        whynot_mor(compose(s, t), n).matrix
        == compose(whynot_mor(s, n), whynot_mor(t, n)).matrix
    )


def test_whynot_is_the_adjoint_of_bang():
    s = mor(Bool, Bool, [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    assert whynot_mor(s, 3).matrix == adjoint(bang_mor(adjoint(s), 3)).matrix


def test_bang_grade_one_block_is_the_map_itself():
    s = mor(Bool, Bool, [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    b = bang_mor(s, 2)
    assert [row[1:3] for row in b.matrix[1:3]] == [tuple(r) for r in s.matrix]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bang_delta_naturality(data):
    s = contraction_2x2(data.draw)
    x = (data.draw(rat01) * F(1, 2), data.draw(rat01) * F(1, 2))
    assert bang_mor(s, 3)(delta(Bool, x, 3).coords) == delta(Bool, s(x), 3).coords


def test_functors_gate_on_expansive_maps():
    grow = mor(Bool, Bool, [[F(2), F(0)], [F(0), F(1)]])
    assert morphism_norm(grow) == morphism_norm(adjoint(grow)) == 2
    with pytest.raises(BallError) as err:
        bang_mor(grow, 2)
    assert err.value.norm == 2
    with pytest.raises(BallError) as err:
        whynot_mor(grow, 2)
    assert err.value.norm == 2
    # norm exactly 1 passes the gate
    swap = mor(Bool, Bool, [[F(0), F(1)], [F(1), F(0)]])
    assert morphism_norm(swap) == 1
    assert bang_mor(swap, 2).source == bang_obj(Bool, 2)
    assert whynot_mor(swap, 2).source == whynot_obj(Bool, 2)


# -- the exponential isomorphism ---------------------------------------------


def test_exp_iso_units():
    phi, phi_inv = exp_iso(one_obj(), one_obj(), 2)
    assert phi.source.dim == phi.target.dim == 6
    assert compose(phi, phi_inv).matrix == identity(phi.target).matrix
    assert compose(phi_inv, phi).matrix == identity(phi.source).matrix


def test_exp_iso_delta_naturality_and_pairing():
    a, b = Bool, BoolStar
    phi, phi_inv = exp_iso(a, b, 3)
    ab = product_obj(a, b)
    rng = random.Random(13)
    for _ in range(10):
        x = (F(rng.randint(0, 4), 4), 0)
        y = (F(rng.randint(0, 2), 4), F(rng.randint(0, 2), 4))
        dxy = delta(ab, x + y, 3)
        pe = pair_element(
            phi.target, delta(a, x, 3).coords, delta(b, y, 3).coords
        )
        assert phi(dxy.coords) == pe
        assert phi_inv(pe) == dxy.coords
        fl = tuple(F(rng.randint(0, 3), 3) for _ in range(phi.target.dim))
        lhs = pairing(dual_object(phi.target), fl, pe)
        rhs = pairing(dual_object(phi.source), adjoint(phi)(fl), dxy.coords)
        assert lhs == rhs


def test_exp_iso_needs_polyhedral_factors():
    with pytest.raises(CapabilityError):
        exp_iso(Bool, whynot_obj(Bool, 2), 2)


# -- the sparse structure maps against dense references -----------------------
#
# Each reference fills a dense row list entry by entry from the definition;
# bang_mor and whynot_mor are checked against arrangement sums
# (reference.graded_power) instead of products of multiset-keyed forms.


def _dense_map(src, tgt, entries):
    """The dense rows of a map src -> tgt: v in the row of the target label
    t and the column j for each (t, j, v) of entries, 0 elsewhere."""
    rows, idx = [[F(0)] * src.dim for _ in range(tgt.dim)], _index(tgt)
    for t, j, v in entries:
        rows[idx[t]][j] = v
    return tuple(map(tuple, rows))


def _ref_eta(a, n):
    return _dense_map(a, whynot_obj(a, n), [((c,), c, w) for c, w in enumerate(a.pairing_weights)])


def _ref_monoid_unit(a, n):
    return _dense_map(one_obj(), whynot_obj(a, n), [((), 0, F(1))])


def _ref_mu(a, n):
    inner = whynot_obj(a, n)
    outer, ic = whynot_obj(inner, n), graded_coords(inner)
    entries = []
    for j, m in enumerate(graded_coords(outer)):
        kt = tuple(sorted(c for p in m for c in ic[p]))
        if len(kt) <= n:
            entries.append((kt, j, F(multiplicity(m), multiplicity(kt))))
    return _dense_map(outer, inner, entries)


def _ref_diag_mult(a, n):
    w = whynot_obj(a, n)
    src = graded_par_obj(w, w, n)
    entries = []
    for j, (m, k) in enumerate(graded_coords(src)):
        kt = tuple(sorted(m + k))
        entries.append((kt, j, F(multiplicity(m) * multiplicity(k), multiplicity(kt))))
    return _dense_map(src, w, entries)


def _ref_relabel(src, tgt, fn):
    return _dense_map(src, tgt, [(fn(lbl), j, F(1)) for j, lbl in enumerate(_labels(src))])


def _ref_whynot_mor(l, n):
    # ?l sends the series coordinate m to multiplicity(m) * prod_{c in m}
    # (l* y)_c, with l* y = pull y; the coefficient of y^nu, entry (m, nu)
    # of the graded power of pull, is spread over multiplicity(nu)
    ds, dt = l.source.dim, l.target.dim
    ws, wt = l.source.pairing_weights, l.target.pairing_weights
    pull = [[l.matrix[j][c] * wt[j] / ws[c] for j in range(dt)] for c in range(ds)]
    power = ref.graded_power(pull, n, ds, dt)
    return tuple(
        tuple(
            power[col][row] * ref.multiplicity(m) / ref.multiplicity(nu)
            for col, m in enumerate(ref.graded_labels(ds, n))
        )
        for row, nu in enumerate(ref.graded_labels(dt, n))
    )


def _ref_bang_mor(s, n):
    # delta_x has coordinates x^mu, and !s sends it to delta_{s x}
    return ref.graded_power(s.matrix, n, s.target.dim, s.source.dim)


def _ref_exp_iso(a, b, n):
    src = bang_obj(product_obj(a, b), n)
    tgt = graded_tensor_obj(bang_obj(a, n), bang_obj(b, n), n)
    split = [
        (tuple(c for c in m if c < a.dim), tuple(c - a.dim for c in m if c >= a.dim))
        for m in graded_coords(src)
    ]
    rows = _dense_map(src, tgt, [(t, j, F(1)) for j, t in enumerate(split)])
    return rows, tuple(zip(*rows)) if rows else ()


def _spread_map(src, tgt):
    # entries k/(3 d^2) for k in 0..2, zeros included: norm at most 2/3
    # from the cube onto the simplex
    d = src.dim
    rows = [[F((i + 2 * j) % 3, 3 * d * d) for j in range(d)] for i in range(tgt.dim)]
    return mor(src, tgt, rows)


@pytest.mark.parametrize("dim, n", [(2, 2), (2, 3), (3, 2)])
def test_structure_maps_match_dense_references(dim, n):
    cube, simplex = cube_pcs(dim), simplex_pcs(dim)
    w = whynot_obj(cube, n)
    for a in (cube, simplex, w):
        assert eta(a, n).matrix == _ref_eta(a, n)
    assert monoid_unit(cube, n).matrix == _ref_monoid_unit(cube, n)
    for a in (cube, simplex):
        assert mu(a, n).matrix == _ref_mu(a, n)
        assert diag_mult(a, n).matrix == _ref_diag_mult(a, n)
    ww = graded_par_obj(w, w, n)
    swap = lambda t: (t[1], t[0])  # noqa: E731
    assert graded_relabel(ww, ww, swap).matrix == _ref_relabel(ww, ww, swap)
    onew = graded_par_obj(one_obj(), w, n)
    lam = lambda m: (0, m)  # noqa: E731
    assert graded_relabel(w, onew, lam).matrix == _ref_relabel(w, onew, lam)
    s = _spread_map(cube, simplex)
    assert morphism_norm(s) <= 1 and morphism_norm(adjoint(s)) <= 1
    assert whynot_mor(s, n).matrix == _ref_whynot_mor(s, n)
    assert bang_mor(s, n).matrix == _ref_bang_mor(s, n)
    d, wi, bb = diag_mult(cube, n), identity(w), bang_mor(s, n)
    pars = [(graded_par_mor, d, wi), (graded_par_mor, eta(cube, n), wi)]
    assert_pair_maps_by_definition(pars + [(graded_tensor_mor, bb, bb)], n)
    a1, a2 = (cube_pcs(1), simplex_pcs(dim - 1)) if dim > 2 else (cube, simplex_pcs(1))
    phi, phi_inv = exp_iso(a1, a2, n)
    want, want_inv = _ref_exp_iso(a1, a2, n)
    assert phi.matrix == want and phi_inv.matrix == want_inv


@settings(max_examples=25, deadline=None)
@given(ref.map_rows(), st.integers(0, 4), st.booleans(), st.booleans())
def test_functors_match_the_references_on_random_maps(drawn, n, cube_src, cube_tgt):
    # the same draws as the symmetric-power kernel's test, scaled down to a
    # contraction both ways between simplex or cube endpoints
    ds, dt, rows = drawn
    a = cube_pcs(ds) if cube_src else simplex_pcs(ds)
    b = cube_pcs(dt) if cube_tgt else simplex_pcs(dt)
    f = mor(a, b, rows)
    k = max(morphism_norm(f), morphism_norm(adjoint(f)), F(1))
    f = mor(a, b, [[x / k for x in row] for row in rows])
    assert bang_mor(f, n).matrix == _ref_bang_mor(f, n)
    assert whynot_mor(f, n).matrix == _ref_whynot_mor(f, n)


@pytest.mark.parametrize(
    "base, n",
    [(simplex_pcs(2), 2), (cube_pcs(2), 3), (Bool, 2)],
    ids=["simplex2-2", "cube2-3", "bool-2"],
)
def test_whynot_at_weighted_endpoints(base, n):
    # eta lands in ?base and mu leaves ??base, so both have weighted
    # endpoints; mu's entries are where the weight conjugation shows
    e = eta(base, n)
    assert whynot_mor(e, n).matrix == _ref_whynot_mor(e, n)
    assert whynot_mor(e, n).matrix == adjoint(bang_mor(adjoint(e), n)).matrix
    if n == 2:
        m = mu(base, n)
        assert whynot_mor(m, n).matrix == _ref_whynot_mor(m, n)


# -- analytic maps -----------------------------------------------------------

Half = simplex_pcs(1)


def square_map():
    return analytic_map(Half, Half, [[[0]], [[0]], [[1]]])


def affine_square_map():
    return analytic_map(Half, Half, [[[0]], [[1]], [[1]]])


def test_analytic_eval_matches_polynomial():
    f = affine_square_map()
    t = F(3, 7)
    assert analytic_eval(f, (t,)) == (t + t * t,)
    with pytest.raises(BallError):
        analytic_eval(f, (F(3, 2),))


def test_analytic_compose_pinned():
    g4 = analytic_compose(affine_square_map(), square_map(), 4)
    t = F(2, 3)
    assert analytic_eval(g4, (t,)) == (t**2 + t**4,)
    g3 = analytic_compose(affine_square_map(), square_map(), 3)
    assert analytic_eval(g3, (t,)) == (t**2,)
    # one column per monomial: t^2 + t^4 puts units at columns 2 and 4
    assert g4.matrix[0] == (0, 0, 1, 0, 1)
    assert g3.matrix[0] == (0, 0, 1, 0)


def test_analytic_compose_gates_expansive_inner():
    with pytest.raises(BallError):
        analytic_compose(square_map(), affine_square_map(), 4)
    with pytest.raises(CompositionError):
        analytic_compose(
            square_map(),
            analytic_map(simplex_pcs(2), simplex_pcs(2), [[[0], [0]]]),
        )


def test_analytic_truncation_monotone():
    g3 = analytic_compose(affine_square_map(), square_map(), 3)
    g4 = analytic_compose(affine_square_map(), square_map(), 4)
    for k in range(5):
        t = (F(k, 4),)
        assert analytic_eval(g3, t)[0] <= analytic_eval(g4, t)[0]


def test_analytic_norm_bracket():
    br = analytic_norm_bounds(affine_square_map())
    assert br.lower == br.upper == 2
    assert br.argmax == (1, 1, 1)  # delta_1 in the ball of !Half
    bs = analytic_norm_bounds(square_map())
    assert bs.lower == bs.upper == 1


def test_analytic_map_validation():
    with pytest.raises(MembershipError):
        analytic_map(Half, Half, [[[0]], [[-1]]])
    with pytest.raises(CapabilityError):
        analytic_map(whynot_obj(Bool, 2), Half, [[[0]]])
    with pytest.raises(DimensionError):
        analytic_map(Half, Half, [[[0]], [[0, 1]]])
    with pytest.raises(CapabilityError):
        analytic_eval(identity(Half), (F(1, 2),))


def test_analytic_map_refuses_empty_grades():
    # no grade at all would be a map truncated at -1
    with pytest.raises(DimensionError):
        analytic_map(Half, Half, [])


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_analytic_eval_agrees_with_bang_morphism(data):
    # F is the morphism !source -> target with the grades side by side, and
    # applying it to delta_x is F(x)
    c0 = data.draw(rat01) * F(1, 4)
    c1 = data.draw(rat01) * F(1, 4)
    c2 = data.draw(rat01) * F(1, 2)
    f = analytic_map(Half, Half, [[[c0]], [[c1]], [[c2]]])
    assert f.source == bang_obj(Half, 2) and f.target == Half
    assert f.matrix == ((c0, c1, c2),)
    x = data.draw(rat01)
    assert analytic_eval(f, (x,)) == (c0 + c1 * x + c2 * x * x,)


def _rand_analytic(r, a, b, n):
    """A random positive analytic map a -> b truncated at n; about two thirds
    of the coefficients are zero, and the constant terms are drawn too."""
    def coeff():
        return F(r.randint(0, 2), r.randint(3, 9)) * r.randint(0, 1)

    sizes = [mset_count(a.dim, k) for k in range(n + 1)]
    return analytic_map(a, b, [[[coeff() for _ in range(k)] for _ in range(b.dim)] for k in sizes])


def test_analytic_compose_matches_cokleisli():
    # The coKleisli composite g . !f . dig, with dig = adjoint(mu(A*)), is
    # the same matrix as the truncated substitution.
    r = random.Random(1207)
    objs = [simplex_pcs(1), simplex_pcs(2), cube_pcs(2)]
    checked = 0
    for _ in range(80):
        a, b = r.choice(objs), r.choice(objs)
        n = r.randint(1, 3)
        f, g = _rand_analytic(r, a, b, n), _rand_analytic(r, b, a, n)
        try:
            direct = analytic_compose(g, f, n)
        except BallError:
            continue  # ||f|| > 1 provably; the composite is not defined
        dig = adjoint(mu(dual_object(a), n))
        assert direct == compose(g, compose(bang_mor(f, n), dig))
        checked += 1
    assert checked >= 60


def _coordinate_polys(f, dim):
    """Coordinate i of the analytic map f as a polynomial in dim variables."""
    polys = [{} for _ in range(f.target.dim)]
    for m, col in zip(graded_coords(f.source), f.cols):
        for i, x in col:
            polys[i][tuple(m.count(c) for c in range(dim))] = x
    return polys


def substituted_compose(g, f, trunc=None):
    """The substitution route for analytic_compose: f and g rebuilt as
    polynomials, and each coordinate of g substituted with f's up to degree
    trunc, behind the same norm gate."""
    fn, gn = _shape(f.source).node, _shape(g.source).node
    if trunc is None:
        trunc = max(fn.trunc, gn.trunc)
    fb = analytic_norm_bounds(f)
    if fb.lower > 1:
        raise BallError("composition needs ||f|| <= 1", norm=fb.lower)
    a = dual_object(fn.base)
    middle = _coordinate_polys(f, a.dim)
    src = bang_obj(a, trunc)
    idx = {m: j for j, m in enumerate(graded_coords(src))}
    cols = [[] for _ in range(src.dim)]
    for r, gpoly in enumerate(_coordinate_polys(g, f.target.dim)):
        for exps, x in ref.plug(gpoly, middle, a.dim, trunc).items():
            m = tuple(c for c, k in enumerate(exps) for _ in range(k))
            cols[idx[m]].append((r, x))
    return sparse_mor(src, g.target, cols)


analytic_objects = st.sampled_from(
    [
        simplex_pcs(1),
        simplex_pcs(2),
        simplex_pcs(3),
        cube_pcs(2),
        one_obj(),
        zero_obj(),
        from_p_gens([[F(1, 2), 0], [0, F(3, 2)], [1, F(1, 3)]], 2),  # not a unit ball
    ]
)
analytic_entry = st.sampled_from([F(0), F(0), F(0), F(1, 4), F(1, 3), F(1)])


def _drawn_analytic(draw, a, b, n):
    grades = [
        [draw(st.lists(analytic_entry, min_size=k, max_size=k)) for _ in range(b.dim)]
        for k in (mset_count(a.dim, j) for j in range(n + 1))
    ]
    return analytic_map(a, b, grades)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_analytic_compose_matches_the_substitution_route(data):
    # mixed truncations: f and g at 0-3, the composite at None or 0-4
    a, b, c = (data.draw(analytic_objects) for _ in range(3))
    nf, ng = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    trunc = data.draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    f = _drawn_analytic(data.draw, a, b, nf)
    g = _drawn_analytic(data.draw, b, c, ng)
    try:
        want = substituted_compose(g, f, trunc)
    except BallError as e:
        with pytest.raises(BallError) as err:
            analytic_compose(g, f, trunc)
        assert (str(err.value), err.value.norm) == (str(e), e.norm)
    else:
        assert analytic_compose(g, f, trunc) == want
    # the lift delta_x -> delta_{f(x)} is !f after digging, at f's truncation
    dig = adjoint(mu(dual_object(a), nf))
    lift = exponentials._analytic_lift(f, bang_obj(b, nf), nf)
    assert lift == compose(bang_mor(f, nf), dig)


def test_sample_points_cover_the_resolution_two_grid():
    half, third = F(1, 2), F(1, 3)
    grid = {
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
        (half, half, F(0)), (half, F(0), half), (F(0), half, half),
    }
    assert set(_sample_points((3,))) == grid | {(third, third, third)}
    # blocks combine as a product; a 2-block's center is its grid midpoint
    assert len(set(_sample_points((2, 3)))) == 3 * 7


def test_sampled_polar_lp_gets_distinct_rows(monkeypatch):
    # Not a multiple of a delta, so the bracket runs the sampled-polar LP;
    # its grid vertices coincide with the honest generator members.
    bg = bang_obj(simplex_pcs(2), 2)
    e = (F(1), F(1), F(0), F(0), F(1), F(0))
    seen = []

    def spy(prob):
        seen.append(prob)
        return lp_maximize(prob)

    monkeypatch.setattr(exponentials, "lp_maximize", spy)
    br = graded_norm_bounds(bg, e)
    assert br.note.endswith("sampled-polar LP upper")
    assert len(seen) == 1
    rows = [c.coeffs for c in seen[0].constraints]
    assert len(rows) == len(set(rows)) > 1


def _layout_shapes():
    a, b = cube_pcs(2), simplex_pcs(3)
    wa = whynot_obj(a, 2)
    par = graded_par_obj(wa, wa, 2)
    return {
        "?a": wa,
        "!a * !b": graded_tensor_obj(bang_obj(a, 2), bang_obj(b, 2), 2),
        "(?a | ?a) | ?a": graded_par_obj(par, wa, 2),
        "?a & ?b": graded_product_obj(wa, whynot_obj(b, 1)),
        "!a + !b": graded_coproduct_obj(bang_obj(a, 2), bang_obj(b, 1)),
    }


def _check_layout(node):
    """Each node's layout is the definitional combination of its children's."""
    lay = node.layout
    assert {lbl: i for i, lbl in enumerate(lay.coords)} == lay.index
    assert len(lay.index) == len(lay.coords) == len(lay.grades) == len(lay.weights)
    if isinstance(node, ExpNode):
        assert lay.grades == tuple(len(m) for m in lay.coords)
        assert lay.weights == tuple(multiplicity(m) for m in lay.coords)
    elif isinstance(node, TensorNode):
        lo, ro = node.left.layout, node.right.layout
        pairs = [
            (i, j)
            for i in range(len(lo.coords))
            for j in range(len(ro.coords))
            if lo.grades[i] + ro.grades[j] <= node.trunc
        ]
        assert node.pairs == tuple(pairs)
        assert lay.coords == tuple((lo.coords[i], ro.coords[j]) for i, j in pairs)
        assert lay.grades == tuple(lo.grades[i] + ro.grades[j] for i, j in pairs)
        assert lay.weights == tuple(lo.weights[i] * ro.weights[j] for i, j in pairs)
    elif isinstance(node, SumNode):
        lo, ro = node.left.layout, node.right.layout
        assert lay.coords == tuple(("L", c) for c in lo.coords) + tuple(
            ("R", c) for c in ro.coords
        )
        assert lay.grades == lo.grades + ro.grades
        assert lay.weights == lo.weights + ro.weights
    for child in (getattr(node, "left", None), getattr(node, "right", None)):
        if child is not None:
            _check_layout(child)


@pytest.mark.parametrize("name", list(_layout_shapes()))
def test_layout_combines_the_children(name):
    h = _layout_shapes()[name]
    lay = _shape(h).node.layout
    assert len(lay.coords) == h.dim
    assert lay.weights == h.pairing_weights
    _check_layout(_shape(h).node)
    _check_layout(_shape(dual_object(h)).node)


@pytest.mark.parametrize("name", ["?a", "!a * !b", "(?a | ?a) | ?a"])
def test_dual_without_sums_reuses_the_node(name):
    h = _layout_shapes()[name]
    assert _shape(dual_object(h)).node is _shape(h).node


def test_dual_of_a_sum_flips_it():
    h = _layout_shapes()["?a & ?b"]
    flipped = _shape(dual_object(h)).node
    assert flipped.coproduct and not _shape(h).node.coproduct
    assert flipped.layout == _shape(h).node.layout


# The !A family polynomials and honest members are built prefix by prefix
# over the multiset table, in integers; they must be the reference products
# and monomials, term for term and in the same key order.


@st.composite
def polyhedral_atoms(draw):
    d = draw(st.integers(1, 3))
    entry = st.fractions(min_value=0, max_value=3, max_denominator=4)
    diag = [draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)) for _ in range(d)]
    pts = [[diag[i] if j == i else F(0) for j in range(d)] for i in range(d)]
    pts += draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=2))
    return from_p_gens(pts, d)


@settings(max_examples=40, deadline=None)
@given(polyhedral_atoms(), st.integers(0, 3))
def test_family_polynomials_are_the_monomial_products(a, n):
    node = _shape(bang_obj(a, n)).node
    s = exponentials._node_scheme(node)
    inner = exponentials.primal_ball_scheme(dual_object(node.base))
    nv = sum(inner.blocks)
    coords = node.layout.coords
    want = [ref.product([inner.polys[c].terms for c in m], nv) for m in coords]
    assert [p.terms for p in s.polys] == want
    assert all(type(c) is F for p in s.polys for c in p.terms.values())
    pts = [tuple(F(0) for _ in range(a.dim))] + list(inner.honest)
    assert s.honest == tuple(ref.monomials(y, coords) for y in pts[: exponentials.HONEST_CAP])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.dictionaries(
                    st.tuples(*([st.integers(0, 2)] * k)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    max_size=3,
                ).map(lambda terms: Polynomial(k, terms)),
                min_size=1,
                max_size=3,
            ),
        )
    ),
    st.integers(0, 3),
)
def test_layout_products_equal_the_reference_product(k_and_forms, n):
    # signed forms, so that products cancel and keys drop out mid-product
    k, forms = k_and_forms
    lay = graded_layout(len(forms), n)
    got = layout_products(forms, lay, k)
    for m, p in zip(lay.coords, got):
        want = ref.product([forms[c].terms for c in m], k)
        assert p.terms == want
        assert poly_product([forms[c] for c in m], k).terms == want


def test_layout_products_restore_a_cancelled_key():
    # (2 + t - t^2)(2 - 2t + t^2): the t^2 sum is 0 after two products and
    # nonzero after the third, so t^2 drops out and comes back as -2 t^2.
    f = Polynomial(1, {(0,): F(2), (1,): F(1), (2,): F(-1)})
    g = Polynomial(1, {(0,): F(2), (1,): F(-2), (2,): F(1)})
    lay = graded_layout(2, 2)
    fg = layout_products([f, g], lay, 1)[lay.index[(0, 1)]]
    assert fg.terms == {(0,): 4, (1,): -2, (2,): -2, (3,): 3, (4,): -1}
    assert fg.terms == ref.times(f.terms, g.terms)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.tuples(
                    st.sampled_from([F(0), F(-1), F(1), F(1, 2)]),
                    st.dictionaries(
                        st.tuples(*([st.integers(0, 1)] * k)),
                        st.sampled_from([F(-2), F(-1), F(1), F(2)]),
                        max_size=3,
                    ).map(lambda terms: Polynomial(k, terms)),
                ),
                max_size=6,
            ),
        )
    )
)
def test_poly_combination_equals_the_reference_sum(k_and_pairs):
    # few keys and signed coefficients, so that sums cancel and come back
    k, pairs = k_and_pairs
    got = poly_combination([c for c, _ in pairs], [p for _, p in pairs], k)
    want = ref.combination((c, p.terms) for c, p in pairs)
    assert got.terms == want
    assert poly_sum([p.scale(c) for c, p in pairs], k).terms == want
    assert all(type(c) is F for c in got.terms.values())


def test_poly_combination_restores_a_cancelled_key():
    # t^2 cancels after the third polynomial and comes back as 3 t^2
    t = lambda j: Polynomial(1, {(j,): 1})  # noqa: E731
    polys = [t(1) + t(2), t(3), t(2), t(2)]
    got = poly_combination([F(1), F(1), F(-1), F(3)], polys, 1)
    assert got.terms == {(1,): F(1), (3,): F(1), (2,): F(3)}
    # one coefficient 1 shares the polynomial, its derived views included
    assert poly_combination([F(0), F(1), F(0)], polys, 1) is polys[1]


@st.composite
def graded_elements(draw):
    """An element of ?a or !a at truncation 0-3 over a random polyhedral
    atom: a sparse nonnegative vector, or on the ! side possibly a scaled
    delta at a mix of the atom's generators."""
    a, n = draw(polyhedral_atoms()), draw(st.integers(0, 3))
    h = draw(st.sampled_from([whynot_obj(a, n), bang_obj(a, n)]))
    if not _shape(h).series_primal and draw(st.booleans()):
        gens = a.p_ball_gens
        lam = [F(draw(st.integers(0, 3))) for _ in gens]
        total = sum(lam) or F(1)
        x = tuple(sum(l * g[c] for l, g in zip(lam, gens)) / total for c in range(a.dim))
        scale = draw(st.sampled_from([F(1, 3), F(1), F(5, 2)]))
        return h, tuple(scale * y for y in delta(a, x, n).coords)
    entry = st.sampled_from([F(0), F(0), F(1, 3), F(2, 3), F(1)])
    return h, tuple(draw(st.lists(entry, min_size=h.dim, max_size=h.dim)))


@settings(max_examples=60, deadline=None)
@given(graded_elements())
def test_every_graded_bracket_has_a_witness_of_the_object(case):
    h, e = case
    br = graded_norm_bounds(h, e)
    assert br.lower <= br.upper
    if br.argmax is not None:
        assert len(br.argmax) == h.dim
        assert pairing(dual_object(h), br.argmax, e) == br.lower
    s = exponentials.primal_ball_scheme(dual_object(h))
    if s.exact:
        k = [w * x for w, x in zip(h.pairing_weights, e)]
        assert s.bracket(k).upper == averaged_upper(_combined(k, s), s.blocks)


# The bounding step: the Bernstein upper bound first, and the oracle only
# when the family is exact and no honest member reaches that bound. An
# honest member that reaches a certified upper bound attains the sup, so
# the bracket must be the one of the route that always ran the oracle, and
# each box corner the unit vector's bracket, read with no witness.


def _combined(k, s):
    """sum_c k_c polys[c] of the scheme s, made by the reference sum."""
    return Polynomial(sum(s.blocks), ref.combination(zip(k, (p.terms for p in s.polys))))


def always_oracle_bracket(s, k):
    """BallScheme.bracket with the oracle run on every exact family and its
    argmax mapped through the family one polynomial at a time."""
    low, arg = _ref_honest_lower(k, s.honest)
    pol = _combined(k, s)
    if not s.exact:
        return Bracket(low, averaged_upper(pol, s.blocks), arg, "honest lower / Bernstein upper")
    br = simplex_polynomial_bounds(pol, s.blocks, averaged_upper(pol, s.blocks))
    if br.lower > low:
        low, arg = br.lower, tuple(p.eval_exact(br.argmax) for p in s.polys)
    return Bracket(low, br.upper, arg, f"distribution-family oracle ({br.note})")


@st.composite
def scheme_objectives(draw):
    """The scheme a ?a or !a norm at truncation 1-3 brackets over (the exact
    !a family, or the box of ?a's dual), with a sparse objective k >= 0."""
    a, n = draw(polyhedral_atoms()), draw(st.integers(1, 3))
    h = draw(st.sampled_from([whynot_obj(a, n), bang_obj(a, n)]))
    s = exponentials.primal_ball_scheme(dual_object(h))
    entry = st.sampled_from([F(0), F(0), F(1, 3), F(2, 3), F(1), F(5, 2)])
    return s, tuple(draw(st.lists(entry, min_size=h.dim, max_size=h.dim)))


def _series_case(p_gens, n, k):
    """A scheme_objectives case: the exact scheme of ?a at truncation n
    over the polyhedral atom with these p_gens, and the objective k."""
    h = whynot_obj(from_p_gens(p_gens, len(p_gens[0])), n)
    return exponentials.primal_ball_scheme(dual_object(h)), tuple(k)


@settings(max_examples=80, deadline=None)
# An open bracket, [67/99, 37/54], whose oracle lower beats the best honest
# member, 217/324, though that member reaches more than half the bound.
@example(
    _series_case(
        [[F(3), F(0)], [F(0), F(1, 2)], [F(11, 4), F(3)]],
        2,
        [F(2, 3), F(0), F(0), F(0), F(1, 3), F(0)],
    )
)
@given(scheme_objectives())
def test_bracket_equals_the_always_oracle_route(case):
    s, k = case
    got, want = s.bracket(k), always_oracle_bracket(s, k)
    assert (got.lower, got.upper, got.argmax) == (want.lower, want.upper, want.argmax)
    if got.lower < got.upper:  # a closed bracket reports no provenance
        assert got.note == want.note


@settings(max_examples=40, deadline=None)
@given(polyhedral_atoms(), st.integers(1, 3), st.booleans())
def test_corners_equal_the_unit_brackets(a, n, series_side):
    h = whynot_obj(a, n) if series_side else bang_obj(a, n)
    s = exponentials.primal_ball_scheme(h)
    for c in range(h.dim):
        br = s.bracket(unit(h.dim, c))
        assert s.corner(c) == (br.lower, br.upper)


def test_box_corners_run_the_oracle_only_below_the_bound(monkeypatch):
    # !a at truncation 3 over a dimension-3 atom: 20 corners, and at all
    # but 2 (coordinates 6 and 14) an honest member reaches the Bernstein
    # upper bound. No corner builds a witness.
    a = from_p_gens([[F(1, 8), F(3, 8), F(2)], [F(1, 4), F(3, 8), F(1)]], 3)
    h = dual_object(bang_obj(a, 3))
    s = exponentials.primal_ball_scheme(dual_object(h))
    oracle, family = [], []

    def counting_oracle(pol, blocks, upper):
        # the Bernstein bound _bound already holds is handed in, not redone
        assert upper == averaged_upper(pol, blocks)
        oracle.append(s.polys.index(pol))
        return simplex_polynomial_bounds(pol, blocks, upper)

    monkeypatch.setattr(exponentials, "simplex_polynomial_bounds", counting_oracle)
    monkeypatch.setattr(exponentials, "eval_family", lambda *args: family.append(args))
    exponentials.primal_ball_scheme.cache_clear()
    box = exponentials.primal_ball_scheme(h)
    assert (h.dim, oracle, family) == (20, [6, 14], [])
    assert box.polys[14].constant_term() == 1 / (h.pairing_weights[14] * s.corner(14)[0])


# The analytic and the Sym^n diagonal norms are sups of <g, delta_x> over
# the ball of !A, one BallScheme.bracket each (one per target dual
# generator, for an analytic map). The references build the mixing
# polynomial by hand, from the generator mix x(t) = sum_i t_i g_i of the
# ball of A, and run the oracle on it, as these norms once did: the
# brackets must agree, open ones included, and the witness must be delta_x
# for an x in the ball of A that attains the lower bound.


def _mix_monomials(a, labels):
    """x(t)^m for each label m, x(t) the generator mix of the ball of a, as
    polynomials in the generator count's variables; with that count."""
    gens = primal_gens(a)
    k = len(gens)
    xs = [ref.linear([g[c] for g in gens], k) for c in range(a.dim)]
    return [ref.product([xs[c] for c in m], k) for m in labels], k


def hand_built_new_norm(f, a):
    """(lower, upper) of the oracle on f(x(t), ..., x(t))."""
    labels = ref.multisets(a.dim, f.degree)
    family, k = _mix_monomials(a, labels)
    weights = [ref.multiplicity(m) * c for m, c in zip(labels, f.coords)]
    pol = Polynomial(k, ref.combination(zip(weights, family)))
    br = simplex_polynomial_bounds(pol, (k,), averaged_upper(pol, (k,)))
    return br.lower, br.upper


def hand_built_analytic_norm(f, a, trunc):
    """(lower, upper): the max over the target's dual generators psi of the
    oracle on sum_i w_i psi_i f_i(x(t)) = sum_m k_m x(t)^m, with k_m =
    sum_i w_i psi_i f_im read off the dense matrix, the x(t)^m added in the
    order of the labels m."""
    family, nv = _mix_monomials(a, ref.graded_labels(a.dim, trunc))
    lower = upper = F(0)
    for psi in materialize_q(f.target).q_ball_gens:
        wpsi = [w * p for w, p in zip(f.target.pairing_weights, psi)]
        k = [sum(wp * x for wp, x in zip(wpsi, col)) for col in zip(*f.matrix)]
        pol = Polynomial(nv, ref.combination(zip(k, family)))
        br = simplex_polynomial_bounds(pol, (nv,), averaged_upper(pol, (nv,)))
        lower, upper = max(lower, br.lower), max(upper, br.upper)
    return lower, upper


def assert_delta_witness(br, a, trunc, value):
    """The witness is None exactly when the lower bound is 0; otherwise it
    is delta_x for its grade-1 block x, x lies in the ball of a, and
    value(x) is the lower bound."""
    assert (br.argmax is None) == (br.lower == 0)
    if br.argmax is None:
        return
    labels = ref.graded_labels(a.dim, trunc)
    x = tuple(br.argmax[labels.index((c,))] if trunc else F(0) for c in range(a.dim))
    assert br.argmax == ref.monomials(x, labels)
    assert in_ball(a, x)
    assert value(x) == br.lower


form_entry = st.sampled_from([F(0), F(0), F(0), F(1, 3), F(1), F(5, 2)])


def grade_entries(dim, n):
    """One entry per size-n multiset over dim coordinates."""
    return st.lists(form_entry, min_size=mset_count(dim, n), max_size=mset_count(dim, n))


@st.composite
def sym_forms(draw):
    """A nonnegative symmetric form of degree 0-3 over a random polyhedral
    atom (the zero object has its own test in test_symmetric)."""
    a = draw(polyhedral_atoms())
    n = draw(st.integers(0, 3))
    return sym_tensor(a.dim, n, draw(grade_entries(a.dim, n))), a


@settings(max_examples=60, deadline=None)
@example((ref.xy_form(), Bool))  # open: [1/4, 1/2]
@given(sym_forms())
def test_new_norm_matches_the_hand_built_route(case):
    f, a = case
    br = new_norm_bounds(f, a)
    assert (br.lower, br.upper) == hand_built_new_norm(f, a)
    assert_delta_witness(br, a, f.degree, lambda x: apply_multilinear(f, (x,) * f.degree))


@st.composite
def analytic_maps(draw):
    """A positive analytic map from a random polyhedral atom to the simplex,
    cube or Bool object, truncated at 1-3."""
    a = draw(polyhedral_atoms())
    b = draw(st.sampled_from([simplex_pcs(1), cube_pcs(2), Bool]))
    trunc = draw(st.integers(1, 3))
    grades = [[draw(grade_entries(a.dim, n)) for _ in range(b.dim)] for n in range(trunc + 1)]
    return analytic_map(a, b, grades)


@settings(max_examples=40, deadline=None)
@example(analytic_map(Bool, simplex_pcs(1), [[[0]], [[0, 0]], [[0, 1, 0]]]))  # x1 x2: open
@example(  # rows summed first give another term order
    analytic_map(
        from_p_gens([[F(1, 4), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 4)]], 3),
        Bool,
        [[[0], [0]], [[0] * 3, [0] * 3], [[0] * 6, [0, 0, F(5, 2), 0, 0, 0]],
         [[0] * 9 + [F(1, 3)], [0] * 8 + [F(1, 3), F(5, 2)]]],
    )
)
@given(analytic_maps())
def test_analytic_norm_matches_the_hand_built_route(f):
    br = analytic_norm_bounds(f)
    node = _shape(f.source).node
    a = dual_object(node.base)
    assert (br.lower, br.upper) == hand_built_analytic_norm(f, a, node.trunc)
    assert_delta_witness(br, a, node.trunc, lambda x: norm_primal(f.target, analytic_eval(f, x)))


def test_equal_tensor_factors_build_one_scheme(monkeypatch):
    calls = []
    products = exponentials.layout_products

    def counting(*args):
        calls.append(1)
        return products(*args)

    monkeypatch.setattr(exponentials, "layout_products", counting)
    exponentials.primal_ball_scheme.cache_clear()
    b = bang_obj(cube_pcs(2), 2)
    h = graded_tensor_obj(b, b)
    e = vec(["1/3", "1/3", "2/3", 1, 0, 0, 1, "2/3", "1/3", "1/3", 1, 1, 1, "1/3", "1/3"])
    br = graded_norm_bounds(h, e)
    assert len(calls) == 1
    # the bracket and witness that building each factor apart gave
    assert (br.lower, br.upper, br.argmax) == (F(1), F(1), unit(15, 3))
    assert br.note == "singleton-series lower / sampled-polar LP upper"


def test_monomial_values_read_the_table():
    x = (F(1, 2), F(0), F(2, 3))
    lay = graded_layout(3, 3)
    assert monomial_values(x, lay) == ref.monomials(x, lay.coords)
    assert monomial_values((), graded_layout(0, 2)) == (F(1),)


def _grid_mixes(gens, r):
    """x(t) = sum_i t_i gens[i] at every point t = k/r of the simplex face
    sum t = 1, in the order the oracle scans them."""
    dim = len(gens[0])
    for k in ref.compositions(r, len(gens)):
        yield tuple(sum((F(ki, r) * g[c] for ki, g in zip(k, gens)), F(0)) for c in range(dim))


def test_ascent_lower_bounds_are_pinned():
    # ?a over p_gens [[1/8, 3/8, 2], [1/4, 3/8, 1]] at truncations 2 and 3:
    # open brackets whose lower bound is the best point of the exact 1/10
    # grid on the simplex of mixes x(t) of the dual atom's generators, the
    # value there summed from the reference monomials delta_x; the first
    # strict maximum is the witness. Each upper is the largest Bernstein
    # coefficient of the scheme's combination polynomial.
    a = from_p_gens([[F(1, 8), F(3, 8), F(2)], [F(1, 4), F(3, 8), F(1)]], 3)
    v2 = vec(["1/3", "1/3", 0, 0, 0, "2/3", "1/3", "1/3", "1/3", 0])
    v3 = vec(
        [1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, "2/3", "2/3", "1/3", 1, 0, "2/3", "2/3"]
    )
    pins = [(2, v2, F(139, 27), F(73, 9)), (3, v3, F(3439, 125), F(277, 9))]
    for trunc, v, lower, upper in pins:
        h = whynot_obj(a, trunc)
        br = graded_norm_bounds(h, v)
        assert (br.lower, br.upper) == (lower, upper)
        assert br.note == "distribution-family oracle (grid 1/10)"
        labels = ref.graded_labels(a.dim, trunc)
        k = [w * x for w, x in zip(h.pairing_weights, v)]
        best, witness = F(0), None
        for x in _grid_mixes(primal_gens(dual_object(a)), 10):
            delta_x = ref.monomials(x, labels)
            value = sum((kc * d for kc, d in zip(k, delta_x)), F(0))
            if value > best:
                best, witness = value, delta_x
        assert (br.lower, br.argmax) == (best, witness)
        s = exponentials.primal_ball_scheme(dual_object(h))
        assert ref.bernstein_upper(_combined(k, s).terms, s.blocks) == upper


# The paper's invariance: an isomorphism of atoms moves every norm of !A and
# ?A along with it. For l a permutation times a positive diagonal, l maps A
# onto l(A) and its inverse is of the same kind, so !l and ?l are isometries
# at every truncation. The brackets are a claim about the computation, not
# only about the norms: relabeling and rescaling coordinates moves each ball
# scheme onto the other's, variable for variable, so both bounds must agree.


@st.composite
def moved_atoms(draw):
    """A polyhedral atom (dim 2-3, at most 4 generators) and l: A -> l(A),
    l(x)_r = s_r x_{p(r)} for a permutation p and scales s_r > 0."""
    d = draw(st.integers(2, 3))
    entry = st.fractions(min_value=0, max_value=3, max_denominator=4)
    diag = [draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)) for _ in range(d)]
    pts = [[diag[i] if j == i else F(0) for j in range(d)] for i in range(d)]
    pts += draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=4 - d))
    perm = draw(st.permutations(range(d)))
    scales = [draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)) for _ in range(d)]
    rows = [[scales[r] if c == perm[r] else F(0) for c in range(d)] for r in range(d)]
    a = from_p_gens(pts, d)
    moved = from_p_gens([[scales[r] * p[perm[r]] for r in range(d)] for p in pts], d)
    return mor(a, moved, rows)


@settings(max_examples=25, deadline=None)
@given(moved_atoms(), st.integers(1, 2), st.data())
def test_graded_brackets_are_invariant_under_atom_isomorphisms(l, n, data):
    entry = st.sampled_from([F(0), F(0), F(1, 3), F(2, 3), F(1)])
    for obj, lift in ((bang_obj(l.source, n), bang_mor), (whynot_obj(l.source, n), whynot_mor)):
        e = tuple(data.draw(st.lists(entry, min_size=obj.dim, max_size=obj.dim)))
        moved = lift(l, n)
        before, after = graded_norm_bounds(obj, e), graded_norm_bounds(moved.target, moved(e))
        assert (before.lower, before.upper) == (after.lower, after.upper)

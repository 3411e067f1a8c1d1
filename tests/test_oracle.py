"""Polynomial arithmetic and the simplex bracketing oracle.

The oracle cases are hand-derived: small monomials on simplices have
closed-form maxima (t^e peaks at t_i = e_i / |e|), and the Bernstein
bound is computable by hand for one or two terms.
"""

import itertools
from fractions import Fraction as F
from math import comb, factorial, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conelogic import oracle
from conelogic.errors import NegativeCoefficientError
from conelogic.oracle import (
    Bracket,
    _grid_argmax,
    _grid_resolution,
    averaged_upper,
    simplex_polynomial_bounds,
)
from conelogic.polynomials import Polynomial, eval_family

import reference as ref


def test_polynomial_ring_ops():
    p = Polynomial.linear(2, [1, 2])
    q = Polynomial.constant(2, 3)
    s = p + q
    assert s.eval_exact((F(1), F(1))) == 6
    prod = p * p
    assert prod.terms == {(2, 0): F(1), (1, 1): F(4), (0, 2): F(4)}
    assert prod.total_degree() == 2
    assert (p + p.scale(-1)).is_zero()


def test_truncated_product_drops_high_degrees():
    p = Polynomial.linear(1, [1]) + Polynomial.constant(1, 1)  # 1 + t
    q = p.mul(p, max_degree=1)
    assert q.terms == {(0,): F(1), (1,): F(2)}


def test_substitute_composes_polynomials():
    # g(s) = s + s^2, s = t^2  ->  t^2 + t^4
    g = Polynomial(1, {(1,): F(1), (2,): F(1)})
    t2 = Polynomial(1, {(2,): 1})
    h = g.substitute([t2])
    assert h.terms == {(2,): F(1), (4,): F(1)}
    h3 = g.substitute([t2], max_degree=3)
    assert h3.terms == {(2,): F(1)}


def test_shift_vars_rehomes_exponents():
    p = Polynomial.linear(2, [1, 2])
    q = p.shift_vars(1, 4)
    assert q.terms == {(0, 1, 0, 0): F(1), (0, 0, 1, 0): F(2)}


def test_float_eval_and_gradient():
    p = Polynomial(2, {(2, 1): F(3)})  # 3 t^2 s
    assert p.eval_float([2.0, 1.0]) == pytest.approx(12.0)
    g = p.grad_float([2.0, 1.0])
    assert g[0] == pytest.approx(12.0)  # 6 t s
    assert g[1] == pytest.approx(12.0)  # 3 t^2


def test_affine_case_is_exact():
    p = Polynomial(2, {(0, 0): F(1), (1, 0): F(1), (0, 1): F(2)})
    br = simplex_polynomial_bounds(p, (2,), averaged_upper(p, (2,)))
    assert br.lower == br.upper == 3
    assert br.argmax == (F(0), F(1))


def test_product_monomial_bracket():
    # t1 t2 on the 2-simplex: true sup 1/4 at (1/2, 1/2); Bernstein bound 1/2.
    p = Polynomial(2, {(1, 1): 1})
    br = simplex_polynomial_bounds(p, (2,), averaged_upper(p, (2,)))
    assert br.lower == F(1, 4)
    assert br.upper == F(1, 2)
    assert p.eval_exact(br.argmax) == br.lower


def test_three_way_product_monomial():
    p = Polynomial(3, {(1, 1, 1): 1})
    br = simplex_polynomial_bounds(p, (3,), averaged_upper(p, (3,)))
    assert br.lower == F(1, 27)
    assert br.upper == F(1, 6)


def test_two_blocks_are_independent_simplices():
    # t * s with t and s in their own 1-simplex: sup = 1, exactly bracketed.
    p = Polynomial(2, {(1, 1): 1})
    br = simplex_polynomial_bounds(p, (1, 1), averaged_upper(p, (1, 1)))
    assert br.lower == br.upper == 1


def test_even_power_peak_found_by_grid():
    p = Polynomial(2, {(2, 2): 1})
    br = simplex_polynomial_bounds(p, (2,), averaged_upper(p, (2,)))
    assert br.lower == F(1, 16)
    assert br.upper == F(1, 6)  # coefficient 1 over multinomial(2,2) = 6


def test_averaged_upper_groups_by_profile():
    # 2 t1 t2 + t1^2 on one block, homogeneous of degree 2: coefficient
    # over multinomial, max(2/2, 1/1) = 1.
    p = Polynomial(2, {(1, 1): F(2), (2, 0): F(1)})
    assert averaged_upper(p, (2,)) == 1


def test_bernstein_bound_closes_a_mixed_degree_bracket():
    # t1 + t1 t2 on one 2-block: homogenized, t1 (t1 + t2) + t1 t2 =
    # t1^2 + 2 t1 t2, whose coefficients over the multinomials are 1 and 1.
    # The averaged bound was 1 + 1/2; the vertex (1, 0) reaches 1.
    p = Polynomial(2, {(1, 0): F(1), (1, 1): F(1)})
    assert fraction_averaged_upper(p, (2,)) == F(3, 2)
    br = simplex_polynomial_bounds(p, (2,), averaged_upper(p, (2,)))
    assert (br.lower, br.upper, br.argmax) == (F(1), F(1), (F(1), F(0)))


def test_negative_coefficient_is_refused():
    p = Polynomial(2, {(1, 1): F(-1)})
    with pytest.raises(NegativeCoefficientError):  # checked by the caller's bound
        averaged_upper(p, (2,))


def test_constant_polynomial_collapses():
    # a constant is affine: the vertex maximum is the constant, at the zero
    # point, also with no variables at all
    p = Polynomial.constant(3, F(5, 7))
    br = simplex_polynomial_bounds(p, (3,), averaged_upper(p, (3,)))
    assert br == Bracket(F(5, 7), F(5, 7), (F(0),) * 3, "affine vertex maximum")
    none = Polynomial.constant(0, 4)
    assert simplex_polynomial_bounds(none, (), averaged_upper(none, ())) == Bracket(
        F(4), F(4), (), "affine vertex maximum"
    )


def test_bracket_width():
    br = Bracket(F(1, 4), F(1, 2))
    assert br.upper - br.lower == F(1, 4)


# The integer grid scan against the Fraction loop it replaced: every grid
# point and then the uniform center as Fractions, evaluated term by term in
# Fractions, the first strict maximum kept, at most CANDIDATE_CAP + 1
# candidates. Tests patch oracle.CANDIDATE_CAP to reach the coarse
# resolutions, the truncated grid and the skipped center.


def fraction_value(poly, point):
    total = F(0)
    for e, c in poly.terms.items():
        v = F(c)
        for x, k in zip(point, e):
            v *= F(x) ** k
        total += v
    return total


def grid_points(blocks, r):
    grids = [list(ref.compositions(r, b)) for b in blocks]
    for combo in itertools.product(*grids):
        yield tuple(F(k, r) for part in combo for k in part)


def fraction_scan(poly, points):
    """The first strict maximum over the points, or the zero point."""
    lower, argmax = F(0), (F(0),) * poly.nvars
    for point in points:
        v = fraction_value(poly, point)
        if v > lower:
            lower, argmax = v, point
    return lower, argmax


def reference_grid_bracket(poly, blocks):
    cap = oracle.CANDIDATE_CAP
    r = next(
        (x for x in oracle.RESOLUTIONS if prod(comb(x + b - 1, b - 1) for b in blocks) <= cap),
        oracle.RESOLUTIONS[-1],
    )
    center = tuple(F(1, b) for b in blocks for _ in range(b))
    points = itertools.chain(grid_points(blocks, r), [center])
    return (*fraction_scan(poly, itertools.islice(points, cap + 1)), f"grid 1/{r}")


def assert_grid_matches_reference(poly, blocks):
    br = simplex_polynomial_bounds(poly, blocks, averaged_upper(poly, blocks))
    assert (br.lower, br.argmax, br.note) == reference_grid_bracket(poly, blocks)


@pytest.mark.parametrize(
    "terms, blocks, params",
    [
        # tie between the two vertices: the first one wins
        ({(2, 0): F(1), (0, 2): F(1)}, (2,), {}),
        # zero at every grid vertex of 1/1: the center wins
        ({(1, 1): F(1)}, (2,), {"CANDIDATE_CAP": 2}),
        # zero on the truncated grid, center not reached: the zero point
        ({(1, 1, 1): F(1)}, (3,), {"CANDIDATE_CAP": 1}),
        # three blocks, mixed denominators
        (
            {(1, 1, 0, 1): F(2, 3), (0, 2, 1, 0): F(5, 4), (0, 0, 0, 2): F(1, 6)},
            (1, 2, 1),
            {},
        ),
        # a 3-variable block's grid at resolution r has comb(r + 2, 2)
        # points, and a cap of exactly that many picks r: every resolution
        *[
            ({(1, 1, 1): F(1), (2, 0, 0): F(1, 2)}, (3,), {"CANDIDATE_CAP": comb(r + 2, 2)})
            for r in oracle.RESOLUTIONS
        ],
    ],
)
def test_grid_scan_cases(terms, blocks, params, monkeypatch):
    # params: the oracle constants the case sets
    for name, value in params.items():
        monkeypatch.setattr(oracle, name, value)
    nvars = sum(blocks)
    assert_grid_matches_reference(Polynomial(nvars, terms), blocks)


@pytest.mark.parametrize(
    "terms, blocks, r, cap, expected",
    [
        ({(2, 0): F(1), (0, 2): F(1)}, (2,), 10, 20000, (F(1), (F(0), F(1)))),
        ({(1, 1): F(1)}, (2,), 1, 20000, (F(0), (F(0), F(0)))),
        ({(1, 1, 1): F(1)}, (3,), 2, 2, (F(0), (F(0), F(0), F(0)))),
        # 2/3 t1 + 5/4 t1^2 (1 - t1) + 1/6 on the grid t1 = k/10: k = 9
        (
            {(1, 1, 0, 1): F(2, 3), (0, 2, 1, 0): F(5, 4), (0, 0, 0, 2): F(1, 6)},
            (1, 2, 1),
            10,
            20000,
            (F(2083, 2400), (F(1), F(9, 10), F(1, 10), F(1))),
        ),
    ],
)
def test_grid_argmax_pinned(terms, blocks, r, cap, expected, monkeypatch):
    monkeypatch.setattr(oracle, "CANDIDATE_CAP", cap)
    poly = Polynomial(sum(blocks), terms)
    assert _grid_argmax(poly, blocks, r, averaged_upper(poly, blocks)) == expected


@st.composite
def grid_problems(draw):
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = sum(blocks)
    coeff = st.sampled_from([F(1), F(1, 2), F(2, 3), F(3), F(5, 4)])
    exps = st.tuples(*([st.integers(0, 2)] * n))
    poly = Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=5)))
    assume(poly.total_degree() >= 2)
    return poly, blocks, draw(st.sampled_from([1, 2, 5, 30, 400]))


@settings(max_examples=150, deadline=None)
@given(grid_problems())
def test_grid_scan_matches_the_fraction_loop(problem):
    poly, blocks, cap = problem
    with mock.patch.object(oracle, "CANDIDATE_CAP", cap):
        assert_grid_matches_reference(poly, blocks)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.dictionaries(
                st.tuples(*([st.integers(0, 3)] * n)),
                st.fractions(min_value=-5, max_value=5, max_denominator=7),
                max_size=6,
            ).map(lambda terms: Polynomial(n, terms)),
            st.lists(st.floats(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_float_view_matches_the_term_loop(poly_and_point):
    poly, t = poly_and_point
    value = 0.0
    grad = [0.0] * poly.nvars
    for e, c in poly.terms.items():
        v = float(c)
        for i, k in enumerate(e):
            if k:
                v *= t[i] ** k
        value += v
        for i, k in enumerate(e):
            if k:
                g = float(c) * k
                for j, kj in enumerate(e):
                    p = kj - 1 if j == i else kj
                    if p:
                        g *= t[j] ** p
                grad[i] += g
    assert poly.eval_float(t) == value  # bit for bit, not approximately
    assert poly.grad_float(t) == grad


# Exact evaluation in integers against the term-by-term Fraction sum: zero
# coordinates, integer entries (int and Fraction), constant and zero
# polynomials, and points snapped from floats with large denominators.
coordinate = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.floats(0, 1).map(lambda x: F(x).limit_denominator(10**6)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.dictionaries(
                st.tuples(*([st.integers(0, 3)] * n)),
                st.fractions(min_value=-5, max_value=5, max_denominator=9),
                max_size=6,
            ).map(lambda terms: Polynomial(n, terms)),
            st.lists(coordinate, min_size=n, max_size=n),
        )
    )
)
def test_eval_exact_matches_the_term_sum(poly_and_point):
    poly, point = poly_and_point
    value = poly.eval_exact(point)
    assert type(value) is F
    assert value == fraction_value(poly, point)


def test_eval_exact_on_constant_and_zero_polynomials():
    point = (F(1, 3), 0, F(999999, 1000000))
    assert Polynomial.zero(3).eval_exact(point) == 0
    assert Polynomial.constant(3, F(-5, 7)).eval_exact(point) == F(-5, 7)
    assert Polynomial.constant(0, 4).eval_exact(()) == 4


# eval_family scales the point once for a whole family of polynomials of
# different degrees; each value must be that polynomial's own.


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.dictionaries(
                    st.tuples(*([st.integers(0, 3)] * n)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=9),
                    max_size=5,
                ).map(lambda terms: Polynomial(n, terms)),
                max_size=5,
            ),
            st.lists(coordinate, min_size=n, max_size=n),
        )
    )
)
def test_eval_family_matches_eval_exact(family_and_point):
    polys, point = family_and_point
    values = eval_family(polys, point)
    assert all(type(v) is F for v in values)
    assert values == tuple(p.eval_exact(point) for p in polys)
    assert values == tuple(fraction_value(p, point) for p in polys)


def test_eval_family_refuses_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="point length mismatch"):
        eval_family([Polynomial.constant(2, 1), Polynomial.constant(3, 1)], (F(1), F(0)))
    assert eval_family([], (F(1, 2),)) == ()


# The bound is the largest Bernstein coefficient, on the integer view; it
# is checked against the Fraction route of tests/reference.py, and against
# the averaged bound it replaced: per degree profile, the best Fraction
# ratio of coefficient to multinomial, summed over the profiles.


def fraction_averaged_upper(poly, blocks):
    best = {}
    for e, c in poly.terms.items():
        profile, weight, off = [], 1, 0
        for b in blocks:
            part = e[off : off + b]
            off += b
            profile.append(sum(part))
            m = factorial(sum(part))
            for k in part:
                m //= factorial(k)
            weight *= m
        ratio = c / weight
        if ratio > best.get(tuple(profile), F(0)):
            best[tuple(profile)] = ratio
    return sum(best.values(), F(0))


def block_polynomials(blocks, max_exponent, min_terms=0):
    """(poly, blocks): up to 8 terms with nonnegative coefficients over the
    variables of the drawn blocks."""
    return blocks.flatmap(
        lambda sizes: st.tuples(
            st.dictionaries(
                st.tuples(*([st.integers(0, max_exponent)] * sum(sizes))),
                st.fractions(min_value=0, max_value=7, max_denominator=12).filter(bool),
                min_size=min_terms,
                max_size=8,
            ).map(lambda terms: Polynomial(sum(sizes), terms)),
            st.just(tuple(sizes)),
        )
    )


@settings(max_examples=200, deadline=None)
@given(block_polynomials(st.lists(st.integers(1, 3), max_size=3), 4))
def test_averaged_upper_matches_the_fraction_formula(problem):
    poly, blocks = problem
    assert averaged_upper(poly, blocks) == ref.bernstein_upper(poly.terms, blocks)


def _quarter_grid(blocks):
    """Every point k/4 with k >= 0 and sum k <= 4 per block: the vertices
    of each simplex, its origin among them, lie on it."""
    per_block = [[c[:-1] for c in ref.compositions(4, b + 1)] for b in blocks]
    for combo in itertools.product(*per_block):
        yield tuple(F(k, 4) for part in combo for k in part)


@settings(max_examples=100, deadline=None)
@given(
    block_polynomials(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda b: sum(b) <= 5),
        3,
        min_terms=1,
    )
)
def test_bernstein_bound_lies_between_the_values_and_the_averaged_bound(problem):
    poly, blocks = problem
    upper = averaged_upper(poly, blocks)
    assert upper <= fraction_averaged_upper(poly, blocks)
    assert all(fraction_value(poly, t) <= upper for t in _quarter_grid(blocks))


def test_negative_coefficient_error_names_the_first_negative_term():
    # two negative terms: the least exponent in sorted order is named
    p = Polynomial(2, {(1, 1): F(-1), (0, 2): F(-3), (2, 0): F(1)})
    assert p.negative_term() == ((0, 2), F(-3))
    with pytest.raises(NegativeCoefficientError) as err:
        averaged_upper(p, (2,))
    assert str(err.value) == (
        "monomial t^(0, 2) has coefficient -3 < 0; the simplex oracle only "
        "brackets nonnegative-coefficient polynomials"
    )
    assert Polynomial(2, {(1, 1): F(1, 3)}).negative_term() is None


def counted_gradients(monkeypatch):
    calls = []
    grad = Polynomial.grad_float

    def counting(self, point):
        calls.append(1)
        return grad(self, point)

    monkeypatch.setattr(Polynomial, "grad_float", counting)
    return calls


# The grid scan stops at the certified upper bound, and the center is
# evaluated only while the bracket is open. Both are checked against the
# full scan and against a reference that always runs every step.


@st.composite
def nonnegative_problems(draw):
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = sum(blocks)
    coeff = st.sampled_from([F(1), F(1, 2), F(2, 3), F(3), F(5, 4), F(7, 9)])
    exps = st.tuples(*([st.integers(0, 3)] * n))
    poly = Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)))
    assume(poly.total_degree() >= 2)
    return poly, blocks


@settings(max_examples=200, deadline=None)
@given(nonnegative_problems(), st.integers(1, 6), st.sampled_from([0, 1, 3, 50, 20000]))
def test_stopped_grid_scan_equals_the_full_scan(problem, r, cap):
    poly, blocks = problem
    upper = averaged_upper(poly, blocks)
    full = fraction_scan(poly, itertools.islice(grid_points(blocks, r), cap + 1))
    with mock.patch.object(oracle, "CANDIDATE_CAP", cap):
        assert _grid_argmax(poly, blocks, r, upper) == full
    assert full[0] <= upper


def test_grid_scan_stops_at_a_closed_bracket():
    # t1^2 + t2^2 has upper 1, reached at the first grid point (0, 1); a
    # stop value one notch above a reached value is never met.
    p = Polynomial(2, {(2, 0): F(1), (0, 2): F(1)})
    assert _grid_argmax(p, (2,), 10, F(1)) == (F(1), (F(0), F(1)))
    q = Polynomial(2, {(1, 1): F(1)})  # sup 1/4 at the center
    assert _grid_argmax(q, (2,), 2, F(1, 4)) == (F(1, 4), (F(1, 2), F(1, 2)))
    assert _grid_argmax(q, (2,), 4, F(1, 2)) == fraction_scan(q, grid_points((2,), 4))
    # 2 t1^2 + t2^2 at r = 1: (0, 1) gives 1, one unit below the stop value
    # 2, so the scan goes on to (1, 0).
    p2 = Polynomial(2, {(2, 0): F(2), (0, 2): F(1)})
    assert averaged_upper(p2, (2,)) == 2
    assert _grid_argmax(p2, (2,), 1, F(2)) == (F(2), (F(1), F(0)))


def reference_bounds(poly, blocks):
    """The oracle with the full grid scan and the center always run, as
    before the bracket could close early."""
    upper = averaged_upper(poly, blocks)
    r, count = _grid_resolution(blocks)
    # no grid point reaches upper + 1, so the scan runs in full
    lower, argmax = _grid_argmax(poly, blocks, r, upper + 1)
    if count <= oracle.CANDIDATE_CAP:
        center = tuple(F(1, b) for b in blocks for _ in range(b))
        v = fraction_value(poly, center)
        if v > lower:
            lower, argmax = v, center
    return Bracket(lower, upper, argmax, f"grid 1/{r}")


@settings(max_examples=150, deadline=None)
@given(nonnegative_problems(), st.sampled_from([1, 5, 400, 20000]))
def test_bounds_equal_the_always_run_reference(problem, cap):
    poly, blocks = problem
    with mock.patch.object(oracle, "CANDIDATE_CAP", cap):
        want = reference_bounds(poly, blocks)
        assert simplex_polynomial_bounds(poly, blocks, averaged_upper(poly, blocks)) == want


# Every candidate is compared by its exact value, so the bracket cannot
# depend on the order in which a polynomial's terms were added. The pinned
# polynomial is the combination that the ?a norm at truncation 3 of
# test_exponentials.test_ascent_lower_bounds_are_pinned brackets; with its
# terms reversed, a float ascent once lifted its lower bound to a value
# other than the one it reached in this order.

PINNED_COMBINATION = [
    ((0, 0, 0, 0), F(1)), ((0, 0, 1, 0), F(3)), ((0, 0, 0, 1), F(4)),
    ((1, 0, 0, 0), F(1, 2)), ((0, 1, 1, 0), F(16)), ((0, 1, 0, 1), F(64, 3)),
    ((0, 2, 0, 0), F(64, 9)), ((1, 1, 0, 0), F(8, 3)), ((1, 0, 2, 0), F(35, 3)),
    ((0, 0, 3, 0), F(602, 81)), ((1, 0, 1, 1), F(100, 3)), ((0, 0, 2, 1), F(196, 9)),
    ((1, 0, 0, 2), F(24)), ((0, 0, 1, 2), F(16)), ((0, 2, 1, 0), F(1024, 27)),
    ((0, 2, 0, 1), F(512, 9)), ((1, 1, 1, 0), F(16)), ((0, 1, 2, 0), F(272, 27)),
    ((1, 1, 0, 1), F(64, 3)), ((0, 1, 1, 1), F(128, 9)), ((2, 0, 1, 0), F(5, 6)),
    ((2, 0, 0, 1), F(1)), ((0, 3, 0, 0), F(512, 27)), ((2, 1, 0, 0), F(4, 3)),
    ((3, 0, 0, 0), F(1, 12)),
]


@st.composite
def reordered_problems(draw):
    """(terms, blocks, order): a nonnegative polynomial's terms and a
    permutation to add them in."""
    poly, blocks = draw(nonnegative_problems())
    terms = list(poly.terms.items())
    return terms, blocks, draw(st.permutations(range(len(terms))))


@settings(max_examples=150, deadline=None)
@given(reordered_problems())
@example((PINNED_COMBINATION, (4,), tuple(reversed(range(len(PINNED_COMBINATION))))))
def test_bracket_does_not_depend_on_term_order(problem):
    terms, blocks, order = problem
    n = sum(blocks)
    p = Polynomial(n, dict(terms))
    q = Polynomial(n, dict(terms[i] for i in order))
    want = simplex_polynomial_bounds(p, blocks, averaged_upper(p, blocks))
    got = simplex_polynomial_bounds(q, blocks, averaged_upper(q, blocks))
    assert got == want  # lower, upper, argmax and note


def test_closed_bracket_evaluates_no_candidate(monkeypatch):
    calls = []
    exact = Polynomial.eval_exact

    def counting(self, point):
        calls.append(point)
        return exact(self, point)

    monkeypatch.setattr(Polynomial, "eval_exact", counting)
    grads = counted_gradients(monkeypatch)
    closed = Polynomial(2, {(2, 0): F(1), (0, 2): F(1)})
    br = simplex_polynomial_bounds(closed, (2,), averaged_upper(closed, (2,)))
    assert (br.lower, br.upper, br.note) == (F(1), F(1), "grid 1/10")
    assert calls == [] and grads == []
    q = Polynomial(2, {(1, 1): 1})
    simplex_polynomial_bounds(q, (2,), averaged_upper(q, (2,)))
    assert calls == [(F(1, 2), F(1, 2))] and grads == []  # the center only


def test_coefficient_beyond_float_range_is_bracketed_exactly(monkeypatch):
    # float(10**400) overflows; the oracle reads no float view at all
    def no_float(self, *args):
        raise AssertionError("the oracle read a float view")

    for name in ("eval_float", "grad_float"):
        monkeypatch.setattr(Polynomial, name, no_float)
    huge = F(10**400)
    p = Polynomial(2, {(1, 1): huge, (2, 0): F(1)})
    br = simplex_polynomial_bounds(p, (2,), averaged_upper(p, (2,)))
    assert br.note == "grid 1/10"
    assert br.argmax == (F(1, 2), F(1, 2))  # the grid's first best point
    assert br.lower == p.eval_exact(br.argmax) == huge / 4 + F(1, 4)
    assert br.upper == averaged_upper(p, (2,)) == huge / 2  # 1 and huge / 2
    assert br.lower <= br.upper

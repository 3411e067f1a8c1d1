"""Polynomial arithmetic and the simplex bracketing oracle.

The oracle cases are hand-derived: small monomials on simplices have
closed-form maxima (t^e peaks at t_i = e_i / |e|), and the averaged
coefficient bound is computable by hand for one or two terms.
"""

import itertools
from dataclasses import replace
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conelogic.errors import NegativeCoefficientError
from conelogic.oracle import (
    Bracket,
    OracleParams,
    _ascent,
    _block_slices,
    _grid_argmax,
    _grid_resolution,
    _snap,
    averaged_upper,
    simplex_polynomial_bounds,
)
from conelogic.polynomials import Polynomial, eval_family


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
    br = simplex_polynomial_bounds(p, (2,))
    assert br.lower == br.upper == 3
    assert br.argmax == (F(0), F(1))


def test_product_monomial_bracket():
    # t1 t2 on the 2-simplex: true sup 1/4 at (1/2, 1/2); averaged upper 1/2.
    p = Polynomial(2, {(1, 1): 1})
    br = simplex_polynomial_bounds(p, (2,))
    assert br.lower == F(1, 4)
    assert br.upper == F(1, 2)
    assert p.eval_exact(br.argmax) == br.lower


def test_three_way_product_monomial():
    p = Polynomial(3, {(1, 1, 1): 1})
    br = simplex_polynomial_bounds(p, (3,))
    assert br.lower == F(1, 27)
    assert br.upper == F(1, 6)


def test_two_blocks_are_independent_simplices():
    # t * s with t and s in their own 1-simplex: sup = 1, exactly bracketed.
    p = Polynomial(2, {(1, 1): 1})
    br = simplex_polynomial_bounds(p, (1, 1))
    assert br.lower == br.upper == 1


def test_ascent_refines_a_coarse_grid():
    # t1^2 t2 peaks at (2/3, 1/3) with value 4/27; a half-step grid only
    # reaches 1/8, and the multiplicative update must recover the peak.
    p = Polynomial(2, {(2, 1): 1})
    br = simplex_polynomial_bounds(p, (2,), OracleParams(grid_resolution=2))
    assert br.lower == F(4, 27)
    assert br.argmax == (F(2, 3), F(1, 3))


def test_even_power_peak_found_by_grid():
    p = Polynomial(2, {(2, 2): 1})
    br = simplex_polynomial_bounds(p, (2,))
    assert br.lower == F(1, 16)
    assert br.upper == F(1, 6)  # coefficient 1 over multinomial(2,2) = 6


def test_averaged_upper_groups_by_profile():
    # 2 t1 t2 + t1^2 on one block: profile (2) best ratio max(2/2, 1/1) = 1.
    p = Polynomial(2, {(1, 1): F(2), (2, 0): F(1)})
    assert averaged_upper(p, (2,)) == 1


def test_negative_coefficient_is_refused():
    p = Polynomial(2, {(1, 1): F(-1)})
    with pytest.raises(NegativeCoefficientError):
        simplex_polynomial_bounds(p, (2,))


def test_constant_polynomial_collapses():
    p = Polynomial.constant(3, F(5, 7))
    br = simplex_polynomial_bounds(p, (3,))
    assert br.lower == br.upper == F(5, 7)


def test_bracket_width():
    br = Bracket(F(1, 4), F(1, 2))
    assert br.upper - br.lower == F(1, 4)


# The integer grid scan against the Fraction loop it replaced: every grid
# point and then the uniform center as Fractions, evaluated term by term in
# Fractions, the first strict maximum kept, at most candidate_cap + 1
# candidates.


def fraction_value(poly, point):
    total = F(0)
    for e, c in poly.terms.items():
        v = F(c)
        for x, k in zip(point, e):
            v *= F(x) ** k
        total += v
    return total


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_grid_bracket(poly, blocks, params):
    if params.grid_resolution is not None:
        resolutions = [params.grid_resolution]
    else:
        resolutions = [10, 8, 6, 5, 4, 3, 2, 1]
    cap = params.candidate_cap
    r = next(
        (x for x in resolutions if prod(comb(x + b - 1, b - 1) for b in blocks) <= cap),
        resolutions[-1],
    )

    def points():
        grids = [list(_compositions(r, b)) for b in blocks]
        for combo in itertools.product(*grids):
            yield tuple(F(k, r) for part in combo for k in part)
        yield tuple(F(1, b) for b in blocks for _ in range(b))

    lower, argmax = F(0), (F(0),) * poly.nvars
    for point in itertools.islice(points(), cap + 1):
        v = fraction_value(poly, point)
        if v > lower:
            lower, argmax = v, point
    return lower, argmax, f"grid 1/{r} + ascent"


def assert_grid_matches_reference(poly, blocks, params):
    params = replace(params, ascent_iters=0)
    br = simplex_polynomial_bounds(poly, blocks, params)
    assert (br.lower, br.argmax, br.note) == reference_grid_bracket(poly, blocks, params)


@pytest.mark.parametrize(
    "terms, blocks, params",
    [
        # tie between the two vertices: the first one wins
        ({(2, 0): F(1), (0, 2): F(1)}, (2,), OracleParams()),
        # zero at every grid vertex: the center wins
        ({(1, 1): F(1)}, (2,), OracleParams(grid_resolution=1)),
        # zero on the truncated grid, center not reached: the zero point
        ({(1, 1, 1): F(1)}, (3,), OracleParams(grid_resolution=2, candidate_cap=2)),
        # three blocks, mixed denominators
        (
            {(1, 1, 0, 1): F(2, 3), (0, 2, 1, 0): F(5, 4), (0, 0, 0, 2): F(1, 6)},
            (1, 2, 1),
            OracleParams(),
        ),
    ],
)
def test_grid_scan_cases(terms, blocks, params):
    nvars = sum(blocks)
    assert_grid_matches_reference(Polynomial(nvars, terms), blocks, params)


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
def test_grid_argmax_pinned(terms, blocks, r, cap, expected):
    assert _grid_argmax(Polynomial(sum(blocks), terms), blocks, r, cap) == expected


@st.composite
def grid_problems(draw):
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = sum(blocks)
    coeff = st.sampled_from([F(1), F(1, 2), F(2, 3), F(3), F(5, 4)])
    exps = st.tuples(*([st.integers(0, 2)] * n))
    poly = Polynomial(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=5)))
    assume(poly.total_degree() >= 2)
    params = OracleParams(
        grid_resolution=draw(st.sampled_from([None, 1, 2, 3, 4])),
        candidate_cap=draw(st.sampled_from([1, 2, 5, 30, 400])),
    )
    return poly, blocks, params


@settings(max_examples=150, deadline=None)
@given(grid_problems())
def test_grid_scan_matches_the_fraction_loop(problem):
    assert_grid_matches_reference(*problem)


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


# The averaged upper bound on the integer view against the Fraction formula
# it replaced: one Fraction ratio per term, compared per profile.


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=3).flatmap(
        lambda blocks: st.tuples(
            st.dictionaries(
                st.tuples(*([st.integers(0, 4)] * sum(blocks))),
                st.fractions(min_value=0, max_value=7, max_denominator=12).filter(bool),
                max_size=8,
            ).map(lambda terms: Polynomial(sum(blocks), terms)),
            st.just(tuple(blocks)),
        )
    )
)
def test_averaged_upper_matches_the_fraction_formula(problem):
    poly, blocks = problem
    assert averaged_upper(poly, blocks) == fraction_averaged_upper(poly, blocks)


def test_negative_coefficient_error_names_the_first_negative_term():
    # two negative terms: the least exponent in sorted order is named
    p = Polynomial(2, {(1, 1): F(-1), (0, 2): F(-3), (2, 0): F(1)})
    assert p.negative_term() == ((0, 2), F(-3))
    with pytest.raises(NegativeCoefficientError) as err:
        simplex_polynomial_bounds(p, (2,))
    assert str(err.value) == (
        "monomial t^(0, 2) has coefficient -3 < 0; the simplex oracle only "
        "brackets nonnegative-coefficient polynomials"
    )
    with pytest.raises(NegativeCoefficientError):
        averaged_upper(p, (2,))
    assert Polynomial(2, {(1, 1): F(1, 3)}).negative_term() is None


# The ascent stops at its fixed point; the plain loop below runs every
# iteration and must land on the same point.


def reference_ascent(poly, blocks, start, iters):
    t = list(start)
    best = list(start)
    best_val = poly.eval_float(t)
    slices = _block_slices(blocks)
    for _ in range(iters):
        grad = poly.grad_float(t)
        moved = False
        for s in slices:
            u = [max(t[i], 1e-12) * max(grad[i], 0.0) for i in range(s.start, s.stop)]
            z = sum(u)
            if z <= 0.0:
                continue
            for j, i in enumerate(range(s.start, s.stop)):
                t[i] = u[j] / z
            moved = True
        if not moved:
            break
        val = poly.eval_float(t)
        if val > best_val:
            best_val = val
            best = list(t)
    return best


def counted_gradients(monkeypatch):
    calls = []
    grad = Polynomial.grad_float

    def counting(self, point):
        calls.append(1)
        return grad(self, point)

    monkeypatch.setattr(Polynomial, "grad_float", counting)
    return calls


@pytest.mark.parametrize(
    "terms, blocks, start",
    [
        ({(1, 1): F(1)}, (2,), [0.5, 0.5]),  # t1 t2 at its peak
        ({(2,): F(3)}, (1,), [1.0]),  # one coordinate: t = 1 is kept
        ({(1, 1): F(1)}, (1, 1), [1.0, 1.0]),
    ],
)
def test_ascent_stops_at_a_fixed_point(monkeypatch, terms, blocks, start):
    poly = Polynomial(sum(blocks), terms)
    calls = counted_gradients(monkeypatch)
    assert _ascent(poly, blocks, start, 120) == start
    assert len(calls) == 1
    calls.clear()
    assert reference_ascent(poly, blocks, start, 120) == start
    assert len(calls) == 120


@settings(max_examples=150, deadline=None)
@given(grid_problems(), st.data())
def test_ascent_matches_the_full_loop(problem, data):
    poly, blocks, _ = problem
    start = []
    for b in blocks:
        k = data.draw(st.lists(st.integers(0, 6), min_size=b, max_size=b))
        total = sum(k) or 1
        start.extend(x / total for x in k)
    iters = data.draw(st.sampled_from([0, 1, 5, 120]))
    got = _ascent(poly, blocks, start, iters)
    want = reference_ascent(poly, blocks, start, iters)
    assert [x.hex() for x in got] == [x.hex() for x in want]  # bit for bit


# The grid scan stops at the certified upper bound, and the center and the
# ascent run only while the bracket is open. Both are checked against the
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
    full = _grid_argmax(poly, blocks, r, cap)
    assert _grid_argmax(poly, blocks, r, cap, upper) == full
    assert full[0] <= upper


def test_grid_scan_stops_at_a_closed_bracket():
    # t1^2 + t2^2 has upper 1, reached at the first grid point (0, 1); a
    # stop value one notch above a reached value is never met.
    p = Polynomial(2, {(2, 0): F(1), (0, 2): F(1)})
    assert _grid_argmax(p, (2,), 10, 20000, F(1)) == (F(1), (F(0), F(1)))
    q = Polynomial(2, {(1, 1): F(1)})  # sup 1/4 at the center
    assert _grid_argmax(q, (2,), 2, 20000, F(1, 4)) == (F(1, 4), (F(1, 2), F(1, 2)))
    assert _grid_argmax(q, (2,), 4, 20000, F(1, 2)) == _grid_argmax(q, (2,), 4, 20000)
    # 2 t1^2 + t2^2 at r = 1: (0, 1) gives 1, one unit below the stop value
    # 2, so the scan goes on to (1, 0).
    p2 = Polynomial(2, {(2, 0): F(2), (0, 2): F(1)})
    assert averaged_upper(p2, (2,)) == 2
    assert _grid_argmax(p2, (2,), 1, 20000, F(2)) == (F(2), (F(1), F(0)))


def reference_bounds(poly, blocks, params):
    """The oracle with the center and the ascent always run, as before the
    bracket could close early."""
    upper = averaged_upper(poly, blocks)
    r, count = _grid_resolution(blocks, params)
    lower, argmax = _grid_argmax(poly, blocks, r, params.candidate_cap)
    if count <= params.candidate_cap:
        center = tuple(F(1, b) for b in blocks for _ in range(b))
        v = fraction_value(poly, center)
        if v > lower:
            lower, argmax = v, center
    if params.ascent_iters > 0:
        refined = _ascent(poly, blocks, [float(x) for x in argmax], params.ascent_iters)
        snapped = _snap(refined, blocks, params.snap_denominator)
        v = fraction_value(poly, snapped)
        if v > lower:
            lower, argmax = v, snapped
    return Bracket(lower, upper, argmax, f"grid 1/{r} + ascent")


@settings(max_examples=150, deadline=None)
@given(
    nonnegative_problems(),
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from([0, 1, 5, 120]),
    st.sampled_from([1, 5, 400, 20000]),
)
def test_bounds_equal_the_always_run_reference(problem, r, iters, cap):
    poly, blocks = problem
    params = OracleParams(grid_resolution=r, ascent_iters=iters, candidate_cap=cap)
    assert simplex_polynomial_bounds(poly, blocks, params) == reference_bounds(
        poly, blocks, params
    )


def test_closed_bracket_evaluates_no_candidate(monkeypatch):
    calls = []
    exact = Polynomial.eval_exact

    def counting(self, point):
        calls.append(point)
        return exact(self, point)

    monkeypatch.setattr(Polynomial, "eval_exact", counting)
    grads = counted_gradients(monkeypatch)
    closed = Polynomial(2, {(2, 0): F(1), (0, 2): F(1)})
    br = simplex_polynomial_bounds(closed, (2,))
    assert (br.lower, br.upper, br.note) == (F(1), F(1), "grid 1/10 + ascent")
    assert calls == [] and grads == []
    simplex_polynomial_bounds(Polynomial(2, {(1, 1): 1}), (2,))
    assert len(calls) == 2 and grads  # the center and the snapped point


def test_coefficients_beyond_float_range_skip_the_ascent():
    huge = F(10**400)
    p = Polynomial(2, {(1, 1): huge, (2, 0): F(1)})
    br = simplex_polynomial_bounds(p, (2,))
    assert br.note == "grid 1/10, ascent skipped: coefficients beyond float range"
    assert br.lower == p.eval_exact(br.argmax) == huge / 4 + F(1, 4)
    assert br.lower <= br.upper


@pytest.mark.parametrize(
    "field, bad",
    [
        ("grid_resolution", 0),
        ("ascent_iters", -1),
        ("snap_denominator", 0),
        ("candidate_cap", -1),
    ],
)
def test_oracle_params_refuse_bad_fields(field, bad):
    with pytest.raises(ValueError, match=f"OracleParams.{field} "):
        OracleParams(**{field: bad})
    least = bad + 1
    assert getattr(OracleParams(**{field: least}), field) == least
    with pytest.raises(ValueError, match=field):
        OracleParams(**{field: 2.0})


def test_oracle_params_take_no_resolution():
    assert OracleParams(grid_resolution=None).grid_resolution is None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.dictionaries(
                st.tuples(*([st.integers(0, 4)] * n)),
                st.fractions(min_value=0, max_value=9, max_denominator=11),
                max_size=8,
            ).map(lambda terms: Polynomial(n, terms)),
            st.lists(
                st.lists(st.floats(0, 2, allow_subnormal=False), min_size=n, max_size=n),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_grad_float_reads_its_plan_bit_for_bit(poly_and_points):
    poly, points = poly_and_points
    for t in points:  # the cached plan serves every point
        want = [0.0] * poly.nvars
        for e, c in poly.terms.items():
            factors = [(i, k) for i, k in enumerate(e) if k]
            for i, k in factors:
                v = float(c) * k
                for j, kj in factors:
                    p = kj - 1 if j == i else kj
                    if p:
                        v *= t[j] ** p
                want[i] += v
        assert [x.hex() for x in poly.grad_float(t)] == [x.hex() for x in want]

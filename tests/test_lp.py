"""Exact simplex: pinned examples, witness soundness, float cross-check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic.lp import (
    LpStatus,
    constraint,
    lp_feasible,
    lp_maximize,
    lp_minimize,
    problem,
)

F = Fraction


def test_simple_optimum_and_bland_witness():
    # max x + y  s.t.  x + y <= 1, x,y >= 0.
    # Bland picks the lowest-index entering column, so the witness is (1, 0).
    res = lp_maximize(problem([1, 1], [constraint([1, 1], "<=", 1)]))
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 1
    assert res.witness == (F(1), F(0))


def test_rational_data_stays_exact():
    # max 2x + 3y  s.t.  x/3 + y <= 1/7, x + y/5 <= 2/3
    res = lp_maximize(
        problem(
            [2, 3],
            [
                constraint([F(1, 3), 1], "<=", F(1, 7)),
                constraint([1, F(1, 5)], "<=", F(2, 3)),
            ],
        )
    )
    assert res.status is LpStatus.OPTIMAL
    x, y = res.witness
    assert x / 3 + y <= F(1, 7)
    assert x + y / 5 <= F(2, 3)
    assert 2 * x + 3 * y == res.value
    # Hand-checked: the feasible vertices are (0,0), (0,1/7), (3/7,0);
    # the constraint intersection has y < 0. Optimum 6/7 at (3/7, 0).
    assert res.value == F(6, 7)
    assert res.witness == (F(3, 7), F(0))


def test_ge_constraints():
    # max x - y  s.t.  x + y >= 1, x >= 1/4, -x - y >= -3 (flipped to x + y <= 3)
    res = lp_maximize(
        problem(
            [1, -1],
            [
                constraint([1, 1], ">=", 1),
                constraint([1, 0], ">=", F(1, 4)),
                constraint([-1, -1], ">=", -3),
            ],
        )
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 3
    assert res.witness == (F(3), F(0))


def test_equality_rows_are_refused():
    with pytest.raises(ValueError, match="bad relation"):
        constraint([1, 1], "==", 1)


def test_int_problem_keeps_its_ints_and_returns_fractions():
    # max 2x + 3y  s.t.  x + 2y <= 4, 3x + y <= 6: optimum 34/5 at (8/5, 6/5)
    prob = problem([2, 3], [constraint([1, 2], "<=", 4), constraint([3, 1], "<=", 6)])
    entries = [*prob.objective] + [x for c in prob.constraints for x in (*c.coeffs, c.rhs)]
    assert all(type(x) is int for x in entries)
    res = lp_maximize(prob)
    assert res.status is LpStatus.OPTIMAL
    assert type(res.value) is F and res.value == F(34, 5)
    assert all(type(x) is F for x in res.witness)
    assert res.witness == (F(8, 5), F(6, 5))


def test_infeasible():
    res = lp_maximize(
        problem([1], [constraint([1], "<=", -1)])
    )
    assert res.status is LpStatus.INFEASIBLE
    assert res.value is None and res.witness is None


def test_unbounded():
    res = lp_maximize(problem([1], []))
    assert res.status is LpStatus.UNBOUNDED


def test_minimize_wrapper():
    res = lp_minimize(
        problem([1, 1], [constraint([1, 1], ">=", 3)])
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 3


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate.
    res = lp_maximize(
        problem(
            [F(3, 4), -150, F(1, 50), -6],
            [
                constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
                constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
                constraint([0, 0, 1, 0], "<=", 1),
            ],
        )
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(1, 20)


def test_dimension_mismatch_is_structured():
    from conelogic.errors import DimensionError

    with pytest.raises(DimensionError):
        problem([1, 2], [constraint([1], "<=", 1)])


def test_feasibility_helper():
    cons = [constraint([1, 1], "<=", 1), constraint([1, 0], ">=", 2)]
    assert lp_feasible(cons, 2).status is LpStatus.INFEASIBLE


# Random cross-check against scipy's float LP. Bounded feasible regions by
# construction: all variables in [0, ub].
rat = st.integers(-6, 6).flatmap(
    lambda p: st.integers(1, 4).map(lambda q: F(p, q))
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_matches_scipy_on_bounded_problems(nvars, ncons, data):
    import numpy as np
    from scipy.optimize import linprog

    obj = [data.draw(rat) for _ in range(nvars)]
    cons = []
    for _ in range(ncons):
        row = [data.draw(rat) for _ in range(nvars)]
        rhs = data.draw(st.integers(0, 8))
        cons.append(constraint(row, "<=", F(rhs)))
    for j in range(nvars):
        row = [0] * nvars
        row[j] = 1
        cons.append(constraint(row, "<=", 5))

    res = lp_maximize(problem(obj, cons))
    assert res.status is LpStatus.OPTIMAL  # 0 is always feasible here

    # Witness is feasible and achieves the reported value, exactly.
    for c in cons:
        lhs = sum(a * x for a, x in zip(c.coeffs, res.witness))
        assert lhs <= c.rhs
    assert sum(a * x for a, x in zip(obj, res.witness)) == res.value

    a_ub = np.array([[float(x) for x in c.coeffs] for c in cons])
    b_ub = np.array([float(c.rhs) for c in cons])
    sp = linprog(
        [-float(x) for x in obj], A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs"
    )
    assert sp.status == 0
    assert abs(-sp.fun - float(res.value)) < 1e-7


# Duality cross-check on drawn LPs with both relations and negative
# right-hand sides. The dual of
#   max c.x  s.t.  A_L x <= b_L,  A_G x >= b_G,  x >= 0
# is
#   min b_L.y - b_G.z  s.t.  A_L^T y - A_G^T z >= c,  y, z >= 0,
# the same shape: one dual variable per row, signed -1 for the >= rows.
small = st.sampled_from(
    sorted({F(k, d) for d in (1, 2, 3, 6) for k in range(-4 * d, 4 * d + 1)}, key=abs)
)


@st.composite
def drawn_lps(draw):
    n = draw(st.integers(1, 4))
    obj = [draw(small) for _ in range(n)]
    rel = st.sampled_from(["<=", ">="])
    rows = [
        ([draw(small) for _ in range(n)], draw(rel), draw(small))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return obj, rows


def dual_of(obj, rows):
    sign = [-1 if rel == ">=" else 1 for _, rel, _ in rows]
    dual_obj = [s * rhs for s, (_, _, rhs) in zip(sign, rows)]
    dual_cons = [
        constraint([s * coeffs[j] for s, (coeffs, _, _) in zip(sign, rows)], ">=", obj[j])
        for j in range(len(obj))
    ]
    return problem(dual_obj, dual_cons)


def assert_feasible_witness(prob, res):
    x = res.witness
    assert all(type(v) is F for v in x)
    assert all(v >= 0 for v in x)
    for c in prob.constraints:
        lhs = sum((a * v for a, v in zip(c.coeffs, x)), F(0))
        assert lhs <= c.rhs if c.rel == "<=" else lhs >= c.rhs
    assert sum((a * v for a, v in zip(prob.objective, x)), F(0)) == res.value


@settings(max_examples=300, deadline=None)
@given(drawn_lps())
def test_primal_and_dual_agree(lp):
    obj, rows = lp
    primal = problem(obj, [constraint(*r) for r in rows])
    dual = dual_of(obj, rows)
    res, dres = lp_maximize(primal), lp_minimize(dual)
    if res.status is LpStatus.OPTIMAL:
        assert type(res.value) is F
        assert_feasible_witness(primal, res)
        assert dres.status is LpStatus.OPTIMAL
        assert dres.value == res.value
        assert_feasible_witness(dual, dres)
    else:
        # weak duality: an infeasible or unbounded side never faces an
        # optimal one
        assert dres.status is not LpStatus.OPTIMAL
        if res.status is LpStatus.UNBOUNDED:
            assert dres.status is LpStatus.INFEASIBLE

"""
Analytic maps and truncated composition
=======================================

A positive analytic map A -> B, truncated at degree N, is a linear map
!A -> B: one column per monomial x^m of degree <= N, holding that
monomial's coefficients. Evaluating at x is applying the matrix to
delta_x = (1, x, x^2, ..., x^N). g after f is g applied to the lift
delta_x -> delta_{f(x)}, whose row nu holds the coefficients of the product
of the f_c(x) over c in nu, the degrees above N dropped: one power series
substituted into the other. It agrees with the coKleisli composite
g . !f . dig of the exponential.
"""

from fractions import Fraction as F

from conelogic import (
    adjoint,
    analytic_compose,
    analytic_eval,
    analytic_map,
    analytic_norm_bounds,
    bang_mor,
    compose,
    delta,
    dual_object,
    mu,
    simplex_pcs,
)

half = simplex_pcs(1)  # the interval [0, 1]

# F(t) = t^2 and G(s) = s + s^2, one coefficient matrix per degree.
fm = analytic_map(half, half, [[[0]], [[0]], [[1]]])
gm = analytic_map(half, half, [[[0]], [[1]], [[1]]])
print("F is a morphism", fm.source.label, "->", fm.target.label)
print("its matrix (columns 1, t, t^2):", [str(v) for v in fm.matrix[0]])

# Evaluation is application to a delta.
t = F(2, 3)
dt = delta(half, (t,), 2)
print("\ndelta_2/3 =", [str(v) for v in dt.coords])
print("F(2/3) = F(delta_2/3) =", fm(dt.coords)[0], "=", analytic_eval(fm, (t,))[0])
print("G(2/3):", analytic_eval(gm, (t,))[0])

# Composition G(F(t)) = t^2 + t^4 if the truncation admits degree 4,
# and just t^2 if it stops at 3.
comp4 = analytic_compose(gm, fm, 4)
comp3 = analytic_compose(gm, fm, 3)
print("\nG o F columns at trunc 4:", [str(v) for v in comp4.matrix[0]])
print("G o F columns at trunc 3:", [str(v) for v in comp3.matrix[0]])
print("eval at 2/3, trunc 4:", analytic_eval(comp4, (t,))[0], "= 4/9 + 16/81")
print("eval at 2/3, trunc 3:", analytic_eval(comp3, (t,))[0])

# The norm of G is its value at the right end of the interval: 1 + 1 = 2.
br = analytic_norm_bounds(gm)
# The witness is delta_x in the ball of !half; its grade-1 block is x.
print("\n||G|| bracket:", br.lower, "..", br.upper)
print("attained at delta_x =", [str(v) for v in br.argmax], "so x =", br.argmax[1])

# Promotion: F lifts to !F . dig : !half -> !half, with dig the adjoint of
# the digging mu on ?(half*). Composing G after that lift is the same
# matrix as analytic_compose at N = 2, which builds the lift directly.
dig = adjoint(mu(dual_object(half), 2))
cokleisli = compose(gm, compose(bang_mor(fm, 2), dig))
print("\nG . !F . dig columns:", [str(v) for v in cokleisli.matrix[0]])
print("equal to analytic_compose(G, F, 2):", cokleisli == analytic_compose(gm, fm, 2))

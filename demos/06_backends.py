"""
Probabilistic and quantum backends
==================================

Probabilistic coherence spaces are the coordinate cones with simplex and
cube balls; substochastic matrices are exactly their contractions. The
spectral backend carries PSD matrices with trace and operator norms,
object-level only: the trace norm is exact, and the operator norm, an
algebraic number, is a certified bracket.
"""

from fractions import Fraction as F

from conelogic import (
    cube_pcs,
    dual_object,
    morphism_norm,
    morphism_to_pcs_matrix,
    pcs_contraction_flag,
    qcs_duality_report,
    qcs_object,
    qcs_op_norm,
    qcs_pair,
    qcs_trace_norm,
    simplex_pcs,
)
from conelogic.spectral import spectral_norm_bounds

S = simplex_pcs(2)
C = cube_pcs(2)
print("dual of the simplex is the cube:", dual_object(S) == C)

# A matrix with row sums <= 1 acts as a contraction between simplices.
u = ((F(1, 2), F(1, 2)), (F(0), F(1)))
f, ok = pcs_contraction_flag(u, S, S)
print("row-substochastic matrix is a contraction:", ok, "norm", morphism_norm(f))
print("matrix round trip:", morphism_to_pcs_matrix(f) == u)

# Scaling a row past 1 is still a valid positive map, only the flag drops.
v = ((F(2), F(0)), (F(0), F(1)))
g, ok = pcs_contraction_flag(v, S, S)
print("doubled row:", ok, "norm", morphism_norm(g))

# Spectral side: 2x2 PSD matrices, trace-norm primal, all in exact rationals.
Q = qcs_object(2)
rho = (F(1, 2), F(1, 4), F(1, 4), F(1, 2))  # flattened row-major
print("\nqcs(2) dim:", Q.dim)
print("trace norm of rho:", spectral_norm_bounds(Q, rho).lower)
op = spectral_norm_bounds(dual_object(Q), rho)
print("operator norm (dual side):", op.lower, "exact" if op.lower == op.upper else "bracket")

# lambda_max of m is (5 + sqrt 5) / 2, irrational, so it is bracketed; both
# duality identities are checked exactly.
m = ((F(2), F(1)), (F(1), F(3)))
eye = ((F(1), F(0)), (F(0), F(1)))
br = qcs_op_norm(m)
print("trace norm of m:", qcs_trace_norm(m))
print("pairing tr(I m):", qcs_pair(eye, m))
print("operator norm of m: bracket of width %.1e around %.10f" % (br.upper - br.lower, br.lower))
print("duality report passed:", qcs_duality_report(m)["passed"])

"""
Probabilistic and quantum backends
==================================

Probabilistic coherence spaces are the coordinate cones with simplex and
cube balls; substochastic matrices are exactly their contractions. The
spectral backend carries PSD matrices with trace and operator norms,
object-level only.
"""

from fractions import Fraction as F

import numpy as np

from conelogic import (
    cube_pcs,
    dual_object,
    morphism_norm,
    morphism_to_pcs_matrix,
    norm_primal,
    pcs_contraction_flag,
    qcs_duality_report,
    qcs_object,
    qcs_op_norm,
    qcs_pair,
    qcs_trace_norm,
    simplex_pcs,
)

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

# Spectral side: 2x2 PSD matrices, trace-norm primal.
Q = qcs_object(2)
rho = (F(1, 2), F(1, 4), F(1, 4), F(1, 2))  # flattened row-major
print("\nqcs(2) dim:", Q.dim)
print("trace norm of rho:", norm_primal(Q, rho))
print("operator norm (dual side):", qcs_op_norm(np.array([[0.5, 0.25], [0.25, 0.5]])))

# Both duality identities checked by independent numerical routes.
m = np.array([[2.0, 1.0], [1.0, 3.0]])
print("trace norm of m:", qcs_trace_norm(m))
print("pairing tr(I m):", qcs_pair(np.eye(2), m))
rep = qcs_duality_report(m)
print("duality report passed:", rep["passed"],
      "(errors", rep["trace_norm_duality_abs_err"], rep["op_norm_duality_abs_err"], ")")

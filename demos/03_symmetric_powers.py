"""
Two norms on symmetric powers
=============================

A symmetric multilinear form can be sized by feeding it n separate unit
vectors (the "old" way) or one unit vector on the diagonal (the "new" way).
The two disagree, but only up to a degree-dependent constant.
"""

from fractions import Fraction as F

from conelogic import (
    new_norm_bounds,
    old_norm,
    polarization_constant,
    simplex_pcs,
    sym_power_obj,
    sym_tensor,
)

B = simplex_pcs(2)

# The cross form f(x, y) = (x1 y2 + x2 y1)/2, stored on multiset {1,2}.
f = sym_tensor(2, 2, {(0, 1): F(1, 2)})

# Old: maximize over pairs of generators. e1, e2 gives 1/2.
print("old norm:", old_norm(f, B))

# New: maximize f(x, x) = x1 x2 over the simplex. Best at (1/2, 1/2).
br = new_norm_bounds(f, B)
print("new norm bracket:", br.lower, "..", br.upper)
# The witness is delta_x in the ball of !B; its grade-1 block is x.
print("attained at delta_x =", [str(v) for v in br.argmax])
print("so x =", [str(v) for v in br.argmax[1:3]])

# The gap is covered by the polarization constant for degree 2.
print("\nK_2 =", polarization_constant(2))
print("K_3 =", polarization_constant(3))
print("K_4 =", polarization_constant(4), "(grows past 2^n from n = 3 on)")
ratio = old_norm(f, B) / br.lower
print("measured old/new here:", ratio, "<= K_2:", ratio <= polarization_constant(2))

# The power object itself: coordinates are multisets over the base.
s2 = sym_power_obj(B, 2)
print("\nSym^2(simplex(2)) dim:", s2.dim)
print("its generators are squared generators:", s2.p_ball_gens)

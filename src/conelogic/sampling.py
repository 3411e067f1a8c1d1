"""Seeded random data for property checks.

Everything draws from a caller-supplied random.Random so the check driver
and the test suite replay byte-identically from one integer seed. Rational
draws stay small (numerators up to 4, denominators up to 6 or so): exact
arithmetic downstream is polynomial in bit length, and small fractions keep
the LP and double-description steps quick without losing coverage.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cones import ConeObject, from_p_gens, primal_gens
from .mall import Morphism, mor, morphism_norm
from .rationals import MatQ, Q0, VecQ, unit


def rand_frac(r: random.Random, num_max: int = 4, den_max: int = 3) -> Fraction:
    return Fraction(r.randint(0, num_max), r.randint(1, den_max))


def rand_vec(r: random.Random, dim: int, num_max: int = 4, den_max: int = 3) -> VecQ:
    return tuple(rand_frac(r, num_max, den_max) for _ in range(dim))


def rand_object(
    r: random.Random, dim: int, max_gens: int = 4, label: str = ""
) -> ConeObject:
    """Random polyhedral object; every coordinate gets spanned, padding with
    basis vectors where the draw left a gap."""
    gens = [
        rand_vec(r, dim)
        for _ in range(r.randint(1, max_gens))
    ]
    gens = [g for g in gens if any(x > 0 for x in g)]
    for c in range(dim):
        if all(g[c] == 0 for g in gens):
            gens.append(unit(dim, c))
    return from_p_gens(gens, dim, label=label)


def rand_gens(r: random.Random, dim: int, count: int) -> list[VecQ]:
    """Generator list for polarity tests; nonzero but not required to span."""
    out = []
    while len(out) < count:
        g = rand_vec(r, dim)
        if any(x > 0 for x in g):
            out.append(g)
    return out


def rand_ball_point(r: random.Random, a: ConeObject) -> VecQ:
    """A point of the primal unit ball: a random sub-convex combination of
    the ball generators. Exact, so membership never needs a tolerance."""
    gens = primal_gens(a)
    lam = [Fraction(r.randint(0, 4), 4) for _ in gens]
    total = sum(lam, Q0)
    if total > 1:
        cap = Fraction(r.randint(0, 4), 4)
        lam = [x * cap / total for x in lam]
    out = [Q0] * a.dim
    for w, g in zip(lam, gens):
        for c in range(a.dim):
            out[c] += w * g[c]
    return tuple(out)


def rand_positive_map(r: random.Random, a: ConeObject, b: ConeObject) -> Morphism:
    m = tuple(tuple(rand_frac(r, 2, 3) for _ in range(a.dim)) for _ in range(b.dim))
    return mor(a, b, m)


def rand_contraction(r: random.Random, a: ConeObject, b: ConeObject) -> Morphism:
    """Random positive contraction a -> b; the scaling below is exact, so the
    result has norm <= 1 on the nose."""
    f = rand_positive_map(r, a, b)
    n = morphism_norm(f)
    if n > 1:
        cols = tuple(tuple((i, x / n) for i, x in col) for col in f.cols)
        f = Morphism(a, b, cols)
    return f


def rand_pcs_matrix(r: random.Random, d_src: int, d_tgt: int) -> MatQ:
    """Entrywise-nonnegative matrix with row sums <= 1 (rows are indexed by
    the source basis, matching the e_i convention), hence a contraction out
    of a simplex-type source."""
    rows = []
    for _ in range(d_src):
        row = [Fraction(r.randint(0, 3), 6) for _ in range(d_tgt)]
        s = sum(row, Q0)
        if s > 1:
            row = [x / s for x in row]
        rows.append(tuple(row))
    return tuple(rows)


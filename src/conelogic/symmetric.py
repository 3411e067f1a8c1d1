"""Symmetric tensor powers and their two norms.

A degree-n symmetric functional f can be normed two ways: over tuples,

    old_norm(f) = max f(u_1, ..., u_n) over n-tuples of primal ball
    generators (exact: the sup over the ball factors through generators
    by multilinearity),

or over the diagonal,

    new_norm(f) = sup { f(x, ..., x) : ||x|| <= 1 },

which is the sup of a nonnegative-coefficient polynomial over the
generator-mixing simplex and is only ever bracketed (see oracle). The two
are equivalent up to the polarization constant

    K_n = (1/n!) * sum_{k=1..n} C(n,k) k^n,

because splitting f(x_1,...,x_n) by inclusion-exclusion over subset sums
x_S bounds each diagonal term by |S|^n times the new norm. The bracket's
upper bound is the oracle's averaged-coefficient bound of the mixing
polynomial, which collapses to exactly old_norm, the generator-tuple
maximum; old_norm stays as the independent reference.

The power functor acts on a map S plainly on multiset coordinates, its
columns expanded by the multinomial theorem. sym_power_blocks computes
grades 0..N in integers on the map's int_cols, each column from its prefix
one grade down: the one route for Sym^n S here and for !s and ?l.

Coordinates and pairing weights follow the multisets module conventions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

from .cones import Backend, ConeObject, one_obj, polar_w, primal_gens
from .errors import CapabilityError, DimensionError, NegativeCoefficientError
from .mall import IntView, Morphism, sparse_mor
from .multisets import Layout, Mset, graded_layout, monomial_value, mset_count
from .oracle import Bracket, simplex_polynomial_bounds
from .polyhedra import DD_MAX_DIM, reduce_generators
from .polynomials import Polynomial, layout_products, poly_combination
from .rationals import Q0, Q1, VecQ, vec


def _top_grade(dim: int, n: int) -> tuple[Layout, int]:
    """The multiset table of grades 0..n over dim coordinates, and where its
    last block, grade n, starts."""
    lay = graded_layout(dim, n)
    return lay, len(lay.coords) - mset_count(dim, n)


def _position(dim: int, n: int, m: Mset) -> int:
    """Position of the size-n multiset m within grade n."""
    if len(m) != n:
        raise KeyError(m)
    lay, start = _top_grade(dim, n)
    return lay.index[m] - start


@dataclass(frozen=True)
class SymTensor:
    """Degree-n symmetric tensor in multiset coordinates."""

    dim: int
    degree: int
    coords: VecQ

    def __post_init__(self):
        want = mset_count(self.dim, self.degree)
        if len(self.coords) != want:
            raise DimensionError(want, len(self.coords), "symmetric coordinates")

    def coord(self, m: Mset) -> Fraction:
        return self.coords[_position(self.dim, self.degree, m)]


def sym_tensor(dim: int, degree: int, entries) -> SymTensor:
    """Build from a multiset->value mapping or a flat multiset-order list."""
    if isinstance(entries, dict):
        coords = [Q0] * mset_count(dim, degree)
        for m, v in entries.items():
            coords[_position(dim, degree, tuple(sorted(m)))] = Fraction(v)
        return SymTensor(dim, degree, tuple(coords))
    return SymTensor(dim, degree, vec(entries))


def power_tensor(x: VecQ, degree: int) -> SymTensor:
    """(x)^n: plain monomial coordinates x^mu."""
    lay, start = _top_grade(len(x), degree)
    return SymTensor(
        len(x), degree, tuple(monomial_value(x, m) for m in lay.coords[start:])
    )


def apply_multilinear(f: SymTensor, vectors: tuple[VecQ, ...]) -> Fraction:
    """f(v_1, ..., v_n) by full contraction over index tuples."""
    if len(vectors) != f.degree:
        raise DimensionError(f.degree, len(vectors), "multilinear arguments")
    for v in vectors:
        if len(v) != f.dim:
            raise DimensionError(f.dim, len(v), "multilinear argument")
    total = Q0
    if f.degree == 0:
        return f.coords[0]
    for idx in product(range(f.dim), repeat=f.degree):
        c = f.coord(tuple(sorted(idx)))
        if c == 0:
            continue
        term = c
        for t, i in enumerate(idx):
            term *= vectors[t][i]
        total += term
    return total


# ---------------------------------------------------------------------------
# The power object and functorial powers


def sym_power_obj(a: ConeObject, n: int) -> ConeObject:
    """Symmetric n-th power: primal generators are the generator powers."""
    if a.backend is not Backend.POLYHEDRAL:
        raise CapabilityError("symmetric powers are polyhedral-only", a.label)
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return one_obj()
    if n == 1:
        return ConeObject(
            dim=a.dim,
            p_ball_gens=a.p_ball_gens,
            q_ball_gens=a.q_ball_gens,
            label=f"Sym^1({a.label})",
            p_implicit=a.p_implicit,
            q_implicit=a.q_implicit,
            weights=a.weights,
        )
    if a.weights is not None:
        raise CapabilityError("symmetric powers expect plain-pairing operands", a.label)
    gens = primal_gens(a)
    lay, start = _top_grade(a.dim, n)
    dim = len(lay.coords) - start
    p = reduce_generators(power_tensor(u, n).coords for u in gens)
    w = lay.weights[start:]
    weights = None if all(x == 1 for x in w) else w
    # Generator powers can leave mixed-multiset coordinates unspanned (the
    # power map is a curved embedding); the polar is bounded only when they
    # do not, so the dual side is optional here. Norms of power objects go
    # through old_norm / new_norm_bounds either way.
    q = None
    if dim <= DD_MAX_DIM and all(any(g[c] for g in p) for c in range(dim)):
        q = polar_w(p, dim, weights)
    return ConeObject(
        dim=dim,
        p_ball_gens=p,
        q_ball_gens=q,
        label=f"Sym^{n}({a.label})",
        weights=weights,
    )


def sym_power_blocks(view: IntView, dim_tgt: int, trunc: int) -> list[list[list]]:
    """Grades 0..trunc of the symmetric powers of the map with integer view
    (L, icols) (Morphism.int_cols), from len(icols) coordinates to dim_tgt.
    Block n lists, per grade-n multiset mu of the source table, the nonzeros
    (position of nu in grade n, Fraction) of column mu of Sym^n: S *
    multiplicity(mu) / multiplicity(nu), with S the coefficient of y^nu in
    the product of the columns in mu read as linear forms in y (the
    multinomial theorem). Column mu is its prefix mu[:-1] from grade n - 1
    times the integer column mu[-1], so zeros are never visited and each
    nonzero becomes one Fraction over L^n at the end."""
    scale, icols = view
    src, tgt = graded_layout(len(icols), trunc), graded_layout(dim_tgt, trunc)
    tidx, tw = tgt.index, tgt.weights
    blocks, prods = [[[(0, Q1)]]], {(): {(): 1}}
    lo, tlo = 1, 1  # where grade n starts in the source and target tables
    for n in range(1, trunc + 1):
        hi, den, block, nxt = lo + mset_count(len(icols), n), scale**n, [], {}
        for mu, m in zip(src.coords[lo:hi], src.weights[lo:hi]):
            acc = nxt[mu] = {}
            for nu, s in prods[mu[:-1]].items():
                for r, a in icols[mu[-1]]:
                    k = bisect_right(nu, r)
                    key = nu[:k] + (r,) + nu[k:]
                    acc[key] = acc.get(key, 0) + s * a
            block.append([(tidx[nu] - tlo, Fraction(s * m, tw[tidx[nu]] * den))
                          for nu, s in acc.items() if s])
        blocks.append(block)
        prods, lo, tlo = nxt, hi, tlo + mset_count(dim_tgt, n)
    return blocks


def sym_power_mor(S: Morphism, n: int) -> Morphism:
    """Sym^n S on the power objects: grade n of sym_power_blocks, so
    Sym^n S (x)^n = (S x)^n."""
    src = sym_power_obj(S.source, n)
    tgt = sym_power_obj(S.target, n)
    return sparse_mor(src, tgt, sym_power_blocks(S.int_cols, S.target.dim, n)[n])


# ---------------------------------------------------------------------------
# The two norms


def old_norm(f: SymTensor, a: ConeObject) -> Fraction:
    """Max over generator n-tuples; exact, and an upper bound for the sup
    over arbitrary unit tuples by multilinearity."""
    gens = primal_gens(a)
    if f.dim != a.dim:
        raise DimensionError(a.dim, f.dim, "old_norm")
    best = Q0
    for tup in combinations_with_replacement(gens, f.degree):
        v = apply_multilinear(f, tup)
        if v < 0:
            raise NegativeCoefficientError(
                f"f is negative ({v}) on a generator tuple; norms here are for "
                "the positive cone"
            )
        if v > best:
            best = v
    return best


def diagonal_polynomial(f: SymTensor, gens: tuple[VecQ, ...]) -> Polynomial:
    """f(x(t), ..., x(t)) for x(t) = sum_i t_i g_i, over the mixing simplex."""
    k = len(gens)
    coord_polys = [
        Polynomial.linear(k, [g[c] for g in gens]) for c in range(f.dim)
    ]
    lay, start = _top_grade(f.dim, f.degree)
    monos = layout_products(coord_polys, lay, k)[start:]
    return poly_combination([w * c for w, c in zip(lay.weights[start:], f.coords)], monos, k)


def new_norm_bounds(f: SymTensor, a: ConeObject) -> Bracket:
    """Bracket sup { f(x,...,x) : x in the primal ball }: the oracle's
    bracket over the generator mixing simplex. Its upper bound, the
    averaged-coefficient bound, equals old_norm here (checked in tests).
    """
    gens = primal_gens(a)
    if not gens:
        v = f.coords[0] if f.degree == 0 else Q0
        return Bracket(v, v, (), "degenerate: no generators")
    if f.dim != a.dim:
        raise DimensionError(a.dim, f.dim, "new_norm_bounds")
    return simplex_polynomial_bounds(diagonal_polynomial(f, gens), (len(gens),))


def polarization_constant(n: int) -> Fraction:
    return Fraction(sum(comb(n, k) * k**n for k in range(1, n + 1)), factorial(n))

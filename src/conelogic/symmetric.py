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
columns expanded by the multinomial theorem. sym_power_cols computes the
columns of grades 0..N at once, in integers on the map's int_cols, as one
multisets.prefix_products over the source table: the one route for !s and
?l, and, sliced to grade n, for Sym^n S here.

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
from .multisets import Layout, Mset, graded_layout, monomial_values, mset_count, prefix_products
from .oracle import Bracket, simplex_polynomial_bounds
from .polyhedra import DD_MAX_DIM, reduce_generators
from .polynomials import Polynomial, layout_products, poly_combination
from .rationals import Q0, VecQ, vec


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
    return SymTensor(len(x), degree, monomial_values(x, lay)[start:])


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


def _mset_mul(prod: dict[Mset, int], col) -> dict[Mset, int]:
    """The product of a form in y, kept as its y^nu coefficients, and the
    linear form sum_r a_r y_r of one integer column: y^nu y_r is y^(nu + r),
    its multiset kept sorted."""
    out: dict[Mset, int] = {}
    for nu, s in prod.items():
        for r, a in col:
            k = bisect_right(nu, r)
            key = nu[:k] + (r,) + nu[k:]
            out[key] = out.get(key, 0) + s * a
    return out


def sym_power_cols(view: IntView, dim_tgt: int, trunc: int) -> list[list]:
    """Grades 0..trunc of the symmetric powers of the map with integer view
    (L, icols) (Morphism.int_cols), from len(icols) coordinates to dim_tgt.
    Column mu, one per label of the source table graded_layout(len(icols),
    trunc), lists the nonzeros (position of nu in the target table,
    Fraction) of column mu of Sym^|mu|: S * multiplicity(mu) /
    multiplicity(nu), with S the coefficient of y^nu in the product of the
    columns in mu read as linear forms in y (the multinomial theorem). The
    products are one prefix_products over the source table, in integers
    (_mset_mul), so zeros are never visited and each nonzero becomes one
    Fraction over L^|mu| at the end."""
    scale, icols = view
    src, tgt = graded_layout(len(icols), trunc), graded_layout(dim_tgt, trunc)
    tidx, tw = tgt.index, tgt.weights
    dens = [scale**n for n in range(trunc + 1)]
    prods = prefix_products(src, icols, _mset_mul, {(): 1})
    return [
        [(tidx[nu], Fraction(s * m, tw[tidx[nu]] * dens[n])) for nu, s in p.items() if s]
        for p, m, n in zip(prods, src.weights, src.grades)
    ]


def sym_power_mor(S: Morphism, n: int) -> Morphism:
    """Sym^n S on the power objects: the grade-n columns of sym_power_cols,
    their rows shifted to grade n, so Sym^n S (x)^n = (S x)^n."""
    src = sym_power_obj(S.source, n)
    tgt = sym_power_obj(S.target, n)
    start, tstart = _top_grade(S.source.dim, n)[1], _top_grade(S.target.dim, n)[1]
    cols = sym_power_cols(S.int_cols, S.target.dim, n)[start:]
    return sparse_mor(src, tgt, [[(i - tstart, x) for i, x in col] for col in cols])


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

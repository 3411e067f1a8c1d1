"""Symmetric tensor powers and their two norms.

A degree-n symmetric functional f can be normed two ways: over tuples,

    old_norm(f) = max f(u_1, ..., u_n) over n-tuples of primal ball
    generators (exact: the sup over the ball factors through generators
    by multilinearity),

or over the diagonal,

    new_norm(f) = sup { f(x, ..., x) : ||x|| <= 1 },

which is the sup of <f, delta_x> over the ball of !A and is only ever
bracketed: one bracket of the ball scheme of !A (exponentials.BallScheme),
with delta_x as its witness. The two are equivalent up to the polarization
constant

    K_n = (1/n!) * sum_{k=1..n} C(n,k) k^n,

because splitting f(x_1,...,x_n) by inclusion-exclusion over subset sums
x_S bounds each diagonal term by |S|^n times the new norm. The bracket's
upper bound is the Bernstein bound of the scheme's mixing polynomial; that
polynomial is homogeneous on its one block, so the bound collapses to
exactly old_norm, the generator-tuple maximum; old_norm stays as the
independent reference.

The power functor acts on a map S plainly on multiset coordinates, its
columns expanded by the multinomial theorem: Sym^n S is grade n of
multisets.sym_power_cols, the one route for the columns of symmetric
powers, which !s and ?l read too.

Coordinates and pairing weights follow the multisets module conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

from .cones import Backend, ConeObject, one_obj, polar_w, primal_gens
from .errors import CapabilityError, DimensionError, NegativeCoefficientError
from .exponentials import bang_obj, primal_ball_scheme
from .mall import Morphism, sparse_mor
from .multisets import Layout, Mset, graded_layout, monomial_values, mset_count, sym_power_cols
from .oracle import Bracket
from .polyhedra import DD_MAX_DIM, reduce_generators
from .rationals import Q0, VecQ, vec


def _top_grade(dim: int, n: int) -> tuple[Layout, int]:
    """The multiset table of grades 0..n over dim coordinates, and where its
    last block, grade n, starts."""
    lay = graded_layout(dim, n)
    return lay, len(lay.coords) - mset_count(dim, n)


def _position(dim: int, n: int, m: Mset) -> int:
    """Position of the size-n multiset m over range(dim) within grade n."""
    if len(m) != n:
        raise DimensionError(n, len(m), f"size of multiset key {m!r}")
    for c in m:
        if not 0 <= c < dim:
            raise DimensionError(dim, c, f"index {c} of multiset key {m!r}")
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


def new_norm_bounds(f: SymTensor, a: ConeObject) -> Bracket:
    """Bracket sup { f(x,...,x) : x in the primal ball } = sup <f, delta_x>
    over the ball of !a: one bracket of its ball scheme, the objective
    multiplicity(mu) f_mu on grade n and 0 below. The upper bound equals
    old_norm (checked in tests); the witness is delta_x."""
    if a.backend is not Backend.POLYHEDRAL:
        raise CapabilityError("symmetric norms are polyhedral-only", a.label)
    if f.dim != a.dim:
        raise DimensionError(a.dim, f.dim, "new_norm_bounds")
    lay, start = _top_grade(f.dim, f.degree)
    k = (Q0,) * start + tuple(w * c for w, c in zip(lay.weights[start:], f.coords))
    return primal_ball_scheme(bang_obj(a, f.degree)).bracket(k)


def polarization_constant(n: int) -> Fraction:
    return Fraction(sum(comb(n, k) * k**n for k in range(1, n + 1)), factorial(n))

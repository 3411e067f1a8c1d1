"""Truncated exponentials: graded series and distribution objects.

A graded object is a ConeObject with backend GRADED whose payload is a
GradedShape: a shape tree plus a flag saying which side is primal. The tree
nodes are

  ExpNode(base, trunc)    coordinates are multisets over the base
                          coordinates of size <= trunc, degree-major. The
                          series reading holds functions of arguments in
                          the positive unit ball of dual(base); the
                          distribution reading is spanned by the delta
                          vectors of such arguments.
  PolyNode(obj)           a polyhedral object sitting at grade 0. Always
                          read as the object whose primal ball is on the
                          distribution side; series-side constructors wrap
                          the dual.
  TensorNode(l, r, trunc) left-major pairs of child positions with grade
                          sum <= trunc (node.pairs); weights multiply.
  SumNode(l, r, coproduct) disjoint union of coordinates (& / + at the
                          graded level). Structure only; no norms.

Each node carries its Layout (coordinate labels, grades, weights), computed
once from its children's layouts; it is a cached property, not a field, so
it takes no part in node equality or hashing. An ExpNode's layout is the
multiset table multisets.graded_layout(base dim, trunc).

Pairing weights are the multiset multiplicities, so that a series f pairs
with delta_x to exactly f(x) (the convention is documented once, in
multisets). Linear maps act plainly on coordinates; the weights enter only
in pairings and adjoints.

Norms are certified brackets, never point values, and they take one route.
A BallScheme is a family of primal ball members parametrized by simplices,
with explicit honest members beside it, and BallScheme.bracket(k) brackets
the sup over the ball of sum_c k_c z_c for k >= 0: the best honest member
below, and above the Bernstein upper bound of the family polynomial
sum_c k_c polys[c], or, when the family is exact and no honest member
reaches that bound, the oracle on it. The primal ball of a distribution-
side object is parametrized exactly by delta families over the argument
ball, so a series norm is one bracket with k the weighted element. The
series-side ball has no exact finite parametrization: its scheme is a
coordinate box whose corners are the unit vectors' brackets (read by
BallScheme.corner, with no witness), so distribution norms are bracketed
from inside by explicit series (singletons and the constant series) and
from outside by that box, lowered where it can be by an LP relaxation over
finitely many sampled ball constraints.

One restriction is baked in: representable series have nonnegative
coordinates, and distribution norms take the sup against those. On genuine
delta mixtures this loses nothing (the constant-1 series already attains
the supremum); it is what keeps every bracket direction certified.

An analytic map A -> B between polyhedral objects, truncated at N, is a
Morphism !A -> B: column m holds the coefficient of the monomial x^m, so
f(x) is f applied to delta_x. Its norm is one bracket of the ball scheme
of !A per target dual generator (witness delta_x). g after f is g after
the lift delta_x -> delta_{f(x)}, one product over the multiset table as
for the symmetric powers, rather than mu on ??A (the coKleisli composite
g . !f . dig gives the same matrix, at far greater cost).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product
from math import comb
from typing import Any, ClassVar, Optional

from .cones import (
    Backend,
    ConeObject,
    check_membership,
    dual_object,
    in_ball,
    in_cone,
    materialize_q,
    norm_primal,
    one_obj,
    pairing,
    primal_gens,
)
from .errors import (
    BallError,
    CapabilityError,
    CompositionError,
    DimensionError,
)
from .lp import LpStatus, constraint, lp_maximize, problem
from .mall import Morphism, adjoint, compose, mor, morphism_norm, product_obj, sparse_mor
from .multisets import (
    Layout,
    _mset_mul,
    graded_layout,
    monomial_values,
    mset_count,
    mset_union,
    prefix_products,
    sym_power_cols,
)
from .oracle import Bracket, _compositions, averaged_upper, simplex_polynomial_bounds
from .polynomials import Polynomial, eval_family, layout_products, poly_combination
from .rationals import Q0, Q1, IntRows, VecQ, int_rows, mat, max_pairing, unit, vec

DEFAULT_TRUNC = 3

# How many explicit ball members a scheme carries for lower bounds, and how
# many grid samples feed the polar LP relaxation.
HONEST_CAP = 32
SAMPLE_CAP = 200

# Nested exponentials grow like dim^trunc. Structure maps are built column by
# column with no dense matrix, so what grows is per coordinate: the layout
# (labels, multiplicity weights, label index) and one column each. At
# (dim, trunc) = (3, 4), ??a has 82,251 coordinates and building mu takes
# about 0.5 s on a 2-core x86-64 machine, 0.2 s of it that layout; the cap
# keeps every graded object, pairs and sums too, near that size.
MAX_GRADED_DIM = 100_000


# ---------------------------------------------------------------------------
# Shape tree


@dataclass(frozen=True)
class ExpNode:
    base: ConeObject
    trunc: int

    @cached_property
    def layout(self) -> Layout:
        return graded_layout(self.base.dim, self.trunc)


@dataclass(frozen=True)
class PolyNode:
    obj: ConeObject

    @cached_property
    def layout(self) -> Layout:
        d = self.obj.dim
        return Layout(tuple(range(d)), (0,) * d, self.obj.pairing_weights)


@dataclass(frozen=True)
class TensorNode:
    left: Any
    right: Any
    trunc: int

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(left position, right position) of each coordinate."""
        lg, rg = self.left.layout.grades, self.right.layout.grades
        return tuple((i, j) for i, a in enumerate(lg) for j, b in enumerate(rg) if a + b <= self.trunc)

    @cached_property
    def layout(self) -> Layout:
        lo, ro = self.left.layout, self.right.layout
        return Layout(
            tuple((lo.coords[i], ro.coords[j]) for i, j in self.pairs),
            tuple(lo.grades[i] + ro.grades[j] for i, j in self.pairs),
            tuple(lo.weights[i] * ro.weights[j] for i, j in self.pairs),
        )


@dataclass(frozen=True)
class SumNode:
    left: Any
    right: Any
    coproduct: bool

    @cached_property
    def layout(self) -> Layout:
        lo, ro = self.left.layout, self.right.layout
        return Layout(
            tuple(("L", a) for a in lo.coords) + tuple(("R", b) for b in ro.coords),
            lo.grades + ro.grades,
            lo.weights + ro.weights,
        )


@dataclass(frozen=True)
class GradedShape:
    """Payload of a graded ConeObject. flipped() realizes duality: the
    primal side switches and every sum trades & for +."""

    node: Any
    series_primal: bool

    def flipped(self) -> "GradedShape":
        return GradedShape(_flip_sums(self.node), not self.series_primal)


def _flip_sums(node):
    """The node with every sum flipped; a subtree without sums comes back as
    the same object, so a dual reuses its layout."""
    if isinstance(node, SumNode):
        return SumNode(
            _flip_sums(node.left), _flip_sums(node.right), not node.coproduct
        )
    if isinstance(node, TensorNode):
        left, right = _flip_sums(node.left), _flip_sums(node.right)
        if left is node.left and right is node.right:
            return node
        return TensorNode(left, right, node.trunc)
    return node


def _shape(h: ConeObject) -> GradedShape:
    if h.backend is not Backend.GRADED or not isinstance(h.graded, GradedShape):
        raise CapabilityError("not a graded object", h.label)
    return h.graded


def _layout(h: ConeObject) -> Layout:
    return _shape(h).node.layout


def graded_coords(h: ConeObject) -> tuple:
    return _layout(h).coords


def graded_grades(h: ConeObject) -> tuple[int, ...]:
    return _layout(h).grades


def _coord_labels(h: ConeObject) -> tuple:
    if h.backend is Backend.GRADED:
        return graded_coords(h)
    return tuple(range(h.dim))


# ---------------------------------------------------------------------------
# Object constructors


def _graded_size(node) -> int:
    """A node's coordinate count before its layout exists; children are objects within the cap."""
    if isinstance(node, ExpNode):
        return comb(node.base.dim + node.trunc, node.trunc)  # multisets of size <= trunc
    lg, rg = node.left.layout.grades, node.right.layout.grades
    if isinstance(node, SumNode):
        return len(lg) + len(rg)
    if len(lg) * len(rg) <= MAX_GRADED_DIM:
        return len(node.pairs)  # at most the cap to build, and the layout reads them
    rg = sorted(rg)  # each left coordinate pairs with the right ones of grade <= trunc - a
    return sum(bisect_right(rg, node.trunc - a) for a in lg)


def _graded_object(node, series_primal: bool, label: str) -> ConeObject:
    size = _graded_size(node)
    if size > MAX_GRADED_DIM:
        raise CapabilityError(
            f"graded dimension exceeds {MAX_GRADED_DIM}",
            f"{label} at truncation {_node_trunc(node)} has {size} "
            "coordinates; lower the truncation",
        )
    weights: Optional[tuple] = node.layout.weights
    if all(w == 1 for w in weights):
        weights = None
    return ConeObject(
        dim=size,
        p_ball_gens=None,
        q_ball_gens=None,
        backend=Backend.GRADED,
        label=label,
        graded=GradedShape(node, series_primal),
        weights=weights,
    )


def whynot_obj(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> ConeObject:
    """?a at the given truncation: positive series on the ball of a*."""
    if trunc < 0:
        raise ValueError("truncation must be >= 0")
    if a.backend is Backend.SPECTRAL:
        raise CapabilityError("exponentials reject spectral operands", a.label)
    return _graded_object(ExpNode(a, trunc), True, f"?{a.label}")


def bang_obj(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> ConeObject:
    """!a at the given truncation: the span of deltas over the ball of a."""
    return dual_object(whynot_obj(dual_object(a), trunc), label=f"!{a.label}")


def _node_trunc(node) -> int:
    if isinstance(node, (ExpNode, TensorNode)):
        return node.trunc
    if isinstance(node, SumNode):
        return max(_node_trunc(node.left), _node_trunc(node.right))
    return 0


def _dist_child(h: ConeObject, op: str):
    if h.backend is Backend.POLYHEDRAL:
        return PolyNode(h)
    if h.backend is Backend.GRADED:
        s = _shape(h)
        if s.series_primal:
            raise CapabilityError(
                f"{op} needs distribution-side factors",
                f"{h.label!r} is series-primal; dualize first",
            )
        return s.node
    raise CapabilityError(f"{op} rejects spectral operands", h.label)


def graded_tensor_obj(
    x: ConeObject, y: ConeObject, trunc: Optional[int] = None
) -> ConeObject:
    """Tensor with at least one distribution-side graded factor."""
    left = _dist_child(x, "graded tensor")
    right = _dist_child(y, "graded tensor")
    if isinstance(left, PolyNode) and isinstance(right, PolyNode):
        raise CapabilityError("graded tensor needs a graded factor", "use tensor_obj")
    if trunc is None:
        trunc = max(_node_trunc(left), _node_trunc(right))
    node = TensorNode(left, right, trunc)
    return _graded_object(node, False, f"({x.label} * {y.label})")


def graded_par_obj(
    x: ConeObject, y: ConeObject, trunc: Optional[int] = None
) -> ConeObject:
    """Par with at least one series-side graded factor; dual to the tensor."""
    for h in (x, y):
        if h.backend is Backend.GRADED and not _shape(h).series_primal:
            raise CapabilityError(
                "graded par needs series-side factors",
                f"{h.label!r} is distribution-primal; dualize first",
            )
    t = graded_tensor_obj(dual_object(x), dual_object(y), trunc)
    return dual_object(t, label=f"({x.label} | {y.label})")


def _sum_side(x: ConeObject, y: ConeObject, op: str) -> bool:
    sides = [
        _shape(h).series_primal for h in (x, y) if h.backend is Backend.GRADED
    ]
    if not sides:
        raise CapabilityError(
            f"{op} needs a graded summand", "use product_obj / coproduct_obj"
        )
    if len(sides) == 2 and sides[0] != sides[1]:
        raise CapabilityError(
            f"{op} needs summands on the same side", f"{x.label!r} vs {y.label!r}"
        )
    return sides[0]


def _sum_child(h: ConeObject, series_primal: bool, op: str):
    if h.backend is Backend.POLYHEDRAL:
        return PolyNode(dual_object(h) if series_primal else h)
    return _dist_child(dual_object(h) if series_primal else h, op)


def _graded_sum_obj(x: ConeObject, y: ConeObject, coproduct: bool) -> ConeObject:
    op = "graded coproduct" if coproduct else "graded product"
    sp = _sum_side(x, y, op)
    node = SumNode(_sum_child(x, sp, op), _sum_child(y, sp, op), coproduct)
    return _graded_object(node, sp, f"({x.label} {'+' if coproduct else '&'} {y.label})")


def graded_product_obj(x: ConeObject, y: ConeObject) -> ConeObject:
    return _graded_sum_obj(x, y, False)


def graded_coproduct_obj(x: ConeObject, y: ConeObject) -> ConeObject:
    return _graded_sum_obj(x, y, True)


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True)
class _GradedElement:
    """Element of a graded object, coordinates in label order; `series` says
    which side of the object must be primal."""

    obj: ConeObject
    coords: VecQ
    series: ClassVar[bool]

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))
        if _shape(self.obj).series_primal != self.series:
            kind = "series" if self.series else "distribution"
            raise CapabilityError(
                f"a {kind} element needs the {kind} side primal", self.obj.label
            )
        check_membership(self.obj, self.coords)

    def coord(self, label) -> Fraction:
        return self.coords[_layout(self.obj).index[label]]


class GradedSeries(_GradedElement):
    """Element of a series-primal graded object."""

    series = True


class GradedDistribution(_GradedElement):
    """Element of a distribution-primal graded object."""

    series = False


def delta(a: ConeObject, x, trunc: int = DEFAULT_TRUNC) -> GradedDistribution:
    """delta_x in !a: coordinates (1, x, x^2, ..., x^trunc)."""
    target = bang_obj(a, trunc)
    xq = vec(x)
    check_membership(a, xq)
    try:
        n = norm_primal(a, xq)
    except CapabilityError:
        n = graded_norm_bounds(a, xq).lower  # gate on the provable part
    if n > 1:
        raise BallError(f"delta needs ||x|| <= 1 in {a.label!r}", norm=n)
    return GradedDistribution(target, monomial_values(xq, _layout(target)))


def series_eval(f: GradedSeries, x) -> Fraction:
    """f(x) = sum over multisets of multiplicity(m) * f_m * x^m, that is
    <f, delta_x>: the pairing of f with the monomials x^m. x is refused
    exactly where delta refuses it."""
    node = _shape(f.obj).node
    if not isinstance(node, ExpNode):
        raise CapabilityError("evaluation needs a plain series object", f.obj.label)
    return pairing(f.obj, f.coords, delta(dual_object(node.base), x, node.trunc).coords)


def graded_pairing(f: GradedSeries, e: GradedDistribution) -> Fraction:
    """<f, e> under the multiset-weighted pairing; objects must be dual."""
    if f.obj != dual_object(e.obj):
        raise CompositionError("pairing needs mutually dual graded objects")
    return pairing(f.obj, f.coords, e.coords)


def pair_element(pair_obj: ConeObject, left_coords, right_coords) -> VecQ:
    """Coordinates of an elementary pair inside a tensor or par object."""
    node = _shape(pair_obj).node
    if not isinstance(node, TensorNode):
        raise CapabilityError("needs a graded pair object", pair_obj.label)
    lc, rc = vec(left_coords), vec(right_coords)
    for c, child, side in ((lc, node.left, "left"), (rc, node.right, "right")):
        if len(c) != len(child.layout.coords):
            raise DimensionError(len(child.layout.coords), len(c), f"{side} pair factor")
    return tuple(lc[i] * rc[j] for i, j in node.pairs)


# ---------------------------------------------------------------------------
# Ball schemes


@dataclass(frozen=True)
class BallScheme:
    """Parametrized family of primal ball members, for norm brackets.

    polys[c] is coordinate c of the family member at simplex parameters t
    (one block per simplex, each with t >= 0 and sum <= 1). honest lists
    explicit certified ball members. exact means the family's sup equals
    the ball's sup for every nonnegative objective; otherwise the family
    dominates the ball and only upper bounds may be read off it.
    """

    blocks: tuple[int, ...]
    polys: tuple[Polynomial, ...]
    honest: tuple[VecQ, ...]
    exact: bool

    @cached_property
    def honest_ints(self) -> IntRows:
        """Each honest member z as (D, ((c, D z_c) for each nonzero z_c)),
        with D the lcm of its denominators."""
        return int_rows(self.honest)

    @cached_property
    def samples(self) -> tuple[VecQ, ...]:
        """The honest members, then the family at each grid point of
        _sample_points. Grid vertices repeat honest members, so a repeated
        point keeps only its first place."""
        pts = list(self.honest)
        pts.extend(eval_family(self.polys, t) for t in _sample_points(self.blocks))
        return tuple(dict.fromkeys(pts))

    def _bound(self, pol: Polynomial, low: Fraction) -> tuple[Fraction, Optional[Bracket]]:
        """The Bernstein upper bound of the family polynomial pol, and the
        oracle's bracket only when the family is exact and low, a value an
        honest member reaches, is below it: a member reaching a certified
        upper bound attains the sup, which no search could change."""
        upper = averaged_upper(pol, self.blocks)
        if not self.exact or low >= upper:
            return upper, None
        return upper, simplex_polynomial_bounds(pol, self.blocks, upper)

    def bracket(self, k: VecQ) -> Bracket:
        """Bracket the sup over the ball of sum_c k_c z_c, for k >= 0: the
        best honest member below, and the bounding step of the family
        polynomial sum_c k_c polys[c] above; the oracle's argmax, when it
        beats the honest member, is mapped through polys."""
        low, arg = _honest_lower(k, self)
        pol = poly_combination(k, self.polys, sum(self.blocks))
        upper, br = self._bound(pol, low)
        if br is None:
            return Bracket(low, upper, arg, "honest lower / Bernstein upper")
        if br.lower > low:
            low, arg = br.lower, eval_family(self.polys, br.argmax)
        return Bracket(low, br.upper, arg, f"distribution-family oracle ({br.note})")

    def corner(self, c: int) -> tuple[Fraction, Fraction]:
        """bracket(unit(c))'s lower and upper bounds, with no witness: the
        honest members' column maximum, or the oracle's lower bound."""
        low = max((z[c] for z in self.honest), default=Q0)
        upper, br = self._bound(self.polys[c], low)
        return (low if br is None else max(low, br.lower)), upper


@lru_cache(maxsize=None)
def primal_ball_scheme(h: ConeObject) -> BallScheme:
    if h.backend is Backend.POLYHEDRAL:
        gens = primal_gens(h)
        k = len(gens)
        if k == 0:
            zero = tuple(Q0 for _ in range(h.dim))
            polys = tuple(Polynomial.zero(0) for _ in range(h.dim))
            return BallScheme((), polys, (zero,), True)
        polys = tuple(
            Polynomial.linear(k, [u[c] for u in gens]) for c in range(h.dim)
        )
        return BallScheme((k,), polys, gens, True)
    if h.backend is Backend.SPECTRAL:
        raise CapabilityError("no ball scheme for the spectral backend", h.label)
    shape = _shape(h)
    if not shape.series_primal:
        return _node_scheme(shape.node)
    return _box_scheme(h)


def _node_scheme(node) -> BallScheme:
    """Distribution-side ball family of a shape node."""
    if isinstance(node, PolyNode):
        return primal_ball_scheme(node.obj)
    if isinstance(node, ExpNode):
        inner = primal_ball_scheme(dual_object(node.base))
        lay = node.layout
        polys = tuple(layout_products(inner.polys, lay, sum(inner.blocks)))
        pts = [tuple(Q0 for _ in range(node.base.dim))]  # the vacuum delta_0
        pts.extend(inner.honest)
        honest = tuple(monomial_values(y, lay) for y in pts[:HONEST_CAP])
        return BallScheme(inner.blocks, polys, honest, inner.exact)
    if isinstance(node, TensorNode):
        sl = _node_scheme(node.left)
        sr = sl if node.right == node.left else _node_scheme(node.right)
        nl = sum(sl.blocks)
        nv = nl + sum(sr.blocks)
        lp = [p.shift_vars(0, nv) for p in sl.polys]
        rp = [p.shift_vars(nl, nv) for p in sr.polys]
        polys = tuple(lp[i] * rp[j] for i, j in node.pairs)
        honest = tuple(
            tuple(za[i] * zb[j] for i, j in node.pairs)
            for za, zb in islice(product(sl.honest, sr.honest), HONEST_CAP)
        )
        return BallScheme(sl.blocks + sr.blocks, polys, honest, sl.exact and sr.exact)
    if isinstance(node, SumNode):
        raise CapabilityError(
            "norms over graded sums are not supported", "project onto a summand"
        )
    raise TypeError(f"not a shape node: {node!r}")


def _box_scheme(h: ConeObject) -> BallScheme:
    """Outer box for a series-side ball from per-coordinate sup brackets.

    A representable f in the unit ball satisfies w_c f_c z_c <= <f, z> <= 1
    at every distribution ball member z, so f_c <= 1/(w_c M_c) with M_c the
    coordinate sup, bracketed by the distribution scheme's bracket of the
    unit vector e_c (BallScheme.corner). Its lower bound makes the corners
    safe overestimates; singletons e_c/(w_c upper(M_c)) are certified
    members. A coordinate
    whose lower bound is 0 has no box: either no family member reaches it,
    or only an inexact family does and no honest member certifies it.
    """
    s = primal_ball_scheme(dual_object(h))
    w = h.pairing_weights
    corners = []
    honest = []
    for c in range(h.dim):
        lower, upper = s.corner(c)
        if lower <= 0 and not s.polys[c].terms:
            raise CapabilityError(
                "series ball is unbounded in a dead coordinate",
                f"coordinate {c} of {h.label!r} never appears on the distribution side",
            )
        if lower <= 0:
            raise CapabilityError(
                "series ball has no certified box",
                f"coordinate {c} of {h.label!r} is zero at every honest member of the "
                "inexact distribution-side family, so its sup has no certified positive "
                "lower bound",
            )
        corners.append(Polynomial.constant(0, Q1 / (w[c] * lower)))
        point = [Q0] * h.dim
        point[c] = Q1 / (w[c] * upper)
        honest.append(tuple(point))
    return BallScheme((), tuple(corners), tuple(honest), False)


# ---------------------------------------------------------------------------
# Norm brackets

# In every bracket below, argmax (when present) holds the coordinates of a
# dual-ball member achieving the lower bound.


def _weighted(h: ConeObject, e: VecQ) -> VecQ:
    """The objective k_c = w_c e_c of <., e> on the dual ball."""
    return tuple(wc * ec for wc, ec in zip(h.pairing_weights, e))


def _honest_lower(k: VecQ, scheme: BallScheme):
    """max over honest members z of sum_c k_c z_c, with the first strict
    maximum as argmax (rationals.max_pairing)."""
    low, i = max_pairing(k, scheme.honest_ints)
    return low, None if i is None else scheme.honest[i]


def _delta_like_bounds(node, e: VecQ) -> Optional[Bracket]:
    """Exact distribution norms for recognizable shapes."""
    if not isinstance(node, ExpNode):
        return None
    base = node.base
    coords = node.layout.coords
    idx = node.layout.index
    arg = dual_object(base)
    scale = e[idx[()]]
    if scale > 0:
        if node.trunc >= 1:
            x = tuple(e[idx[(c,)]] / scale for c in range(base.dim))
        else:
            x = tuple(Q0 for _ in range(base.dim))
        if all(ei == scale * v for ei, v in zip(e, monomial_values(x, node.layout))):
            try:
                ok = in_ball(arg, x)
            except CapabilityError:
                ok = False
            if ok:
                # The constant series 1 pairs with scale * delta_x to scale.
                one = unit(len(coords), idx[()])
                return Bracket(scale, scale, one, "recognized multiple of a delta")
    elif node.trunc >= 1 and all(
        e[i] == 0 for i, m in enumerate(coords) if len(m) != 1
    ):
        x = tuple(e[idx[(c,)]] for c in range(base.dim))
        try:
            if in_cone(arg, x):
                v = norm_primal(arg, x)
                return Bracket(v, v, None, "pure grade-1 distribution")
        except CapabilityError:
            pass
    return None


def _sample_points(blocks: tuple[int, ...]):
    """Rational grid over the simplex product: resolution-2 mixes plus the
    strictly positive center of each block."""
    per_block = []
    for b in blocks:
        cands = [tuple(Fraction(k, 2) for k in comp) for comp in _compositions(2, b)]
        cands.append(tuple(Fraction(1, b) for _ in range(b)))
        per_block.append(cands)
    for combo in islice(product(*per_block), SAMPLE_CAP):
        yield tuple(t for block in combo for t in block)


def _relaxed_polar_upper(h: ConeObject, k: VecQ) -> Optional[Fraction]:
    """LP maximizing sum_c k_c f_c over finitely many sampled ball
    constraints. The feasible set contains the representable series ball,
    so the optimum is an upper bound; None when the sample leaves it
    unbounded."""
    s = primal_ball_scheme(h)
    w = h.pairing_weights
    cons = [constraint([w[c] * z[c] for c in range(h.dim)], "<=", 1) for z in s.samples]
    res = lp_maximize(problem(k, cons))
    if res.status is LpStatus.OPTIMAL:
        return res.value
    return None


def _dist_bounds(h: ConeObject, e: VecQ) -> Bracket:
    """The box scheme's bracket, its upper bound lowered by the sampled
    polar LP where that is tighter."""
    k = _weighted(h, e)
    br = primal_ball_scheme(dual_object(h)).bracket(k)
    lp_up = _relaxed_polar_upper(h, k)
    if lp_up is not None and lp_up < br.upper:
        return Bracket(br.lower, lp_up, br.argmax, "singleton-series lower / sampled-polar LP upper")
    return replace(br, note="singleton-series lower / box upper")


def _series_bounds(h: ConeObject, e: VecQ) -> Bracket:
    return primal_ball_scheme(dual_object(h)).bracket(_weighted(h, e))


def _primal_norm_bounds(h: ConeObject, e: VecQ) -> Bracket:
    shape = _shape(h)
    check_membership(h, e)
    if all(c == 0 for c in e):
        return Bracket(Q0, Q0, None, "zero element")
    if shape.series_primal:
        return _series_bounds(h, e)
    exact = _delta_like_bounds(shape.node, e)
    if exact is not None:
        return exact
    return _dist_bounds(h, e)


def series_norm_bounds(f: GradedSeries) -> Bracket:
    """Bracket sup over the argument ball of f(x)."""
    return _primal_norm_bounds(f.obj, f.coords)


def distribution_norm_bounds(e: GradedDistribution) -> Bracket:
    """Bracket the distribution norm (sup against representable series)."""
    return _primal_norm_bounds(e.obj, e.coords)


def graded_norm_bounds(h: ConeObject, coords) -> Bracket:
    return _primal_norm_bounds(h, vec(coords))


# ---------------------------------------------------------------------------
# Structure morphisms


def eta(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """Dereliction a -> ?a: u becomes the linear series y -> <u, y>."""
    if trunc < 1:
        raise CapabilityError("dereliction needs truncation >= 1", f"trunc={trunc}")
    target = whynot_obj(a, trunc)
    idx = _layout(target).index
    cols = [((idx[(c,)], Fraction(w)),) for c, w in enumerate(a.pairing_weights)]
    return sparse_mor(a, target, cols)


def monoid_unit(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """1 -> ?a: the constant series."""
    target = whynot_obj(a, trunc)
    return sparse_mor(one_obj(), target, [((_layout(target).index[()], Q1),)])


def mu(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """Digging multiplication ??a -> ?a: substitute the delta series.

    Column M is a multiset of ?a coordinates; the image lands on their
    union when it still fits the truncation and is dropped otherwise. The
    multiplicity ratio is forced by the monad unit law.
    """
    inner = whynot_obj(a, trunc)
    outer = whynot_obj(inner, trunc)
    il, ol = _layout(inner), _layout(outer)
    cols = []
    for m, w in zip(ol.coords, ol.weights):
        kt = mset_union(*(il.coords[p] for p in m))
        if len(kt) <= trunc:
            i = il.index[kt]
            cols.append(((i, Fraction(w, il.weights[i])),))
        else:
            cols.append(())
    return sparse_mor(outer, inner, cols)


def diag_mult(a: ConeObject, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """?a | ?a -> ?a: multiply the two functions and restrict to the
    diagonal; in coordinates, the Cauchy product of the gradings."""
    w = whynot_obj(a, trunc)
    src = graded_par_obj(w, w, trunc)
    sl, tl = _layout(src), _layout(w)
    cols = []
    for (m, n), v in zip(sl.coords, sl.weights):
        i = tl.index[mset_union(m, n)]
        cols.append(((i, Fraction(v, tl.weights[i])),))
    return sparse_mor(src, w, cols)


def _pair_mor(src: ConeObject, tgt: ConeObject, f: Morphism, g: Morphism) -> Morphism:
    """f (x) g on graded pairs: source pair (a, b) of positions takes the
    products of f's column a and g's column b that land inside the truncation."""
    tpos = {p: i for i, p in enumerate(_shape(tgt).node.pairs)}
    cols = []
    for a, b in _shape(src).node.pairs:
        col = []
        for ta, x in f.cols[a]:
            for tb, y in g.cols[b]:
                i = tpos.get((ta, tb))
                if i is not None:
                    col.append((i, x * y))
        cols.append(col)
    return sparse_mor(src, tgt, cols)


def graded_tensor_mor(
    f: Morphism, g: Morphism, trunc: Optional[int] = None
) -> Morphism:
    src = graded_tensor_obj(f.source, g.source, trunc)
    tgt = graded_tensor_obj(f.target, g.target, trunc)
    return _pair_mor(src, tgt, f, g)


def graded_par_mor(f: Morphism, g: Morphism, trunc: Optional[int] = None) -> Morphism:
    src = graded_par_obj(f.source, g.source, trunc)
    tgt = graded_par_obj(f.target, g.target, trunc)
    return _pair_mor(src, tgt, f, g)


def graded_relabel(src: ConeObject, tgt: ConeObject, fn) -> Morphism:
    """Isometric 0/1 relabeling (associators, unitors). fn must send source
    labels bijectively onto target labels with equal pairing weights."""
    sc = _coord_labels(src)
    tidx = {l: i for i, l in enumerate(_coord_labels(tgt))}
    if len(sc) != len(tidx):
        raise DimensionError(len(tidx), len(sc), "relabel")
    ws, wt = src.pairing_weights, tgt.pairing_weights
    cols = []
    seen = set()
    for j, lbl in enumerate(sc):
        out = fn(lbl)
        if out not in tidx or out in seen:
            raise CompositionError(f"relabel is not a bijection at {lbl!r}")
        i = tidx[out]
        if ws[j] != wt[i]:
            raise CompositionError(f"relabel changes the pairing weight at {lbl!r}")
        seen.add(out)
        cols.append(((i, Q1),))
    return sparse_mor(src, tgt, cols)


def _require_contraction(s: Morphism, what: str) -> None:
    try:
        n = morphism_norm(s)
    except CapabilityError:
        return  # no exact norm available (graded endpoints); trust the caller
    if n > 1:
        raise BallError(f"{what} only transports contractions", norm=n)


def whynot_mor(l: Morphism, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """?l: ?A -> ?B for a contraction l: A -> B, f -> f . l*. The image of
    the series coordinate mu is multiplicity(mu) prod_{c in mu} (l* y)_c with
    its y^nu coefficient spread over multiplicity(nu), so ?l = Sym(l'): l'
    is l conjugated by the weights, the transpose of l*'s integer view, and
    sym_power_cols of that view are the columns of grades 0..trunc."""
    pullback = adjoint(l)
    _require_contraction(pullback, "?")
    den, pcols = pullback.int_cols
    conj: list[list] = [[] for _ in range(l.source.dim)]
    for r, col in enumerate(pcols):
        for c, x in col:
            conj[c].append((r, x))
    src, tgt = whynot_obj(l.source, trunc), whynot_obj(l.target, trunc)
    return sparse_mor(src, tgt, sym_power_cols((den, conj), l.target.dim, trunc))


def bang_mor(s: Morphism, trunc: int = DEFAULT_TRUNC) -> Morphism:
    """!s: !A -> !B, delta_x -> delta_{sx}. delta_x has the plain coordinates
    x^mu, and (s x)^nu expands by the multinomial theorem, so !s = Sym(s):
    its columns over grades 0..trunc are sym_power_cols of s's integer view."""
    _require_contraction(s, "!")
    src, tgt = bang_obj(s.source, trunc), bang_obj(s.target, trunc)
    return sparse_mor(src, tgt, sym_power_cols(s.int_cols, s.target.dim, trunc))


def exp_iso(
    a: ConeObject, b: ConeObject, trunc: int = DEFAULT_TRUNC
) -> tuple[Morphism, Morphism]:
    """The exponential isomorphism !(a x b) = !a (x) !b.

    A multiset over the product coordinates splits into its a-part and
    b-part; the split respects grades, so both directions are total 0/1
    matrices and mutually inverse at every truncation. One pass fills
    both: source coordinate j goes to pair i, and pair i comes back to j.
    """
    for h in (a, b):
        if h.backend is not Backend.POLYHEDRAL:
            raise CapabilityError(
                "the exponential isomorphism needs polyhedral factors", h.label
            )
    src = bang_obj(product_obj(a, b), trunc)
    tgt = graded_tensor_obj(bang_obj(a, trunc), bang_obj(b, trunc), trunc)
    da = a.dim
    tidx = _layout(tgt).index
    cols = []
    inv_cols: list = [()] * tgt.dim
    for j, m in enumerate(_layout(src).coords):
        ka = tuple(c for c in m if c < da)
        kb = tuple(c - da for c in m if c >= da)
        i = tidx[(ka, kb)]
        cols.append(((i, Q1),))
        inv_cols[i] = ((j, Q1),)
    return sparse_mor(src, tgt, cols), sparse_mor(tgt, src, inv_cols)


# ---------------------------------------------------------------------------
# Analytic maps


def analytic_map(source: ConeObject, target: ConeObject, grades) -> Morphism:
    """The positive analytic map source -> target with one coefficient
    matrix per degree, truncated at len(grades) - 1, as the linear map
    !source -> target. grades[n] is target.dim by mset_count(source.dim, n)
    and acts on the power coordinates x^m; the grades sit side by side in
    the degree-major layout of !source."""
    for h in (source, target):
        if h.backend is not Backend.POLYHEDRAL:
            raise CapabilityError("analytic maps run between polyhedral objects", h.label)
    gs = [mat(g) for g in grades]
    if not gs:
        raise DimensionError(1, 0, "analytic grades")
    rows: list[list[Fraction]] = [[] for _ in range(target.dim)]
    for n, g in enumerate(gs):
        if len(g) != target.dim:
            raise DimensionError(target.dim, len(g), f"grade {n} rows")
        k = mset_count(source.dim, n)
        for row, grow in zip(rows, g):
            if len(grow) != k:
                raise DimensionError(k, len(grow), f"grade {n} columns")
            row.extend(grow)
    return mor(bang_obj(source, len(gs) - 1), target, rows)


def _analytic_node(f: Morphism) -> ExpNode:
    """The exponential node of f's source, which must be a bang object !A;
    A itself is dual_object(node.base)."""
    shape = _shape(f.source)
    if shape.series_primal or not isinstance(shape.node, ExpNode):
        raise CapabilityError("an analytic map is a morphism out of !A", f.source.label)
    return shape.node


def analytic_eval(f: Morphism, x) -> VecQ:
    """f(x) = f applied to delta_x; delta refuses x outside the ball of A."""
    node = _analytic_node(f)
    return f(delta(dual_object(node.base), x, node.trunc).coords)


def analytic_norm_bounds(f: Morphism) -> Bracket:
    """Bracket sup over the ball of A of ||f(x)||: the max over the target's
    dual generators psi of one bracket of the ball scheme of !A, with
    objective k_c = sum_i w_i psi_i f_ic. The witness is delta_x."""
    _analytic_node(f)  # refuses a source that is not !A
    s = primal_ball_scheme(f.source)
    wt = f.target.pairing_weights
    lower = upper = Q0
    arg = None
    for psi in materialize_q(f.target).q_ball_gens:
        wpsi = [w * x for w, x in zip(wt, psi)]
        br = s.bracket(tuple(sum((wpsi[i] * x for i, x in col), Q0) for col in f.cols))
        if br.lower > lower:
            lower, arg = br.lower, br.argmax
        upper = max(upper, br.upper)
    return Bracket(lower, upper, arg, "max over target dual generators")


def _analytic_lift(f: Morphism, target: ConeObject, trunc: int) -> Morphism:
    """delta_x -> delta_{f(x)} for f: !A -> B, from !A at trunc to a !B:
    row nu holds the coefficients of prod_{c in nu} f_c(x) up to degree
    trunc, one prefix_products over target's table whose factors are the
    rows of f.int_cols keyed by multisets, each entry one Fraction."""
    src = bang_obj(dual_object(_analytic_node(f).base), trunc)
    den, icols = f.int_cols
    forms: list[list] = [[] for _ in range(f.target.dim)]
    for m, col in zip(_layout(f.source).coords, icols):
        for i, v in col:
            forms[i].append((m, v))
    lay, idx = _layout(target), _layout(src).index
    dens = [den**n for n in range(max(lay.grades) + 1)]
    prods = prefix_products(lay, forms, lambda p, form: _mset_mul(p, form, trunc), {(): 1})
    cols: list[list] = [[] for _ in range(src.dim)]
    for r, (p, n) in enumerate(zip(prods, lay.grades)):
        for m, v in p.items():
            cols[idx[m]].append((r, Fraction(v, dens[n])))  # sparse_mor drops zeros
    return sparse_mor(src, target, cols)


def analytic_compose(g: Morphism, f: Morphism, trunc: Optional[int] = None) -> Morphism:
    """g after f up to degree trunc: g after the lift delta_x -> delta_{f(x)}.

    Requires f to map the ball into the ball; with only a bracket for
    ||f||, the gate fires when the violation is provable (lower bound > 1).
    """
    fn, gn = _analytic_node(f), _analytic_node(g)
    if f.target != dual_object(gn.base):
        raise CompositionError("analytic composition needs a matching middle object")
    if trunc is None:
        trunc = max(fn.trunc, gn.trunc)
    fb = analytic_norm_bounds(f)
    if fb.lower > 1:
        raise BallError("composition needs ||f|| <= 1", norm=fb.lower)
    return compose(g, _analytic_lift(f, g.source, trunc))

"""Normed positive dual pairs at desk scale.

An object here is a finite-dimensional positive dual pair presented by two
generator lists in the nonnegative orthant:

    p_ball_gens   generate the primal unit ball (downward convex hull),
    q_ball_gens   generate the dual unit ball,

and each side is the polar of the other:

    B_p = { x >= 0 : <g, x> <= 1 for all g in q_ball_gens },
    B_q = { f >= 0 : <f, u> <= 1 for all u in p_ball_gens }.

For a valid spanning pair the cone itself is the whole orthant; all the
geometry lives in the balls. Norms are therefore generator maxima:

    norm_primal(x) = max_{g in q_ball_gens} <g, x>,
    norm_dual(f)   = max_{u in p_ball_gens} <f, u>,

and the Minkowski gauge LP over the same side's generators must agree exactly
(that agreement is LP duality, and it is checked, not assumed). The maxima
run in integers: an object keeps its dual generators as integer rows
(q_rows), and rows compare by cross-multiplying (rationals.max_pairing).

Three backends share the ConeObject container:

    POLYHEDRAL  exact rational generator lists, possibly with one side held
                implicitly (tensor constructions; see ImplicitTensorBall),
    SPECTRAL    positive semidefinite matrix cones: the trace norm exact,
                the operator norm a certified bracket, both in spectral,
    GRADED      truncated power-series objects whose norms are bracketed by
                oracles in the exponential modules, never evaluated here.

Duality is an involutive field swap, so dual(dual(a)) == a structurally at
zero cost. Object equality is equality of canonicalized generator data and
ignores the human-readable label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Optional

from .errors import CapabilityError, DimensionError, MembershipError
from .lp import LpStatus, constraint, lp_maximize, lp_minimize, problem
from .polyhedra import DD_MAX_DIM, polar_of_points, polar_vertices, reduce_generators
from .rationals import Q0, Q1, IntRows, VecQ, int_keys, int_rows, is_zero, max_pairing, unit, vec
from .spectral import as_matrix, qcs_check_psd


class Backend(enum.Enum):
    POLYHEDRAL = "polyhedral"
    SPECTRAL = "spectral"
    GRADED = "graded"


@dataclass(frozen=True)
class ImplicitTensorBall:
    """One side of a tensor-built object, kept as a description.

    The ball it describes is the set of positive bilinear functionals F
    (coordinates F_ij, plain pairing) with F(u, v) <= 1 for every pair of
    primal ball generators u of `left`, v of `right`. Norms against this side
    run the LP in `tensor_side_norm`; the vertex list is only materialized
    through double description on demand, and only in dimension <= 8.
    """

    left: "ConeObject"
    right: "ConeObject"


@dataclass(frozen=True)
class ConeObject:
    dim: int
    p_ball_gens: Optional[tuple[VecQ, ...]]
    q_ball_gens: Optional[tuple[VecQ, ...]]
    backend: Backend = Backend.POLYHEDRAL
    label: str = field(default="", compare=False)
    p_implicit: Optional[ImplicitTensorBall] = None
    q_implicit: Optional[ImplicitTensorBall] = None
    # SPECTRAL only: matrices are n x n, flattened row-major into dim = n*n.
    spectral_n: Optional[int] = None
    # True when the primal norm is the trace norm (flips under dual).
    spectral_trace_primal: bool = True
    # GRADED only: layout payload owned by the exponential modules.
    graded: Any = None
    # Pairing weights; None means the plain coordinate pairing. Graded
    # objects carry their integer multiset multiplicities here.
    weights: Optional[tuple[Fraction | int, ...]] = None

    def __repr__(self):
        return f"ConeObject({self.label or '?'}, dim={self.dim}, {self.backend.value})"

    @cached_property
    def q_rows(self) -> IntRows:
        """q_ball_gens as integer rows (rationals.int_rows), for norm_primal."""
        return int_rows(self.q_ball_gens)

    @property
    def pairing_weights(self) -> tuple[Fraction | int, ...]:
        if self.weights is not None:
            return self.weights
        return (Q1,) * self.dim


def _dual_label(label: str) -> str:
    if label.startswith("dual(") and label.endswith(")"):
        return label[5:-1]
    return f"dual({label})" if label else ""


def dual_object(a: ConeObject, label: str | None = None) -> ConeObject:
    """Swap the two sides. Involutive by construction."""
    return ConeObject(
        dim=a.dim,
        p_ball_gens=a.q_ball_gens,
        q_ball_gens=a.p_ball_gens,
        backend=a.backend,
        label=_dual_label(a.label) if label is None else label,
        p_implicit=a.q_implicit,
        q_implicit=a.p_implicit,
        spectral_n=a.spectral_n,
        spectral_trace_primal=(
            not a.spectral_trace_primal if a.backend is Backend.SPECTRAL else True
        ),
        graded=_dual_graded(a.graded),
        weights=a.weights,
    )


def _dual_graded(g: Any):
    if g is None:
        return None
    return g.flipped()


def polar_w(
    gens: tuple[VecQ, ...], dim: int, weights: Optional[tuple[Fraction, ...]]
) -> tuple[VecQ, ...]:
    """Polar under a weighted pairing <f, x> = sum w_c f_c x_c.

    Substituting y_c = w_c f_c reduces to the plain polar; positive
    coordinate scaling commutes with canonicalization (domination and lex
    order are both preserved), so the result is canonical in f-coordinates.
    """
    ys = polar_vertices(gens, dim)
    if weights is None:
        return ys
    return tuple(tuple(y[c] / w for c, w in enumerate(weights)) for y in ys)


def from_p_gens(gens, dim: int, label: str = "") -> ConeObject:
    """Polyhedral object from primal ball generators; dual side by polar.

    One double description run gives both sides: the polar's vertices and
    the canonical primal list (the input points whose cuts define facets of
    the polar, which is reduce_generators' list), so no LP is solved.
    Generators must lie in the orthant and span every coordinate.
    """
    pts = [vec(g) for g in gens]
    for g in pts:
        if len(g) != dim:
            raise DimensionError(dim, len(g), "generator")
    res = polar_of_points(pts, dim).checked()
    return ConeObject(
        dim=dim,
        p_ball_gens=res.kept,
        q_ball_gens=res.vertices,
        label=label,
    )


def from_both_gens(p_gens, q_gens, dim: int, label: str = "") -> ConeObject:
    """Polyhedral object from both generator lists (canonicalized, trusted).

    Mutual polarity is *not* recomputed here; run validate_object to check it.
    """
    p, q = [vec(g) for g in p_gens], [vec(g) for g in q_gens]
    for g in p + q:
        if len(g) != dim:
            raise DimensionError(dim, len(g), "generator")
    p, q = reduce_generators(p), reduce_generators(q)
    return ConeObject(dim=dim, p_ball_gens=p, q_ball_gens=q, label=label)


def one_obj() -> ConeObject:
    g = (vec([1]),)
    return ConeObject(dim=1, p_ball_gens=g, q_ball_gens=g, label="1")


def zero_obj() -> ConeObject:
    return ConeObject(dim=0, p_ball_gens=(), q_ball_gens=(), label="0")


def bot_obj() -> ConeObject:
    o = one_obj()
    return ConeObject(dim=1, p_ball_gens=o.p_ball_gens, q_ball_gens=o.q_ball_gens, label="bot")


def top_obj() -> ConeObject:
    return ConeObject(dim=0, p_ball_gens=(), q_ball_gens=(), label="top")


# ---------------------------------------------------------------------------
# Membership


def in_cone(a: ConeObject, x: VecQ) -> bool:
    try:
        check_membership(a, x)
        return True
    except MembershipError:
        return False


def check_membership(a: ConeObject, x: VecQ) -> None:
    """Raise MembershipError with a separating functional if x is outside.

    The cone of a polyhedral object is the downward-closed cone of its
    generators: all of { x >= 0 : supp(x) inside the spanned coordinates }.
    A separating functional is a coordinate functional in both failure modes.
    """
    if a.backend is Backend.SPECTRAL:
        qcs_check_psd(as_matrix(a, x))
        return
    if len(x) != a.dim:
        raise DimensionError(a.dim, len(x), "membership")
    for c, val in enumerate(x):
        if val < 0:
            raise MembershipError(
                f"coordinate {c} is negative ({val})", witness=unit(a.dim, c)
            )
    gens = a.p_ball_gens
    if gens is not None:
        for c in range(a.dim):
            if x[c] > 0 and all(g[c] == 0 for g in gens):
                raise MembershipError(
                    f"coordinate {c} is outside the generated support",
                    witness=unit(a.dim, c),
                )


# ---------------------------------------------------------------------------
# Norms


def _gen_max(rows: IntRows, weights: Optional[tuple[Fraction | int, ...]], x: VecQ) -> Fraction:
    """max(0, max over generators g of sum_c w_c g_c x_c), with the
    generators held as int_rows."""
    k = x if weights is None else tuple(w * xi for w, xi in zip(weights, x))
    return max_pairing(k, rows)[0]


def tensor_side_norm(ball: ImplicitTensorBall, s: VecQ) -> Fraction:
    """sup <F, s> over the implicit bilinear ball, as an exact LP.

    Variables are the entries of F, each >= 0 (for spanning factors that is
    exactly positivity on the tensor cone); the norm bound is the <= row
    F(u, v) <= 1 for each primal generator pair of the factors. Each row is
    built in integers, as the primitive row of the Kronecker product of the
    factors' int_keys, and reaches the tableau as those ints: it is the row
    the LP would scale the Fraction row (u (x) v, 1) to, so no pivot moves.
    """
    n = ball.left.dim * ball.right.dim
    if len(s) != n:
        raise DimensionError(n, len(s), "tensor norm")
    den_a, ka = int_keys(primal_gens(ball.left))
    den_b, kb = int_keys(primal_gens(ball.right))
    den = den_a * den_b
    cons = []
    for u in ka:
        for v in kb:
            row = [x * y for x in u for y in v]
            g = gcd(den, *row)
            cons.append(constraint([x // g for x in row], "<=", den // g))
    res = lp_maximize(problem(s, cons))
    if res.status is not LpStatus.OPTIMAL:
        raise MembershipError(f"tensor norm LP is {res.status.value}; element outside the span?")
    return res.value


def norm_primal(a: ConeObject, x: VecQ) -> Fraction:
    """Exact primal norm: max pairing against the dual ball."""
    if len(x) != a.dim:
        raise DimensionError(a.dim, len(x), "norm_primal")
    if a.backend is not Backend.POLYHEDRAL:
        raise CapabilityError(
            f"{a.backend.value} norms are bracketed, not exact",
            "use graded_norm_bounds or spectral_norm_bounds, which take the same "
            "object and coordinates",
        )
    if a.q_ball_gens is not None:
        return _gen_max(a.q_rows, a.weights, x)
    if a.q_implicit is not None:
        return tensor_side_norm(a.q_implicit, x)
    raise CapabilityError("object has no usable dual side", a.label)


def norm_dual(a: ConeObject, f: VecQ) -> Fraction:
    return norm_primal(dual_object(a), f)


def gauge_norm(a: ConeObject, x: VecQ) -> Fraction:
    """Minkowski gauge over the primal generators, as an LP.

    min t  s.t.  x <= sum_i lam_i g_i (coordinatewise), sum lam <= t,
    lam >= 0. Equals norm_primal exactly by LP duality; kept as a separate
    route so the equality can be *checked*.
    """
    if a.backend is not Backend.POLYHEDRAL:
        raise CapabilityError("gauge norm is a polyhedral-backend route", a.label)
    gens = a.p_ball_gens
    if gens is None:
        raise CapabilityError("gauge norm needs explicit primal generators", a.label)
    check_membership(a, x)
    k = len(gens)
    if k == 0:
        if is_zero(x):
            return Q0
        raise MembershipError("nonzero element of a zero object")
    # Variables: lam_1..lam_k, t.
    cons = []
    for c in range(a.dim):
        cons.append(constraint([g[c] for g in gens] + [0], ">=", x[c]))
    cons.append(constraint([1] * k + [-1], "<=", 0))
    res = lp_minimize(problem([0] * k + [1], cons))
    if res.status is not LpStatus.OPTIMAL:
        raise MembershipError(f"gauge LP is {res.status.value}")
    return res.value


def pairing(a: ConeObject, f: VecQ, x: VecQ) -> Fraction:
    """<f, x> with the object's pairing weights (plain dot when unweighted)."""
    if len(f) != a.dim or len(x) != a.dim:
        raise DimensionError(a.dim, len(f) if len(f) != a.dim else len(x), "pairing")
    w = a.pairing_weights
    return sum((wi * fi * xi for wi, fi, xi in zip(w, f, x)), Q0)


def in_ball(a: ConeObject, x: VecQ) -> bool:
    return in_cone(a, x) and norm_primal(a, x) <= 1


# ---------------------------------------------------------------------------
# Materialization of implicit sides


def materialize_q(a: ConeObject) -> ConeObject:
    """Explicit dual generators via the polar, when dimension allows."""
    if a.q_ball_gens is not None:
        return a
    if a.p_ball_gens is None:
        raise CapabilityError("cannot materialize: no explicit side", a.label)
    if a.dim > DD_MAX_DIM:
        raise CapabilityError(
            f"double description capped at dimension {DD_MAX_DIM}",
            f"{a.label!r} has dimension {a.dim}",
        )
    q = polar_w(a.p_ball_gens, a.dim, a.weights)
    return ConeObject(
        dim=a.dim,
        p_ball_gens=a.p_ball_gens,
        q_ball_gens=q,
        backend=a.backend,
        label=a.label,
        weights=a.weights,
    )


def materialize_p(a: ConeObject) -> ConeObject:
    return dual_object(materialize_q(dual_object(a)))


def primal_gens(a: ConeObject) -> tuple[VecQ, ...]:
    """The primal ball generators, materialized if that side is implicit."""
    if a.p_ball_gens is not None:
        return a.p_ball_gens
    return materialize_p(a).p_ball_gens


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    object_label: str
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _in_orthant(gens: tuple[VecQ, ...]) -> bool:
    return all(x >= 0 for g in gens for x in g)


def _side_checks(name: str, gens: tuple[VecQ, ...], dim: int) -> list[CheckOutcome]:
    ok = all(len(g) == dim for g in gens)
    out = [CheckOutcome(f"{name}-shape", ok, "" if ok else "generator length mismatch")]
    if not ok:  # the checks below index the generators by coordinate
        return out
    nonneg = _in_orthant(gens)
    ok = nonneg and not any(is_zero(g) for g in gens)
    out.append(CheckOutcome(f"{name}-orthant", ok, "" if ok else "zero or negative generator"))
    if nonneg:  # canonical forms exist only in the orthant
        canon = reduce_generators(gens)
        ok = canon == gens
        out.append(
            CheckOutcome(
                f"{name}-canonical",
                ok,
                "" if ok else f"canonical form differs: {canon}",
            )
        )
    spanned = all(any(g[c] > 0 for g in gens) for c in range(dim))
    out.append(
        CheckOutcome(f"{name}-spanning", spanned, "" if spanned else "unspanned coordinate")
    )
    return out


def validate_object(a: ConeObject) -> ValidationReport:
    """Invariant audit for polyhedral objects; failures are data, not raises."""
    if a.backend is not Backend.POLYHEDRAL:
        return ValidationReport(
            a.label, (CheckOutcome("backend", True, f"{a.backend.value}: not audited here"),)
        )
    checks: list[CheckOutcome] = []
    obj = a
    if a.dim <= DD_MAX_DIM:
        try:
            obj = materialize_p(materialize_q(a))
        except (CapabilityError, ValueError) as e:
            checks.append(CheckOutcome("materialize", False, str(e)))
            return ValidationReport(a.label, tuple(checks))
    p, q = obj.p_ball_gens, obj.q_ball_gens
    for name, gens in (("p", p), ("q", q)):
        if gens is not None:
            side = _side_checks(name, gens, a.dim)
            checks.extend(side)
            if not side[0].passed:  # shape; the checks below index coordinates
                return ValidationReport(a.label, tuple(checks))
    if p is not None and q is not None and a.dim <= DD_MAX_DIM and a.dim > 0:
        spanning = all(
            any(g[c] > 0 for g in gens) for gens in (p, q) for c in range(a.dim)
        )
        if spanning and _in_orthant(p) and _in_orthant(q):
            polar_ok = polar_w(p, a.dim, a.weights) == q and polar_w(q, a.dim, a.weights) == p
            checks.append(
                CheckOutcome(
                    "mutual-polarity",
                    polar_ok,
                    "" if polar_ok else "sides are not each other's polars",
                )
            )
    # Unit-norm generators: reduced generators sit on the unit sphere.
    if p is not None and q is not None:
        pr, qr = int_rows(p), int_rows(q)
        ok = all(_gen_max(qr, obj.weights, g) == 1 for g in p) and all(
            _gen_max(pr, obj.weights, g) == 1 for g in q
        )
        checks.append(
            CheckOutcome("unit-norm-generators", ok, "" if ok else "generator off the sphere")
        )
    return ValidationReport(a.label, tuple(checks))

"""Polars of finite point sets in the nonnegative orthant, exactly.

The polar taken here is the one that drives every generator-side norm in the
package: for a finite S in the orthant of R^d,

    polar(S) = { a >= 0 : <a, x> <= 1 for all x in S }.

polar_of_points enumerates the vertices of that polytope with the double
description method run on the homogenization

    C = { (a, t) : a >= 0, t >= 0, t - <x, a> >= 0 for all x in S },

starting from the orthant cone (whose extreme rays are the unit vectors) and
cutting with one point-constraint at a time. Rays with t > 0 scale to
vertices; rays with t = 0 are recession directions, which exist exactly when
some coordinate is unspanned by S (all points zero there). That case is
detected up front and reported as a status flag instead of a generator list.
Every ray carries its set of tight constraints; they decide adjacency and
which vertices are canonical, so no LP is solved here.

A canonical generator list is sorted, zero-free, and has no point under the
hull of the others and 0; object equality compares these lists. Connective
lists are canonical by construction and need only sort_generators;
reduce_generators handles user input and is the independent cross-check of
validate_object. It drops every point that lies under a single other point
by a componentwise comparison, and solves one LP per survivor only when
three or more survive.

Double description is only run up to ambient dimension 8; beyond that the
package raises CapabilityError (norm evaluation is designed to never need a
polar above that size).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapabilityError, DimensionError
from .lp import LpStatus, constraint, lp_feasible
from .rationals import Q0, VecQ, is_zero, unit, vec

DD_MAX_DIM = 8


def sort_generators(points: Iterable[VecQ]) -> tuple[VecQ, ...]:
    """Drop zero vectors and exact duplicates, then sort lexicographically."""
    return tuple(sorted(set(p for p in points if not is_zero(p))))


def reduce_generators(points: Iterable[VecQ]) -> tuple[VecQ, ...]:
    """Canonical form of an arbitrary generator set in the orthant.

    sort_generators, then removes every point that is coordinatewise
    dominated by a convex combination of the *other* points and 0. A point
    under one other point goes by comparison; if three or more survive,
    each gets one small feasibility LP against the other survivors (two
    survivors are incomparable, so both stay). Simultaneous removal is
    sound because the extreme points of the downward hull dominate
    everything else.
    """
    pts = sort_generators(points)
    kept = [
        p for p in pts
        if not any(g != p and all(a <= b for a, b in zip(p, g)) for g in pts)
    ]
    if len(kept) <= 2:
        return tuple(kept)
    return tuple(p for p in kept if not dominates([g for g in kept if g != p], p))


def dominates(points: Sequence[VecQ], x: VecQ) -> bool:
    """Is x <= some convex combination of points and 0 (coordinatewise)?"""
    if is_zero(x):
        return True
    k = len(points)
    if k == 0:
        return False
    d = len(x)
    cons = [constraint([g[c] for g in points], ">=", x[c]) for c in range(d)]
    cons.append(constraint([1] * k, "<=", 1))
    return lp_feasible(cons, k).status is LpStatus.OPTIMAL


class PolarResult(NamedTuple):
    """Either a vertex list (bounded polar) or the unspanned coordinates."""

    vertices: Optional[tuple[VecQ, ...]]
    unbounded_coords: tuple[int, ...]

    @property
    def bounded(self) -> bool:
        return self.vertices is not None


def polar_of_points(points: Iterable[VecQ], dim: int) -> PolarResult:
    """Canonical vertices of polar(points), or the unspanned coordinates.

    A vertex v is canonical exactly when the supports of the points tight at
    v (<p, v> = 1) cover every coordinate: otherwise some e >= 0, e != 0 is
    feasible at v and lifts v above the hull of the other vertices and 0.
    Double description already carries the tight sets, so no LP runs.
    """
    pts = [vec(p) for p in points]
    for p in pts:
        if len(p) != dim:
            raise DimensionError(dim, len(p), "polar input point")
        if any(x < 0 for x in p):
            raise ValueError(f"polar input must lie in the orthant, got {p}")
    if dim == 0:
        return PolarResult((), ())
    if dim > DD_MAX_DIM:
        raise CapabilityError(
            f"double description capped at dimension {DD_MAX_DIM}",
            f"requested dimension {dim}",
        )
    pts = list(dict.fromkeys(p for p in pts if not is_zero(p)))
    unspanned = tuple(c for c in range(dim) if all(p[c] == 0 for p in pts))
    if unspanned:
        return PolarResult(None, unspanned)
    supports = [frozenset(c for c, x in enumerate(p) if x) for p in pts]
    verts = []
    for v, tight in _dd_vertices(pts, dim):
        if len(frozenset().union(*(supports[i] for i in tight))) == dim:
            verts.append(v)
    return PolarResult(sort_generators(verts), ())


def polar_vertices(points: Iterable[VecQ], dim: int) -> tuple[VecQ, ...]:
    """polar_of_points, raising on an unbounded polar."""
    res = polar_of_points(points, dim)
    if not res.bounded:
        raise ValueError(
            f"polar is unbounded in coordinates {res.unbounded_coords} "
            "(generators do not span)"
        )
    return res.vertices


def bipolar(points: Iterable[VecQ], dim: int) -> tuple[VecQ, ...]:
    """Canonical generators of the closed downward hull: polar twice."""
    return polar_vertices(polar_vertices(points, dim), dim)


def _normalize_ray(r: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    s = sum(r, Q0)
    return tuple(x / s for x in r)  # rays here are nonneg and nonzero


def _dd_vertices(pts: list[VecQ], dim: int) -> list[tuple[VecQ, frozenset[int]]]:
    """Every vertex of polar(pts), with the indices of the points tight at it.

    Extreme rays of the homogenized polar cone, dehomogenized at t = 1.
    """
    n = dim + 1
    # Each ray carries the set of ids of constraints active at it.
    # Ids 0..dim are the orthant constraints (dim is the t >= 0 row);
    # dim+1+i is the i-th point constraint.
    rays = [(unit(n, k), frozenset(range(n)) - {k}) for k in range(n)]

    for i, p in enumerate(pts):
        cid = n + i
        p_nonzeros = [(c, x) for c, x in enumerate(p) if x]
        # Value of t - <p, a> at each ray, computed once per cut.
        pos, neg, new_rays = [], [], []
        for r, z in rays:
            val = r[-1] - sum(x * r[c] for c, x in p_nonzeros)
            if val.numerator > 0:
                pos.append((r, z, val))
                new_rays.append((r, z))
            elif val.numerator < 0:
                neg.append((r, z, val))
            else:
                new_rays.append((r, z | {cid}))

        all_zsets = [z for (_, z) in rays]
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                # Combinatorial adjacency: the only rays whose active sets
                # contain the common one are the pair itself. (Active sets
                # determine extreme rays, so counting is enough.) Adjacent
                # rays of a pointed cone in R^n share at least n - 2 active
                # constraints (Fukuda & Prodon 1996), a cheap first filter.
                if len(common) < n - 2:
                    continue
                if sum(1 for z in all_zsets if common <= z) != 2:
                    continue
                combo = tuple(vp * b - vn * a for a, b in zip(rp, rn))
                new_rays.append((_normalize_ray(combo), common | {cid}))
        # Dedupe rays (the adjacency test can produce a ray twice via
        # different pairs when degeneracies align).
        seen: dict[tuple[Fraction, ...], frozenset[int]] = {}
        for r, z in new_rays:
            seen[r] = seen.get(r, z) | z
        rays = list(seen.items())

    verts = []
    for r, z in rays:
        t = r[-1]
        assert t > 0, "recession ray survived the spanning pre-check"
        tight = frozenset(j - n for j in z if j >= n)
        verts.append((tuple(x / t for x in r[:-1]), tight))
    return verts

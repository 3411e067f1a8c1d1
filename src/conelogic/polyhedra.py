"""Polars of finite point sets in the nonnegative orthant, exactly.

The polar taken here is the one that drives every generator-side norm in the
package: for a finite S in the orthant of R^d,

    polar(S) = { a >= 0 : <a, x> <= 1 for all x in S }.

polar_of_points enumerates the vertices of that polytope with the double
description method run on the homogenization

    C = { (a, t) : a >= 0, t >= 0, t - <x, a> >= 0 for all x in S },

starting from the orthant cone (whose extreme rays are the unit vectors) and
cutting with one point-constraint at a time. The arithmetic is fraction-free:
each point is read once as an integer key over one common denominator, and
the keys are checked, deduped and sorted; each cut is the primitive integer
row of its key; rays are primitive integer vectors (the new ray of an
adjacent pair is divided by the gcd of its entries); and the canonical
vertices are sorted by integer keys over the lcm of their t's before they
become Fractions. Rays with t > 0 scale to vertices; rays with t = 0 are
recession directions, which exist exactly when some coordinate is unspanned
by S (all points zero there). That case is detected up front and reported
as a status flag instead of a generator list.

Every ray carries the bitmask of its tight constraints; the masks decide
adjacency, which vertices are canonical, and which input points are: a
point is canonical exactly when its cut defines a facet of the polar, that
is, when the set of vertices tight at it is inside no other point's. So the
same run gives both generator lists, and no LP is solved here.

A canonical generator list is sorted, zero-free, and has no point under the
hull of the others and 0; object equality compares these lists. Connective
lists are canonical by construction and need only sorting. A list whose
Fractions exist already is sorted as it is (sort_generators); one born as
integer keys over one denominator (a tensor's Kronecker pairs, the vertices
here) is sorted on the keys by sort_keys, which makes its Fractions last.
reduce_generators handles generator lists that come with no polar (both
sides given, symmetric powers) and is the independent cross-check of the
double description route in validate_object. It drops every point that lies
under a single other point by a componentwise comparison, and solves one LP
per survivor only when three or more survive.

Every generator list here must lie in the orthant; a point with a negative
entry is refused with a ValueError.

Double description is only run up to ambient dimension 8; beyond that the
package raises CapabilityError (norm evaluation is designed to never need a
polar above that size).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapabilityError, DimensionError
from .lp import LpStatus, constraint, lp_feasible
from .rationals import VecQ, int_keys, is_zero, vec

DD_MAX_DIM = 8


def sort_generators(points: Iterable[VecQ]) -> tuple[VecQ, ...]:
    """Drop zero vectors and exact duplicates, then sort lexicographically."""
    out: list[VecQ] = []
    for p in sorted(p for p in points if not is_zero(p)):
        if not out or p != out[-1]:
            out.append(p)
    return tuple(out)


def sort_keys(den: int, keys: Iterable[tuple[int, ...]]) -> tuple[VecQ, ...]:
    """sort_generators of the points key / den, run on the keys: with den > 0
    they sort and compare as the points do. Only the sorted list becomes
    Fractions, one normalized Fraction(n, den) per distinct numerator."""
    keys = sorted({k for k in keys if any(k)})
    frac = {n: Fraction(n, den) for n in {n for k in keys for n in k}}
    return tuple(tuple(map(frac.__getitem__, k)) for k in keys)


def _check_orthant(points: Iterable[VecQ]) -> None:
    for p in points:
        if any(x < 0 for x in p):
            raise ValueError(
                f"generators must lie in the orthant, got ({', '.join(map(str, p))})"
            )


def reduce_generators(points: Iterable[VecQ]) -> tuple[VecQ, ...]:
    """Canonical form of an arbitrary generator set in the orthant.

    sort_generators, then removes every point that is coordinatewise
    dominated by a convex combination of the *other* points and 0. A point
    under one other point goes by comparison; if three or more survive,
    each gets one small feasibility LP against the other survivors (two
    survivors are incomparable, so both stay). Simultaneous removal is
    sound because the extreme points of the downward hull dominate
    everything else. A point with a negative entry raises ValueError.
    """
    pts = sort_generators(points)
    _check_orthant(pts)
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
    """Either a vertex list (bounded polar) or the unspanned coordinates.

    kept is the canonical form of the input points (reduce_generators'
    list), read off the same double description run; None when unbounded.
    """

    vertices: Optional[tuple[VecQ, ...]]
    unbounded_coords: tuple[int, ...]
    kept: Optional[tuple[VecQ, ...]]

    @property
    def bounded(self) -> bool:
        return self.vertices is not None

    def checked(self) -> "PolarResult":
        """This result, or ValueError when the polar is unbounded."""
        if not self.bounded:
            raise ValueError(
                f"polar is unbounded in coordinates {self.unbounded_coords} "
                "(generators do not span)"
            )
        return self


def polar_of_points(points: Iterable[VecQ], dim: int) -> PolarResult:
    """Canonical vertices of polar(points) and the canonical input points,
    or the unspanned coordinates.

    A vertex v is canonical exactly when the supports of the points tight at
    v (<p, v> = 1) cover every coordinate: otherwise some e >= 0, e != 0 is
    feasible at v and lifts v above the hull of the other vertices and 0.
    An input point is canonical exactly when its cut defines a facet: its
    tight vertices are not all tight at another point's cut (an empty set
    is inside every other one; a lone point always defines a facet). By
    Farkas, a point under the hull of the others and 0 is one whose cut
    the other cuts and a >= 0 imply; the polar is full-dimensional, so that
    is one whose cut defines no facet. Such a cut's face misses 0, so it is
    not cut out by coordinate facets alone: a facet of another point
    contains it, and the orthant cuts need no tight sets. Double
    description carries the tight sets, so no LP runs.
    """
    pts = [vec(p) for p in points]
    for p in pts:
        if len(p) != dim:
            raise DimensionError(dim, len(p), "polar input point")
    den, keys = int_keys(pts)
    by_key = {}
    for p, key in zip(pts, keys):
        if any(x < 0 for x in key):
            _check_orthant([p])
        if any(key):
            by_key.setdefault(key, p)
    if dim == 0:
        return PolarResult((), (), ())
    if dim > DD_MAX_DIM:
        raise CapabilityError(
            f"double description capped at dimension {DD_MAX_DIM}",
            f"requested dimension {dim}",
        )
    keys = sorted(by_key)
    unspanned = tuple(c for c in range(dim) if not any(key[c] for key in keys))
    if unspanned:
        return PolarResult(None, unspanned, None)
    supports = [sum(1 << c for c, x in enumerate(key) if x) for key in keys]
    full = (1 << dim) - 1
    verts = []
    # The vertices tight at each point's cut, as bitmasks over vertex indices.
    point_tight = [0] * len(keys)
    for k, (r, tight) in enumerate(_dd_rays(den, keys, dim)):
        cover = 0
        for i in tight:
            point_tight[i] |= 1 << k
            cover |= supports[i]
        if cover == full:
            verts.append(r)
    kept = tuple(
        by_key[key] for i, (key, mine) in enumerate(zip(keys, point_tight))
        if not any(j != i and mine & z == mine for j, z in enumerate(point_tight))
    )
    # Vertex r[:-1]/t, keyed over the lcm of the t's: sorted and deduped in
    # integers, and only the canonical vertices become Fractions.
    big_t = lcm(*(r[-1] for r in verts))
    verts = sort_keys(big_t, [tuple(x * (big_t // r[-1]) for x in r[:-1]) for r in verts])
    return PolarResult(verts, (), kept)


def polar_vertices(points: Iterable[VecQ], dim: int) -> tuple[VecQ, ...]:
    """polar_of_points, raising on an unbounded polar."""
    return polar_of_points(points, dim).checked().vertices


def bipolar(points: Iterable[VecQ], dim: int) -> tuple[VecQ, ...]:
    """Canonical generators of the closed downward hull: polar twice."""
    return polar_vertices(polar_vertices(points, dim), dim)


def _dd_rays(den: int, keys: list[tuple[int, ...]], dim: int) -> list[tuple[tuple, list]]:
    """Every extreme ray of the homogenized polar cone of the points
    keys[i] / den, with the indices of the points tight at it.

    A ray is a primitive integer vector (a, t) with t > 0, since the
    spanning pre-check has passed; its vertex is a / t.
    """
    n = dim + 1
    # Each ray is a primitive nonnegative integer vector (its only
    # representative, so equal rays are equal tuples) with the bitmask of the
    # constraints active at it. Bits 0..dim are the orthant constraints (dim
    # is the t >= 0 row); bit dim+1+i is the i-th point constraint.
    rays = [
        (tuple(int(j == k) for j in range(n)), ((1 << n) - 1) ^ (1 << k))
        for k in range(n)
    ]

    for i, key in enumerate(keys):
        cid = 1 << (n + i)
        # t - <p, a> >= 0 as the primitive integer row of (den, key): the
        # lcm of p's own denominators times (1, p). Same sign, same tight
        # set, integer coefficients.
        g = gcd(den, *key)
        scale = den // g
        cut = [(c, x // g) for c, x in enumerate(key) if x]
        pos, neg, new_rays = [], [], []
        for r, z in rays:
            val = scale * r[-1] - sum(a * r[c] for c, a in cut)
            if val > 0:
                pos.append((r, z, val))
                new_rays.append((r, z))
            elif val < 0:
                neg.append((r, z, val))
            else:
                new_rays.append((r, z | cid))

        all_zsets = [z for (_, z) in rays]
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                # Combinatorial adjacency: the only rays whose active sets
                # contain the common one are the pair itself. (Active sets
                # determine extreme rays, so counting is enough.) Adjacent
                # rays of a pointed cone in R^n share at least n - 2 active
                # constraints (Fukuda & Prodon 1996), a cheap first filter.
                if common.bit_count() < n - 2:
                    continue
                if sum(1 for z in all_zsets if common & z == common) != 2:
                    continue
                combo = [vp * b - vn * a for a, b in zip(rp, rn)]
                g = gcd(*combo)
                new_rays.append((tuple(x // g for x in combo), common | cid))
        # Dedupe rays (the adjacency test can produce a ray twice via
        # different pairs when degeneracies align).
        seen: dict[tuple[int, ...], int] = {}
        for r, z in new_rays:
            seen[r] = seen.get(r, z) | z
        rays = list(seen.items())

    assert all(r[-1] > 0 for r, _ in rays), "recession ray survived the spanning pre-check"
    return [(r, [i for i in range(len(keys)) if z >> (n + i) & 1]) for r, z in rays]

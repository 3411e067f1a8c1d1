"""Bracketing oracle for suprema of nonnegative polynomials over simplices.

The recurring problem: maximize a polynomial with nonnegative coefficients
over a product of simplices (one block of variables per simplex, each block
constrained by t >= 0, sum t <= 1). Every norm bracket of a ball scheme
needs that sup (exponentials.BallScheme._bound is the one caller); it is a
non-convex program, so a point value would be a lie. Everything here
returns a certified bracket instead:

  lower   exact evaluation at explicit feasible rational points: a
          composition grid per block, scanned in integers (the
          polynomial's integer view scaled to integer values at grid
          points, so only the winning point becomes a Fraction), then the
          uniform center. The upper bound comes first, so the grid scan
          stops at the first point that reaches it, and the center is
          evaluated only while the bracket is still open (lower < upper):
          no feasible point exceeds the upper bound, so it could not
          change the result. Every candidate is compared by its exact
          value, so the bracket does not depend on the order of the
          polynomial's terms; no float is computed,

  upper   the largest Bernstein coefficient (Garloff 1986): on each
          block's face sum t = 1, multiply every term of block degree d by
          (sum of the block)^(top - d), top the block's largest degree, so
          the polynomial is homogeneous per block; its coefficients over
          the multinomials are then the Bernstein coefficients, whose basis
          sums to 1 on the faces by the multinomial theorem, so their max
          bounds p. It is never above the averaged bound it replaced (per
          degree profile, the largest coefficient-to-multinomial ratio,
          summed), for which averaged_upper keeps its name: the
          benchmark's tracer names it. Computed in integers on the integer
          view by a Horner cascade per block, with one Fraction at the
          end. A feasible value that reaches it is the sup, so
          exponentials.BallScheme runs the oracle only below it, handing
          in the bound it has, so each oracle run computes it once.

Degree <= 1 is solved exactly (vertex maximum), and the bracket collapses.
Since coefficients are nonnegative the sup is attained with every block on
its sum = 1 face, which is where the grid lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import ceil, comb, factorial, prod
from typing import Optional, Sequence

from .errors import NegativeCoefficientError
from .polynomials import Polynomial
from .rationals import Q0, Q1, VecQ


@dataclass(frozen=True)
class OracleParams:
    grid_resolution: Optional[int] = None  # None picks the finest that fits the cap
    candidate_cap: int = 20000

    def __post_init__(self):
        for name, least in (("grid_resolution", 1), ("candidate_cap", 0)):
            v = getattr(self, name)
            if name == "grid_resolution" and v is None:
                continue
            if type(v) is not int or v < least:
                raise ValueError(f"OracleParams.{name} must be an int >= {least}, got {v!r}")


DEFAULT_PARAMS = OracleParams()


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure lower <= sup <= upper, both exact rationals."""

    lower: Fraction
    upper: Fraction
    argmax: Optional[VecQ] = None  # the simplex point t achieving `lower`
    note: str = ""


def _check_blocks(poly: Polynomial, blocks: Sequence[int]) -> None:
    if sum(blocks) != poly.nvars:
        raise ValueError(f"blocks {tuple(blocks)} do not cover {poly.nvars} variables")
    if any(b < 1 for b in blocks):
        raise ValueError("empty simplex block")


def _check_nonnegative(poly: Polynomial) -> None:
    bad = poly.negative_term()
    if bad is not None:
        e, c = bad
        raise NegativeCoefficientError(
            f"monomial t^{e} has coefficient {c} < 0; the simplex oracle only "
            "brackets nonnegative-coefficient polynomials"
        )


def _block_slices(blocks: Sequence[int]) -> list[slice]:
    out, off = [], 0
    for b in blocks:
        out.append(slice(off, off + b))
        off += b
    return out


def averaged_upper(poly: Polynomial, blocks: Sequence[int]) -> Fraction:
    """The largest Bernstein coefficient, on the integer view. Block by
    block, with S the block's sum and p_d its part of block degree d,
    H = ((p_low S + p_low+1) S + ...) S + p_top in integers; then
    b_a = H_a prod a_i! / (L prod_b top_b!), so the terms compare by their
    integer numerators."""
    _check_blocks(poly, blocks)
    _check_nonnegative(poly)
    den, deg, view = poly.int_terms()
    if not view:
        return Q0
    h = {e: n for e, (n, _, _) in zip(poly.terms, view)}
    fact = [factorial(j) for j in range(deg + 1)]
    for s in _block_slices(blocks):
        parts: dict[int, dict[tuple[int, ...], int]] = {}
        for e, n in h.items():
            parts.setdefault(sum(e[s]), {})[e] = n
        top = max(parts)
        den *= fact[top]
        h = {}
        for d in range(min(parts), top + 1):
            up = parts.get(d, {})
            for e, n in h.items():  # up += h S
                for i in range(s.start, s.stop):
                    f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    up[f] = up.get(f, 0) + n
            h = up
    return Fraction(max(n * prod(map(fact.__getitem__, e)) for e, n in h.items()), den)


def _affine_sup(poly: Polynomial, blocks: Sequence[int]) -> tuple[Fraction, VecQ]:
    """Exact sup for total degree <= 1 (nonnegative coefficients)."""
    point = [Q0] * poly.nvars
    total = poly.constant_term()
    off = 0
    for b in blocks:
        best_c, best_i = Q0, None
        for i in range(off, off + b):
            e = [0] * poly.nvars
            e[i] = 1
            c = poly.terms.get(tuple(e), Q0)
            if c > best_c:
                best_c, best_i = c, i
        if best_i is not None:
            point[best_i] = Q1
            total += best_c
        off += b
    return total, tuple(point)


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _grid_resolution(blocks: Sequence[int], params: OracleParams) -> tuple[int, int]:
    """The grid resolution r and the number of grid points it gives."""
    if params.grid_resolution is not None:
        resolutions = [params.grid_resolution]
    else:
        resolutions = [10, 8, 6, 5, 4, 3, 2, 1]
    for r in resolutions:
        count = prod(comb(r + b - 1, b - 1) for b in blocks)
        if count <= params.candidate_cap:
            break
    return r, count


def _grid_argmax(
    poly: Polynomial,
    blocks: Sequence[int],
    r: int,
    cap: int,
    upper: Optional[Fraction] = None,
) -> tuple[Fraction, VecQ]:
    """Best of the first cap + 1 grid points k/r, scanned in integers.

    With the polynomial's integer view (L, D, terms), L r^D p(k/r) =
    sum_e (L c_e) r^(D - |e|) prod_i k_i^(e_i) is an integer, so points
    compare as integers; the first strict maximum wins (the zero point when
    no value is > 0), and only the winner becomes a Fraction.

    Given a certified upper bound U on the sup, the scan stops at the first
    point whose integer reaches ceil(U L r^D): no feasible point exceeds
    U, so that point is the maximum and the first strict one.
    """
    den, deg, view = poly.int_terms()
    terms = [(c * r**gap, factors) for c, gap, factors in view]
    powers = [[k**j for j in range(deg + 1)] for k in range(r + 1)]
    stop = None if upper is None else ceil(upper * den * r**deg)
    best, best_k = 0, (0,) * poly.nvars
    grid = product(*(_compositions(r, b) for b in blocks))
    for combo in islice(grid, cap + 1):
        k = sum(combo, ())
        total = 0
        for c, factors in terms:
            for i, j in factors:
                ki = k[i]
                if not ki:
                    break
                c *= powers[ki][j]
            else:
                total += c
        if total > best:
            best, best_k = total, k
            if stop is not None and total >= stop:
                break
    return Fraction(best, den * r**deg), tuple(Fraction(x, r) for x in best_k)


def simplex_polynomial_bounds(
    poly: Polynomial,
    blocks: Sequence[int],
    params: OracleParams = DEFAULT_PARAMS,
    upper: Optional[Fraction] = None,
) -> Bracket:
    """Bracket sup { poly(t) : per block, t >= 0 and sum t <= 1 }.

    upper, when given, is averaged_upper(poly, blocks), already computed
    by the caller (which has then checked the blocks and the signs)."""
    if upper is None:
        upper = averaged_upper(poly, blocks)  # checks the blocks and the signs once
    if poly.nvars == 0 or poly.total_degree() == 0:
        v = poly.constant_term()
        return Bracket(v, v, (Q0,) * poly.nvars, "constant")
    if poly.total_degree() <= 1:
        v, point = _affine_sup(poly, blocks)
        return Bracket(v, v, point, "affine vertex maximum")

    resolution, count = _grid_resolution(blocks, params)
    lower, argmax = _grid_argmax(
        poly, blocks, resolution, params.candidate_cap, upper
    )
    # Once lower == upper no candidate can beat lower, so the center is
    # evaluated only while the bracket is open; it helps a coarse grid.
    if count <= params.candidate_cap and lower < upper:
        center = tuple(Fraction(1, b) for b in blocks for _ in range(b))
        v = poly.eval_exact(center)
        if v > lower:
            lower, argmax = v, center
    if lower > upper:
        raise AssertionError(
            f"oracle inconsistency: lower {lower} exceeds upper {upper}"
        )
    return Bracket(lower, upper, argmax, f"grid 1/{resolution}")

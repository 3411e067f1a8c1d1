"""Multiset coordinates for symmetric tensor powers.

This module is the one home of the weight convention; everything graded
refers back here rather than restating it.

A symmetric degree-n tensor over dimension d keeps one coordinate per
size-n multiset mu of coordinate indices, holding the value the underlying
full tensor takes at any arrangement of mu (they all agree). Multisets are
sorted index tuples, enumerated in lexicographic order within a degree.

Convention, fixed once:

  * multiplicity(mu) = number of distinct arrangements of mu
    (n! divided by the product of the repetition factorials);

  * pairings between a symmetric functional f and a symmetric tensor z
    carry the multiplicity weight,

        <f, z> = sum_mu multiplicity(mu) * f_mu * z_mu,

    so that with z = (x)^n (coordinates x^mu) and f = (phi)^n,

        <f, z> = sum_mu multiplicity(mu) phi^mu x^mu = <phi, x>^n

    exactly, by the multinomial theorem;

  * a functional read as a one-variable function therefore expands as
    f(x) = sum_mu multiplicity(mu) * f_mu * x^mu, while a distribution
    delta_x has plain monomial coordinates x^mu with no weight;

  * linear maps act plainly on coordinate columns; weights never enter a
    matrix, only pairings and adjoints (the adjoint conjugates by them).

Graded objects stack degrees 0..N in degree-major order, so a truncated
series is one flat vector whose grade-n slice is the degree-n block.
graded_layout(dim, N) is the one table of those labels, their positions
and their weights; !A, ?A and Sym^n A all read it. prefix_products is the
one recurrence for products over it, behind the monomials of delta_x and,
stepped by _mset_mul, the columns of symmetric powers of a map
(sym_power_cols) and the lift delta_x -> delta_{f(x)} of an analytic map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, factorial
from operator import mul
from typing import Callable, Sequence

from .rationals import int_vector

Mset = tuple[int, ...]


def msets(dim: int, degree: int) -> tuple[Mset, ...]:
    """All size-`degree` multisets over range(dim), lexicographic; the empty
    multiset is the one of size 0, also over no coordinates."""
    return tuple(combinations_with_replacement(range(dim), degree))


def mset_count(dim: int, degree: int) -> int:
    if degree < 0:
        raise ValueError("negative degree")
    return comb(dim + degree - 1, degree) if degree else 1


def multiplicity(m: Mset) -> int:
    """Distinct arrangements of the sorted multiset, the pairing weight: n!
    divided by 1, 2, ..., k along each run of k equal entries, exactly."""
    out, run = factorial(len(m)), 1
    for a, b in zip(m, m[1:]):
        run = run + 1 if a == b else 1
        out //= run
    return out


def mset_union(*ms: Mset) -> Mset:
    return tuple(sorted(chain.from_iterable(ms)))


def prefix_products(lay: "Layout", factors: Sequence, times: Callable, one) -> list:
    """The product of factors[c] over c in m, left to right from one, for
    every label m of the degree-major table lay: each is times of its
    prefix m[:-1], one grade down and so already made, and factors[m[-1]].
    The one recurrence for products over the table: monomials x^m
    (monomial_values), polynomial monomials (polynomials.layout_products),
    symmetric powers (sym_power_cols) and analytic lifts."""
    index = lay.index
    out: list = []
    for m in lay.coords:
        out.append(times(out[index[m[:-1]]], factors[m[-1]]) if m else one)
    return out


def monomial_values(x, lay: "Layout") -> tuple[Fraction, ...]:
    """The monomial x^m = prod_{c in m} x_c for every label m of lay, in
    integers: x is scaled by the lcm D of its denominators, and coordinate m
    is one Fraction, its integer prefix product over D^|m|."""
    d, ks = int_vector(x)
    dens = [d**k for k in range(max(lay.grades) + 1)]
    prods = prefix_products(lay, ks, mul, 1)
    return tuple(Fraction(v, dens[k]) for v, k in zip(prods, lay.grades))


def _mset_mul(prod: dict[Mset, int], form, trunc: int) -> dict[Mset, int]:
    """The product of a form in y, kept as its y^nu coefficients, and a form
    of terms (multiset m, integer a): y^nu y^m is y^(nu + m), keyed by the
    sorted multiset (nu + m itself when already sorted, the common case of
    the lex-ordered table), and terms of degree above trunc are dropped."""
    out: dict[Mset, int] = {}
    for nu, s in prod.items():
        room = trunc - len(nu)
        for m, a in form:
            if len(m) <= room:
                key = tuple(sorted(nu + m)) if nu and m and m[0] < nu[-1] else nu + m
                out[key] = out.get(key, 0) + s * a
    return out


def sym_power_cols(view: tuple, dim_tgt: int, trunc: int) -> list[list]:
    """Grades 0..trunc of the symmetric powers of the map with integer view
    (L, icols) (Morphism.int_cols), from len(icols) coordinates to dim_tgt.
    Column mu, one per label of the source table graded_layout(len(icols),
    trunc), lists the nonzeros (position of nu in the target table,
    Fraction) of column mu of Sym^|mu|: S * multiplicity(mu) /
    multiplicity(nu), with S the coefficient of y^nu in the product of the
    columns in mu read as forms of one-element multisets (the multinomial
    theorem). The products are one prefix_products over the source table,
    in integers (_mset_mul), so zeros are never visited and each nonzero
    becomes one Fraction over L^|mu| at the end."""
    scale, icols = view
    src, tgt = graded_layout(len(icols), trunc), graded_layout(dim_tgt, trunc)
    tidx, tw = tgt.index, tgt.weights
    dens = [scale**n for n in range(trunc + 1)]
    forms = [[((r,), a) for r, a in col] for col in icols]
    prods = prefix_products(src, forms, lambda p, form: _mset_mul(p, form, trunc), {(): 1})
    return [
        [(tidx[nu], Fraction(s * m, tw[tidx[nu]] * dens[n])) for nu, s in p.items() if s]
        for p, m, n in zip(prods, src.weights, src.grades)
    ]


@dataclass(frozen=True)
class Layout:
    """Coordinate labels in an object's canonical order, with the grade and
    the pairing weight of each coordinate."""

    coords: tuple
    grades: tuple[int, ...]
    weights: tuple

    @cached_property
    def index(self) -> dict:
        """Label -> position."""
        return {lbl: i for i, lbl in enumerate(self.coords)}


@lru_cache(maxsize=None)
def graded_layout(dim: int, trunc: int) -> Layout:
    """The multisets of size <= trunc over range(dim), degree-major, with
    their integer multiplicities as weights. Grade n is the last block of
    graded_layout(dim, n), mset_count(dim, n) labels long."""
    coords = tuple(m for n in range(trunc + 1) for m in msets(dim, n))
    return Layout(
        coords,
        tuple(len(m) for m in coords),
        tuple(multiplicity(m) for m in coords),
    )

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
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, factorial

Mset = tuple[int, ...]


@lru_cache(maxsize=None)
def msets(dim: int, degree: int) -> tuple[Mset, ...]:
    """All size-`degree` multisets over range(dim), lexicographic."""
    if degree == 0:
        return ((),)
    if dim == 0:
        return ()
    return tuple(combinations_with_replacement(range(dim), degree))


@lru_cache(maxsize=None)
def mset_count(dim: int, degree: int) -> int:
    if degree == 0:
        return 1
    if dim == 0:
        return 0
    return comb(dim + degree - 1, degree)


@lru_cache(maxsize=None)
def mset_positions(dim: int, degree: int) -> dict[Mset, int]:
    return {m: i for i, m in enumerate(msets(dim, degree))}


@lru_cache(maxsize=None)
def multiplicity(m: Mset) -> int:
    """Distinct arrangements of the multiset; the pairing weight."""
    denom = 1
    for c in Counter(m).values():
        denom *= factorial(c)
    return factorial(len(m)) // denom


def mset_union(*ms: Mset) -> Mset:
    return tuple(sorted(chain.from_iterable(ms)))


def monomial_value(x, m: Mset) -> Fraction:
    v = Fraction(1)
    for c in m:
        v *= x[c]
    return v


@lru_cache(maxsize=None)
def graded_msets(dim: int, trunc: int) -> tuple[Mset, ...]:
    """Degree-major coordinate list for a truncated graded object."""
    out: list[Mset] = []
    for n in range(trunc + 1):
        out.extend(msets(dim, n))
    return tuple(out)


@lru_cache(maxsize=None)
def graded_count(dim: int, trunc: int) -> int:
    return sum(mset_count(dim, n) for n in range(trunc + 1))

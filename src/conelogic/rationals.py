"""Exact rational vectors and matrices.

Vectors are tuples of Fraction, matrices are tuples of row tuples. Plain
immutable tuples keep equality and hashing exact and structural, which the
rest of the package leans on (generator lists are deduplicated and sorted,
objects compare by canonical generator lists). All arithmetic is exact; no
floats enter here. Hot loops run in integers (int_vector, int_keys,
max_pairing).

The zero-dimensional vector () is legal: the additive zero object lives in
dimension 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, str, Fraction]
VecQ = tuple[Fraction, ...]
MatQ = tuple[VecQ, ...]
IntRows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


def q(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(xs: Iterable[Scalar]) -> VecQ:
    return tuple(x if type(x) is Fraction else q(x) for x in xs)


def mat(rows: Iterable[Iterable[Scalar]]) -> MatQ:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zeros(n: int) -> VecQ:
    return (Q0,) * n


def unit(n: int, i: int) -> VecQ:
    return tuple(Q1 if j == i else Q0 for j in range(n))


def transpose(m: MatQ) -> MatQ:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def is_zero(a: VecQ) -> bool:
    return all(x == 0 for x in a)


def int_vector(xs: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm m of the denominators (an int's is 1), and the vector times m."""
    m = lcm(*(x.denominator for x in xs))
    return m, [x.numerator * (m // x.denominator) for x in xs]


def int_keys(points: Sequence[VecQ]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm den of every denominator, and each point times den: integer
    keys that order, compare and sign exactly as the points do."""
    den = lcm(*(x.denominator for p in points for x in p))
    return den, [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def int_rows(points: Iterable[VecQ]) -> IntRows:
    """Each point z as (D, ((c, D z_c) for each nonzero z_c)), with D the
    lcm of its denominators."""
    rows = map(int_vector, points)
    return tuple((d, tuple((c, n) for c, n in enumerate(ns) if n)) for d, ns in rows)


def int_max_pairing(a: Sequence[int], rows: IntRows) -> tuple[int, int, Optional[int]]:
    """The core of max_pairing on an integer vector a: (s, d, i) with s/d
    the largest of 0 and sum_c a_c n_c / D over the rows (D, n), and i the
    index of the first strict maximum (None when no row is positive)."""
    best_s, best_d, arg = 0, 1, None
    for i, (d, nz) in enumerate(rows):
        v = sum(a[c] * n for c, n in nz)
        if v * best_d > best_s * d:
            best_s, best_d, arg = v, d, i
    return best_s, best_d, arg


def max_pairing(k: VecQ, rows: IntRows) -> tuple[Fraction, Optional[int]]:
    """max(0, max over rows z of sum_c k_c z_c), with the index of the first
    strict maximum (None when no row is positive). With k = a/L and z = n/D
    the value is (a . n)/(L D), so rows compare by cross-multiplying."""
    big_l, a = int_vector(k)
    s, d, arg = int_max_pairing(a, rows)
    return Fraction(s, big_l * d), arg

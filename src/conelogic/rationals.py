"""Exact rational vectors and matrices.

Vectors are tuples of Fraction, matrices are tuples of row tuples. Plain
immutable tuples keep equality and hashing exact and structural, which the
rest of the package leans on (generator lists are deduplicated and sorted,
objects compare by canonical generator lists). All arithmetic is exact; no
floats enter here.

The zero-dimensional vector () is legal: the additive zero object lives in
dimension 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, str, Fraction]
VecQ = tuple[Fraction, ...]
MatQ = tuple[VecQ, ...]

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


def eye(n: int) -> MatQ:
    return tuple(unit(n, i) for i in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        from .errors import DimensionError

        raise DimensionError(len(a), len(b), "dot")
    return sum((x * y for x, y in zip(a, b)), Q0)


def add(a: VecQ, b: VecQ) -> VecQ:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: VecQ, b: VecQ) -> VecQ:
    return tuple(x - y for x, y in zip(a, b))


def scale(c: Scalar, a: VecQ) -> VecQ:
    cq = q(c)
    return tuple(cq * x for x in a)


def mat_vec(m: MatQ, x: VecQ) -> VecQ:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: MatQ, b: MatQ) -> MatQ:
    """Exact product a b, dense in and out, formed row by row from the nonzero
    products a[i][k] * b[k][j] only (Gustavson, ACM TOMS 1978): the cost is
    proportional to their number, not to rows x inner x columns. An empty b
    has no column count, so inner dimension 0 gives rows of length 0."""
    if a and len(a[0]) != len(b):
        from .errors import DimensionError

        raise DimensionError(len(a[0]), len(b), "mat_mul")
    cols = range(len(b[0])) if b else range(0)
    b_nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc: dict[int, Fraction] = {}
        for k, x in enumerate(row):
            if x:
                for j, y in b_nonzeros[k]:
                    acc[j] = acc.get(j, Q0) + x * y
        out.append(tuple(acc.get(j, Q0) for j in cols))
    return tuple(out)


def transpose(m: MatQ) -> MatQ:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def kron_vec(a: VecQ, b: VecQ) -> VecQ:
    """Kronecker product; coordinate (i, j) lands at index i*len(b) + j."""
    return tuple(x * y for x in a for y in b)


def kron_mat(a: MatQ, b: MatQ) -> MatQ:
    """Kronecker product of matrices, row-major on both index pairs."""
    if not a or not b:
        return ()
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(len(b))
    )


def is_zero(a: VecQ) -> bool:
    return all(x == 0 for x in a)

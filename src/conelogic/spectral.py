"""The spectral backend's arithmetic, in exact rationals.

backends.qcs_object is the n x n real symmetric PSD cone, the one cone here
that is not a lattice. Matrices are MatQ. Membership is psd_test, an exact
symmetric elimination with a rational witness; the trace norm (one side)
and the pairing tr(LM) are exact; the operator norm (the other side),
lambda_max, is algebraic, so qcs_op_norm returns a certified oracle.Bracket.
An object is read through its spectral_n and spectral_trace_primal fields
alone, so this module imports nothing from cones, which calls it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, MembershipError
from .oracle import Bracket
from .rationals import MatQ, Q0, Q1, VecQ, unit

OP_NORM_STEPS = 32  # the most u that qcs_op_norm tests


def as_matrix(a, x: Sequence) -> MatQ:
    """The flattened element x of the spectral object a as its n x n matrix."""
    n = a.spectral_n
    if len(x) != n * n:
        raise DimensionError(n * n, len(x), "spectral element")
    return tuple(tuple(x[i : i + n]) for i in range(0, n * n, n))


def _quad(m: MatQ, v: VecQ) -> Fraction:
    return sum(x * sum(c * y for c, y in zip(row, v)) for x, row in zip(v, m))


def _shift(m: MatQ, u: Fraction) -> MatQ:
    return tuple(tuple((u if i == j else 0) - c for j, c in enumerate(r)) for i, r in enumerate(m))


def psd_test(m: MatQ) -> tuple[bool, Optional[VecQ]]:
    """Whether the symmetric m is PSD, with a witness v: v^T m v < 0 if it
    is not, m v = 0 if it is PSD but singular, None if it is definite.

    Eliminates on positive diagonal pivots. The block that remains has no
    positive diagonal entry, so it is PSD only if it is 0; else its first
    nonzero entry (i, j) gives v = e_i, or e_i -+ e_j with v^T m v < 0. v
    maps back through each pivot row k, last first, by x_k = -(row . x) /
    pivot, which keeps v^T m v and m v = 0."""
    n = len(m)
    a = [list(map(Fraction, row)) for row in m]
    live = list(range(n))
    pivots = []
    while (k := next((k for k in live if a[k][k] > 0), None)) is not None:
        live.remove(k)
        row = [(j, a[k][j]) for j in live if a[k][j]]
        for i, c in row:
            f = c / a[k][k]
            for j, d in row:
                a[i][j] -= f * d
        pivots.append((k, row, a[k][k]))
    bad = next(((i, j) for i in live for j in live if a[i][j]), None)
    if bad is None and not live:
        return True, None
    i, j = bad or (live[0], live[0])
    x = [Q0] * n
    x[i] = Q1
    if j != i:
        x[j] = -Q1 if a[i][j] > 0 else Q1
    for k, row, p in reversed(pivots):
        x[k] = -sum(c * x[j] for j, c in row) / p
    return bad is None, tuple(x)


def qcs_check_psd(m: MatQ) -> None:
    """Raise if m is not symmetric, or not PSD (witness v: v^T m v < 0)."""
    if any(m[i][j] != m[j][i] for i in range(len(m)) for j in range(i)):
        raise MembershipError("matrix is not symmetric")
    psd, v = psd_test(m)
    if not psd:
        raise MembershipError(f"matrix is not PSD: v^T m v = {_quad(m, v)} < 0", witness=v)


def qcs_trace_norm(m: MatQ) -> Fraction:
    """Trace norm of a PSD matrix: sum of eigenvalues = trace."""
    qcs_check_psd(m)
    return sum((row[i] for i, row in enumerate(m)), Q0)


def qcs_op_norm(m: MatQ) -> Bracket:
    """Operator norm lambda_max of a PSD matrix, bracketed: lower is the
    Rayleigh quotient of the witness in argmax, upper a u with uI - m PSD.

    From the largest diagonal entry below and the largest absolute row sum
    above (Gershgorin), it tests u = the upper end, then the midpoint of the
    last failed u and the upper end. A pass lowers the upper end to u; a
    singular one gives a null vector of quotient u, which closes the
    bracket. A failure's witness has a quotient above u. The u keep to their
    own grid: the quotients' denominators grow too fast to bisect on."""
    qcs_check_psd(m)
    i = max(range(len(m)), key=lambda i: m[i][i])
    lower, witness, failed = m[i][i], unit(len(m), i), m[i][i]
    upper = u = max(sum(map(abs, row)) for row in m)
    for _ in range(OP_NORM_STEPS):
        if lower == upper:
            break
        psd, v = psd_test(_shift(m, u))
        if psd:
            upper = u
            if v is not None:
                lower, witness = u, v
        else:
            failed, q = u, _quad(m, v) / sum(c * c for c in v)
            if q > lower:
                lower, witness = q, v
        u = (failed + upper) / 2
    return Bracket(lower, upper, witness, "Rayleigh quotient below, uI - m PSD above")


def qcs_pair(l: MatQ, m: MatQ) -> Fraction:
    """tr(lm)."""
    return sum((c * m[j][i] for i, row in enumerate(l) for j, c in enumerate(row)), Q0)


def qcs_duality_report(m: MatQ) -> dict:
    """Check both norm-duality identities exactly. The trace norm is
    attained on the operator-norm ball at L = I, of operator norm 1. The
    bracket's lower end is attained on the trace-norm ball at L = v v^T /
    v^T v (PSD, trace 1) for its witness v; uI - m is PSD at its upper end."""
    eye = tuple(unit(len(m), i) for i in range(len(m)))
    one, br = qcs_op_norm(eye), qcs_op_norm(m)
    trace_ok = one.lower == one.upper == 1 and qcs_pair(eye, m) == qcs_trace_norm(m)
    v, vv = br.argmax, sum(c * c for c in br.argmax)
    l = tuple(tuple(a * b / vv for b in v) for a in v)
    op_ok = psd_test(l)[0] and qcs_pair(eye, l) == 1 and qcs_pair(l, m) == br.lower
    op_ok = op_ok and psd_test(_shift(m, br.upper))[0]
    return {"op_norm": br, "trace_ok": trace_ok, "op_ok": op_ok, "passed": trace_ok and op_ok}


def spectral_norm_bounds(a, x: Sequence) -> Bracket:
    """x's primal norm in a: the exact trace norm, or the operator norm's bracket."""
    m = as_matrix(a, x)
    if not a.spectral_trace_primal:
        return qcs_op_norm(m)
    t = qcs_trace_norm(m)
    return Bracket(t, t)


def rand_psd(r: random.Random, n: int) -> tuple[MatQ, Fraction]:
    """G Gᵀ for a random small rational G, and its trace, the sum of g_ij^2."""
    g = [[Fraction(r.randint(-4, 4), r.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    m = tuple(tuple(sum((a * b for a, b in zip(gi, gj)), Q0) for gj in g) for gi in g)
    return m, sum((c * c for row in g for c in row), Q0)

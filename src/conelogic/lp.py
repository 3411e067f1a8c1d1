"""Exact linear programming over the rationals.

Every LP the package poses is the sup of a linear functional over a
polyhedron in the orthant, so that is the one shape solved here:
maximize c . x over x >= 0 subject to rows a . x <= b and a . x >= b.
Entries are exact Python ints or Fractions, kept as the caller built them;
a row with b < 0 is negated and its relation flipped, so every rhs is
nonnegative. A <= row starts basic on its slack, a >= row on an
artificial that phase 1 drives out; other relations (== included) are
refused by Constraint.

Two-phase dense-tableau simplex with Bland's anti-cycling rule, run
fraction-free (Bareiss 1968, as in Avis's lrs). Each constraint row is
scaled with its rhs to integers by the lcm of its denominators (an int's
is 1); slacks and artificials are not scaled, and each row's basic column
has coefficient 1, so the starting basis is the identity and the common
denominator d starts at 1. The objective row is scaled by
the lcm L of its own denominators. From then on every tableau entry is d
times its rational value and every objective entry d L times it, so the
tableau is Python integers throughout.

A pivot on p = tableau[r][k] replaces each other row x by
(p x - x[k] prow) / d and then sets d = p. The division is exact: every
entry is a minor of the scaled integer system, d is the determinant of the
current basis, and Sylvester's identity makes the new minors the old ones
times p over d. A pivot on a negative entry (only the phase-1 drive-out
makes one) flips every sign so that d stays positive. Only the optimum,
-obj / (d L), and the witness entries become Fractions.

Bland's rule: entering variable is the lowest-index column with positive
reduced cost; leaving row is the minimum-ratio row, ties broken by lowest
basic variable index. This guarantees termination without perturbation.
Signs are those of the rational tableau (d, L > 0), ratios are compared by
cross-multiplying, and scaling a row or a slack by a positive factor moves
no sign and no ratio order, so the pivot sequence, the optimum and the
witness are the same as a Fraction tableau's, bit for bit.

Scale: dense tableaus are fine for the desk-scale problems this package
generates (tens of variables and constraints), and exactness is a hard
requirement that rules out float LP solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionError
from .rationals import int_vector

Exact = int | Fraction
Row = tuple[Exact, ...]


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


_RELS = ("<=", ">=")


@dataclass(frozen=True)
class Constraint:
    coeffs: Row
    rel: str
    rhs: Exact

    def __post_init__(self):
        if self.rel not in _RELS:
            raise ValueError(f"bad relation {self.rel!r}; use one of {_RELS}")


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x over x >= 0 subject to the <= and >= rows.

    Entries are exact ints or Fractions; the solver scales each row with its
    rhs to integers by the lcm of its denominators.
    """

    objective: Row
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        n = len(self.objective)
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise DimensionError(n, len(c.coeffs), "constraint row")


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Fraction | None
    witness: tuple[Fraction, ...] | None


def constraint(coeffs: Sequence[Exact], rel: str, rhs: Exact) -> Constraint:
    return Constraint(tuple(coeffs), rel, rhs)


def problem(objective: Sequence[Exact], constraints: Sequence[Constraint]) -> LpProblem:
    return LpProblem(tuple(objective), tuple(constraints))


def _pivot(tableau: list[list[int]], obj: list[int], row: int, col: int, d: int) -> int:
    """Fraction-free pivot on tableau[row][col]; returns the new d.

    Every other row r becomes (p r - f prow) / d with f = r[col]; the
    division is exact (Bareiss), and the pivot row is left as it is, as is
    a row with f = 0 when p = d. A negative pivot flips every sign, so the
    returned d is positive.
    """
    prow = tableau[row]
    p = prow[col]
    for i, r in enumerate(tableau):
        if i != row:
            f = r[col]
            if f:
                tableau[i] = [(p * a - f * b) // d for a, b in zip(r, prow)]
            elif p != d:
                tableau[i] = [p * a // d for a in r]
    f = obj[col]
    if f:
        obj[:] = [(p * a - f * b) // d for a, b in zip(obj, prow)]
    elif p != d:
        obj[:] = [p * a // d for a in obj]
    if p < 0:
        for i, r in enumerate(tableau):
            tableau[i] = [-a for a in r]
        obj[:] = [-a for a in obj]
        p = -p
    return p


def _simplex(
    tableau: list[list[int]], obj: list[int], basis: list[int], d: int
) -> tuple[LpStatus, int]:
    """Run Bland-rule pivots until optimal or unbounded; returns the status
    and the final d.

    obj holds d L times the reduced costs, with obj[-1] = -d L (current
    objective value), for the objective's scale L.
    """
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return LpStatus.OPTIMAL, d
        leave = -1
        best_rhs = best_a = 0
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                # rhs_i / a < best_rhs / best_a, cross-multiplied (a, best_a > 0)
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    best_rhs, best_a = row[-1], a
                    leave = i
        if leave < 0:
            return LpStatus.UNBOUNDED, d
        d = _pivot(tableau, obj, leave, enter, d)
        basis[leave] = enter


def lp_maximize(prob: LpProblem) -> LpResult:
    n = len(prob.objective)

    # Normalize constraints to nonnegative right-hand sides, and scale each
    # row with its rhs to integers.
    rows: list[list[int]] = []
    ges: list[bool] = []
    scales: list[int] = []
    for c in prob.constraints:
        row = [*c.coeffs, c.rhs]
        ge = c.rel == ">="
        if c.rhs < 0:
            row = [-x for x in row]
            ge = not ge
        scale, ints = int_vector(row)
        rows.append(ints)
        ges.append(ge)
        scales.append(scale)

    # Row i has slack column n + i; each >= row also has an artificial,
    # from column n + m on. The basic column of every row has coefficient
    # 1 in the scaled row, so the starting basis is the identity and d = 1.
    m = len(rows)
    art_rows = [i for i in range(m) if ges[i]]
    art_cols = range(n + m, n + m + len(art_rows))
    total = art_cols.stop
    tableau: list[list[int]] = []
    basis: list[int] = []
    d = 1
    a_at = n + m
    for i in range(m):
        row = rows[i][:-1] + [0] * (total - n) + [rows[i][-1]]
        if ges[i]:
            row[n + i] = -1
            row[a_at] = 1
            basis.append(a_at)
            a_at += 1
        else:
            row[n + i] = 1
            basis.append(n + i)
        tableau.append(row)

    if art_rows:
        # Phase 1: maximize -(sum of the unscaled artificials); feasible iff
        # the optimum is 0. Row i is its unscaled row times scales[i], so
        # with L the lcm of these scales the objective row (times L) is the
        # sum of L / scales[i] times the scaled rows; the artificial
        # columns cancel to 0.
        common = lcm(*(scales[i] for i in art_rows))
        obj1 = [0] * (total + 1)
        for i in art_rows:
            k = common // scales[i]
            obj1 = [x + k * y for x, y in zip(obj1, tableau[i])]
        for a in art_cols:
            obj1[a] = 0
        status, d = _simplex(tableau, obj1, basis, d)
        assert status is LpStatus.OPTIMAL  # phase 1 is bounded above by 0
        if obj1[-1] != 0:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # Drive any artificial still basic (at level 0) out of the basis.
        drop_rows: list[int] = []
        for i in range(m):
            if basis[i] in art_cols:
                piv_col = next((j for j in range(n + m) if tableau[i][j] != 0), -1)
                if piv_col < 0:
                    drop_rows.append(i)  # redundant constraint
                else:
                    d = _pivot(tableau, obj1, i, piv_col, d)
                    basis[i] = piv_col
        for i in reversed(drop_rows):
            del tableau[i]
            del basis[i]
        m = len(tableau)
        # Blank artificial columns so they can never re-enter.
        for row in tableau:
            for a in art_cols:
                row[a] = 0

    # Phase 2 objective: d L times the reduced costs relative to the
    # current basis, with L the lcm of the cost denominators.
    obj_scale, cost = int_vector(prob.objective)
    cost += [0] * (total - n)
    obj2 = [d * c for c in cost] + [0]
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            obj2 = [x - cb * y for x, y in zip(obj2, tableau[i])]
    for a in art_cols:
        obj2[a] = 0
    status, d = _simplex(tableau, obj2, basis, d)
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, None, None)

    values = [0] * total
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    witness = tuple(Fraction(v, d) for v in values[:n])
    return LpResult(LpStatus.OPTIMAL, Fraction(-obj2[-1], d * obj_scale), witness)


def lp_minimize(prob: LpProblem) -> LpResult:
    res = lp_maximize(LpProblem(tuple(-c for c in prob.objective), prob.constraints))
    if res.status is LpStatus.OPTIMAL:
        return LpResult(res.status, -res.value, res.witness)
    return res


def lp_feasible(constraints: Sequence[Constraint], n: int) -> LpResult:
    """Feasibility check: maximize 0 under the constraints."""
    return lp_maximize(LpProblem((0,) * n, tuple(constraints)))

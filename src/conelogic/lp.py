"""Exact linear programming over the rationals.

Two-phase dense-tableau simplex with Bland's anti-cycling rule, run
fraction-free (Bareiss 1968, as in Avis's lrs). Each constraint row is
scaled with its rhs to integers by the lcm of its denominators; its slack
(and artificial) keeps coefficient 1, so the starting basis is the identity
and the common denominator d starts at 1. The objective row is scaled by
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
from .rationals import Q0, Scalar, VecQ, int_vector, q, vec


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


REL_LE = "<="
REL_EQ = "=="
REL_GE = ">="
_RELS = (REL_LE, REL_EQ, REL_GE)


@dataclass(frozen=True)
class Constraint:
    coeffs: VecQ
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _RELS:
            raise ValueError(f"bad relation {self.rel!r}; use one of {_RELS}")


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x subject to constraints; nonneg flags per variable.

    A variable with nonneg False is free (internally split into a difference
    of two nonnegative variables).
    """

    objective: VecQ
    constraints: tuple[Constraint, ...]
    nonneg: tuple[bool, ...] = ()

    def __post_init__(self):
        n = len(self.objective)
        if not self.nonneg:
            object.__setattr__(self, "nonneg", (True,) * n)
        if len(self.nonneg) != n:
            raise DimensionError(n, len(self.nonneg), "nonneg flags")
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise DimensionError(n, len(c.coeffs), "constraint row")


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Fraction | None
    witness: VecQ | None


def constraint(coeffs: Sequence[Scalar], rel: str, rhs: Scalar) -> Constraint:
    return Constraint(vec(coeffs), rel, q(rhs))


def problem(
    objective: Sequence[Scalar],
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool] = (),
) -> LpProblem:
    return LpProblem(vec(objective), tuple(constraints), tuple(nonneg))


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
    n_orig = len(prob.objective)

    # Split free variables: column map sends original j to one or two columns.
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(n_orig):
        if prob.nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(row: Sequence[Fraction]) -> list[Fraction]:
        out = [Q0] * ncols
        for j, x in enumerate(row):
            pos, neg = col_of[j]
            out[pos] = x
            if neg is not None:
                out[neg] = -x
        return out

    # Normalize constraints to nonnegative right-hand sides, and scale each
    # row with its rhs to integers.
    rows: list[list[int]] = []
    rels: list[str] = []
    scales: list[int] = []
    for c in prob.constraints:
        row = expand(c.coeffs) + [c.rhs]
        rel = c.rel
        if c.rhs < 0:
            row = [-x for x in row]
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        scale, ints = int_vector(row)
        rows.append(ints)
        rels.append(rel)
        scales.append(scale)

    m = len(rows)
    n_slack = sum(1 for r in rels if r in (REL_LE, REL_GE))
    n_art = sum(1 for r in rels if r in (REL_EQ, REL_GE))
    total = ncols + n_slack + n_art

    # Slacks and artificials keep coefficient 1 in the scaled rows, so the
    # starting basis is the identity and d = 1.
    tableau: list[list[int]] = []
    basis: list[int] = []
    d = 1
    s_at = ncols
    a_at = ncols + n_slack
    art_cols: list[int] = []
    art_rows: list[int] = []
    for i in range(m):
        row = rows[i][:-1] + [0] * (n_slack + n_art) + [rows[i][-1]]
        if rels[i] == REL_LE:
            row[s_at] = 1
            basis.append(s_at)
            s_at += 1
        elif rels[i] == REL_GE:
            row[s_at] = -1
            s_at += 1
            row[a_at] = 1
            basis.append(a_at)
            art_cols.append(a_at)
            art_rows.append(i)
            a_at += 1
        else:
            row[a_at] = 1
            basis.append(a_at)
            art_cols.append(a_at)
            art_rows.append(i)
            a_at += 1
        tableau.append(row)

    if art_cols:
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
        art_set = set(art_cols)
        drop_rows: list[int] = []
        for i in range(m):
            if basis[i] in art_set:
                piv_col = next(
                    (j for j in range(ncols + n_slack) if tableau[i][j] != 0), -1
                )
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
    obj_scale, cost = int_vector(expand(prob.objective))
    cost += [0] * (n_slack + n_art)
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
    witness = []
    for j in range(n_orig):
        pos, neg = col_of[j]
        witness.append(Fraction(values[pos] - (values[neg] if neg is not None else 0), d))
    return LpResult(LpStatus.OPTIMAL, Fraction(-obj2[-1], d * obj_scale), tuple(witness))


def lp_minimize(prob: LpProblem) -> LpResult:
    res = lp_maximize(
        LpProblem(tuple(-c for c in prob.objective), prob.constraints, prob.nonneg)
    )
    if res.status is LpStatus.OPTIMAL:
        return LpResult(res.status, -res.value, res.witness)
    return res


def lp_feasible(constraints: Sequence[Constraint], n: int, nonneg: Sequence[bool] = ()) -> LpResult:
    """Feasibility check: maximize 0 under the constraints."""
    return lp_maximize(LpProblem(vec([0] * n), tuple(constraints), tuple(nonneg)))

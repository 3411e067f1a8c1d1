"""Exact linear programming over the rationals.

Two-phase dense-tableau simplex with Bland's anti-cycling rule. Everything is
a Fraction: the returned optimum and witness are exact, and the algorithm is
deterministic, so repeated runs (and the norms built on top) are reproducible
bit for bit.

Bland's rule: entering variable is the lowest-index column with positive
reduced cost; leaving row is the minimum-ratio row, ties broken by lowest
basic variable index. This guarantees termination without perturbation.

Scale: dense tableaus of Fractions are fine for the desk-scale problems this
package generates (tens of variables and constraints), and exactness is a
hard requirement that rules out float LP solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .rationals import Q0, Q1, Scalar, VecQ, q, vec


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


def _pivot(tableau: list[list[Fraction]], obj: list[Fraction], row: int, col: int) -> None:
    prow = tableau[row]
    inv = Q1 / prow[col]
    cols = [j for j, x in enumerate(prow) if x]
    for j in cols:
        prow[j] *= inv
    for r in tableau:
        f = r[col]
        if f and r is not prow:
            for j in cols:
                r[j] -= f * prow[j]
    f = obj[col]
    if f:
        for j in cols:
            obj[j] -= f * prow[j]


def _simplex(
    tableau: list[list[Fraction]], obj: list[Fraction], basis: list[int]
) -> LpStatus:
    """Run Bland-rule pivots until optimal or unbounded.

    obj holds reduced costs with obj[-1] = -(current objective value).
    """
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return LpStatus.OPTIMAL
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return LpStatus.UNBOUNDED
        _pivot(tableau, obj, leave, enter)
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

    # Normalize constraints to nonnegative right-hand sides.
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    for c in prob.constraints:
        row = expand(c.coeffs)
        rel, rhs = c.rel, c.rhs
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        rows.append(row)
        rels.append(rel)
        rhss.append(rhs)

    m = len(rows)
    n_slack = sum(1 for r in rels if r in (REL_LE, REL_GE))
    n_art = sum(1 for r in rels if r in (REL_EQ, REL_GE))
    total = ncols + n_slack + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    s_at = ncols
    a_at = ncols + n_slack
    art_cols: list[int] = []
    for i in range(m):
        row = rows[i] + [Q0] * (n_slack + n_art) + [rhss[i]]
        if rels[i] == REL_LE:
            row[s_at] = Q1
            basis.append(s_at)
            s_at += 1
        elif rels[i] == REL_GE:
            row[s_at] = -Q1
            s_at += 1
            row[a_at] = Q1
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        else:
            row[a_at] = Q1
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        tableau.append(row)

    if art_cols:
        # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
        obj1 = [Q0] * (total + 1)
        for a in art_cols:
            obj1[a] = -Q1
        for i in range(m):
            if basis[i] in art_cols:
                obj1 = [x + y for x, y in zip(obj1, tableau[i])]
        status = _simplex(tableau, obj1, basis)
        assert status is LpStatus.OPTIMAL  # phase 1 is bounded above by 0
        if obj1[-1] != 0:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # Drive any artificial still basic (at level 0) out of the basis.
        art_set = set(art_cols)
        drop_rows: list[int] = []
        for i in range(m):
            if basis[i] in art_set:
                piv_col = next(
                    (
                        j
                        for j in range(ncols + n_slack)
                        if tableau[i][j] != 0
                    ),
                    -1,
                )
                if piv_col < 0:
                    drop_rows.append(i)  # redundant constraint
                else:
                    _pivot(tableau, obj1, i, piv_col)
                    basis[i] = piv_col
        for i in reversed(drop_rows):
            del tableau[i]
            del basis[i]
        m = len(tableau)
        # Blank artificial columns so they can never re-enter.
        for row in tableau:
            for a in art_cols:
                row[a] = Q0

    # Phase 2 objective: reduced costs relative to the current basis.
    cost = expand(prob.objective) + [Q0] * (n_slack + n_art)
    obj2 = list(cost) + [Q0]
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            obj2 = [x - cb * y for x, y in zip(obj2, tableau[i])]
    for a in art_cols:
        obj2[a] = Q0
    status = _simplex(tableau, obj2, basis)
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, None, None)

    values = [Q0] * total
    for i in range(m):
        values[basis[i]] = tableau[i][-1]
    witness = []
    for j in range(n_orig):
        pos, neg = col_of[j]
        witness.append(values[pos] - (values[neg] if neg is not None else Q0))
    return LpResult(LpStatus.OPTIMAL, -obj2[-1], tuple(witness))


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

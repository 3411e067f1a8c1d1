"""Float recomputation of the program's answers, made apart from it.

Nothing here imports conelogic. Norms of MALL formulas are recomputed from
the definitions:

    atom a         primal ball = downward hull of the given points P,
                   dual ball = its polar, whose vertices Q are found by brute
                   force (every choice of d active constraints);
    a^             swaps the two balls;
    a & b, a + b   max and sum of the component norms (and dually);
    a * b          primal norm = sup <F, s> over F >= 0 with
                   F(u, v) <= 1 for u in P(a), v in P(b), an LP solved by
                   scipy's HiGHS; dual norm = max F(u, v);
    a | b, a -o b  through duality: a | b = (a^ * b^)^, a -o b = (a * b^)^.

Elements of a (x) b are da x db matrices flattened row-major. Graded
helpers evaluate truncated power series in the documented multiset layout:
degree-major, sorted multisets within a degree, multinomial weights.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Polars by brute force


def polar_vertices(points: np.ndarray) -> np.ndarray:
    """Vertices of { a >= 0 : <p, a> <= 1 for p in points }, assumed bounded."""
    m, d = points.shape
    rows = np.vstack([points, -np.eye(d)])
    rhs = np.concatenate([np.ones(m), np.zeros(d)])
    combos = np.array(list(itertools.combinations(range(m + d), d)))
    mats = rows[combos]
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12
    mats, combos = mats[ok], combos[ok]
    sols = np.linalg.solve(mats, rhs[combos][..., None])[..., 0]
    feas = np.all(sols >= -1e-12, axis=1) & np.all(sols @ points.T <= 1 + 1e-9, axis=1)
    verts = np.clip(sols[feas], 0.0, None)
    return _dedupe(verts)


def _dedupe(pts: np.ndarray) -> np.ndarray:
    keys = {}
    for p in pts:
        keys.setdefault(tuple(np.round(p, 9)), p)
    return np.array(list(keys.values())).reshape(-1, pts.shape[1])


def maximal(pts: np.ndarray) -> np.ndarray:
    """Points not coordinatewise dominated by another: an upper bound on the
    size of the canonical generator list."""
    keep = []
    for i, p in enumerate(pts):
        dominated = any(
            j != i and np.all(q >= p - 1e-12) and np.any(q > p + 1e-12)
            for j, q in enumerate(pts)
        )
        if not dominated:
            keep.append(p)
    return np.array(keep).reshape(-1, pts.shape[1])


# ---------------------------------------------------------------------------
# Formula objects


class Node:
    """A formula node with its primal and dual norms and generator lists.

    P and Q are lists whose downward hulls are the primal and dual unit
    balls; they need not be canonical. Both are computed lazily.
    """

    def __init__(self, kind, dim, children=(), points=None):
        self.kind = kind
        self.dim = dim
        self.children = children
        self._p = None if points is None else np.asarray(points, dtype=float)
        self._q = None

    # generator lists ------------------------------------------------------

    @property
    def P(self) -> np.ndarray:
        if self._p is None:
            self._p = self._build_p()
        return self._p

    @property
    def Q(self) -> np.ndarray:
        if self._q is None:
            self._q = self._build_q()
        return self._q

    def _build_p(self):
        k, ch = self.kind, self.children
        if k == "dual":
            return ch[0].Q
        if k == "tensor":
            a, b = ch
            return np.array([np.kron(u, v) for u in a.P for v in b.P])
        if k == "with":
            a, b = ch
            return np.array([np.concatenate([u, v]) for u in a.P for v in b.P])
        if k == "plus":
            a, b = ch
            return np.vstack([_embed(a.P, 0, a.dim, b.dim), _embed(b.P, a.dim, a.dim, b.dim)])
        return polar_vertices(self.Q)  # par, hom: P is the polar of Q

    def _build_q(self):
        k, ch = self.kind, self.children
        if k == "atom":
            return polar_vertices(self._p)
        if k == "dual":
            return ch[0].P
        if k == "par":
            a, b = ch
            return np.array([np.kron(f, g) for f in a.Q for g in b.Q])
        if k == "hom":
            a, b = ch
            return np.array([np.kron(u, g) for u in a.P for g in b.Q])
        if k == "with":
            a, b = ch
            return np.vstack([_embed(a.Q, 0, a.dim, b.dim), _embed(b.Q, a.dim, a.dim, b.dim)])
        if k == "plus":
            a, b = ch
            return np.array([np.concatenate([f, g]) for f in a.Q for g in b.Q])
        return polar_vertices(self.P)  # tensor: Q is the polar of P

    # norms ----------------------------------------------------------------

    def primal(self, x: np.ndarray) -> float:
        k, ch = self.kind, self.children
        if k == "dual":
            return ch[0].dual_norm(x)
        if k == "with":
            a, b = ch
            return max(a.primal(x[: a.dim]), b.primal(x[a.dim :]))
        if k == "plus":
            a, b = ch
            return a.primal(x[: a.dim]) + b.primal(x[a.dim :])
        if k == "tensor":
            return tensor_lp(ch[0].P, ch[1].P, x)
        if k == "par":  # max over f in Q(a) of ||S^T f||_b
            a, b = ch
            s = x.reshape(a.dim, b.dim)
            return max(b.primal(s.T @ f) for f in a.Q)
        if k == "hom":  # max over u in P(a) of ||S^T u||_b
            a, b = ch
            s = x.reshape(a.dim, b.dim)
            return max(b.primal(s.T @ u) for u in a.P)
        return float(np.max(self.Q @ x))  # atom

    def dual_norm(self, f: np.ndarray) -> float:
        k, ch = self.kind, self.children
        if k == "dual":
            return ch[0].primal(f)
        if k == "with":
            a, b = ch
            return a.dual_norm(f[: a.dim]) + b.dual_norm(f[a.dim :])
        if k == "plus":
            a, b = ch
            return max(a.dual_norm(f[: a.dim]), b.dual_norm(f[a.dim :]))
        if k == "tensor":  # max over u in P(a) of dual_b(S^T u)
            a, b = ch
            s = f.reshape(a.dim, b.dim)
            return max(b.dual_norm(s.T @ u) for u in a.P)
        if k == "par":
            return tensor_lp(self.children[0].Q, self.children[1].Q, f)
        if k == "hom":
            return tensor_lp(self.children[0].P, self.children[1].Q, f)
        return float(np.max(self.P @ f))  # atom


def _embed(pts: np.ndarray, offset: int, da: int, db: int) -> np.ndarray:
    out = np.zeros((len(pts), da + db))
    out[:, offset : offset + pts.shape[1]] = pts
    return out


def tensor_lp(pa: np.ndarray, pb: np.ndarray, s: np.ndarray) -> float:
    """sup <F, s> over F >= 0 with u^T F v <= 1 for u in pa, v in pb."""
    from scipy.optimize import linprog

    rows = np.array([np.kron(u, v) for u in pa for v in pb])
    res = linprog(-s, A_ub=rows, b_ub=np.ones(len(rows)), bounds=(0, None), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"tensor LP status {res.status}: {res.message}")
    return float(-res.fun)


def build(formula, atoms: dict) -> Node:
    """Node tree from a nested tuple formula ("tensor", l, r) / ("dual", x) /
    atom name, over atoms given as lists of fraction-string points."""
    if isinstance(formula, str):
        pts = np.array([[float(Fraction(v)) for v in g] for g in atoms[formula]])
        return Node("atom", pts.shape[1], points=pts)
    if formula[0] == "dual":
        c = build(formula[1], atoms)
        return Node("dual", c.dim, (c,))
    a, b = build(formula[1], atoms), build(formula[2], atoms)
    dim = a.dim * b.dim if formula[0] in ("tensor", "par", "hom") else a.dim + b.dim
    return Node(formula[0], dim, (a, b))


def rel_close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def same_support(gens: np.ndarray, ref: np.ndarray, dirs: np.ndarray) -> bool:
    """Do the downward hulls of gens and ref agree on every direction in dirs?
    Both hulls lie in the orthant, so nonnegative directions suffice."""
    if len(gens) == 0 or len(ref) == 0:
        return len(gens) == len(ref)
    a = np.max(gens @ dirs.T, axis=0)
    b = np.max(ref @ dirs.T, axis=0)
    return bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))))


def mutually_polar(p: np.ndarray, q: np.ndarray, dirs: np.ndarray) -> bool:
    """Each list's downward hull is the other's polar: cross pairings are at
    most 1, and the brute-force polar of each list has the other's support."""
    if np.max(p @ q.T) > 1 + 1e-9:
        return False
    return same_support(polar_vertices(p), q, dirs) and same_support(
        polar_vertices(q), p, dirs
    )


# ---------------------------------------------------------------------------
# Graded layout


def graded_msets(d: int, n: int) -> list[tuple[int, ...]]:
    """Multisets of size <= n over range(d): degree-major, sorted within."""
    return [m for k in range(n + 1) for m in itertools.combinations_with_replacement(range(d), k)]


def multiplicity(m: tuple[int, ...]) -> int:
    out = math.factorial(len(m))
    for c in set(m):
        out //= math.factorial(m.count(c))
    return out


def series_value(coeffs, msets, y) -> float:
    """f(y) = sum multiplicity(m) f_m y^m."""
    return float(
        sum(multiplicity(m) * c * np.prod([y[i] for i in m]) for c, m in zip(coeffs, msets))
    )

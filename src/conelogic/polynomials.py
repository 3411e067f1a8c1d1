"""Sparse exact multivariate polynomials for the norm oracles.

Terms live in a dict from exponent tuples to Fractions; zero coefficients
are dropped eagerly so equality of term dicts is equality of polynomials.
Only what the oracles and the ball schemes need: ring operations,
truncated products, exact and float evaluation, gradients. substitute,
poly_sum and poly_product have no package caller; the benchmark's tracer
(perfbench/layers.py) names them, and the tests use them as references.
The term dict is never mutated after construction, so three derived views
are built once per polynomial, on first use: the float view the oracle's
ascent reads (each coefficient as a float with its nonzero exponents), the
gradient plan built from it (each partial derivative term as c k and the
slots of its powers in a per-call power table), and the integer view
(L, D, [(L c_e, D - |e|, nonzero exponents)]) with L the lcm of the
coefficient denominators and D the total degree. Exact evaluation reads
the integer view: the point is scaled by the lcm m of its denominators to
integers k, L m^D p(k/m) is summed in integers, and one Fraction is made
at the end; eval_family does so for a family of polynomials (a ball
scheme's coordinates) at one point, scaling the point once. The oracle's
grid scan, its averaged upper bound and the sign check read the same view.

layout_products builds the monomial family of a multiset table, the
product of the forms over every multiset, each from its prefix one grade
down, in integers over one common denominator. poly_combination is the one
linear combination sum_c k_c P_c that every bracket objective is built by.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Optional, Sequence

from .multisets import Layout, prefix_products
from .rationals import Q0, Q1, int_vector

Expvec = tuple[int, ...]
IntTerms = tuple[int, int, list[tuple[int, int, list[tuple[int, int]]]]]
GradPlan = tuple[list[tuple[int, int]], list[tuple[int, float, list[int]]]]


class Polynomial:
    __slots__ = ("nvars", "terms", "_floats", "_ints", "_grad")

    def __init__(self, nvars: int, terms: Optional[dict[Expvec, Fraction]] = None):
        self.nvars = nvars
        self.terms: dict[Expvec, Fraction] = {}
        self._floats: Optional[list[tuple[float, list[tuple[int, int]]]]] = None
        self._ints: Optional[IntTerms] = None
        self._grad: Optional[GradPlan] = None
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} is not {nvars}-long")
                if c != 0:
                    self.terms[e] = Fraction(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def linear(nvars: int, coeffs: Sequence) -> "Polynomial":
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return Polynomial(nvars, terms)

    @staticmethod
    def _of(nvars: int, terms: dict[Expvec, Fraction]) -> "Polynomial":
        """Adopt a term dict already made of nonzero Fractions with
        nvars-long exponents, without checking it again."""
        out = Polynomial(nvars)
        out.terms = terms
        return out

    # -- ring --------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Q0) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return Polynomial(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        cq = Fraction(c)
        if cq == 0:
            return Polynomial(self.nvars)
        return Polynomial(self.nvars, {e: cq * v for e, v in self.terms.items()})

    def mul(self, other: "Polynomial", max_degree: Optional[int] = None) -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[Expvec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max_degree is not None and sum(e) > max_degree:
                    continue
                v = out.get(e, Q0) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return Polynomial(self.nvars, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.mul(other)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = [f"{c}*t^{e}" for e, c in sorted(self.terms.items())]
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Q0)

    def negative_term(self) -> Optional[tuple[Expvec, Fraction]]:
        """The least exponent with a negative coefficient, or None; the
        integer view's numerators decide before any term is compared."""
        if all(n >= 0 for n, _, _ in self.int_terms()[2]):
            return None
        return min((e, c) for e, c in self.terms.items() if c < 0)

    def shift_vars(self, offset: int, nvars: int) -> "Polynomial":
        """Re-home into a larger variable list starting at `offset`."""
        if offset + self.nvars > nvars:
            raise ValueError("shift leaves the variable range")
        pre, post = (0,) * offset, (0,) * (nvars - offset - self.nvars)
        return Polynomial(nvars, {pre + e + post: c for e, c in self.terms.items()})

    def substitute(
        self, values: Sequence["Polynomial"], max_degree: Optional[int] = None
    ) -> "Polynomial":
        """Plug a polynomial in for every variable."""
        if len(values) != self.nvars:
            raise ValueError("substitution needs one polynomial per variable")
        nv = values[0].nvars if values else 0
        out = Polynomial.zero(nv)
        for e, c in self.terms.items():
            term = Polynomial.constant(nv, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term.mul(values[i], max_degree)
                    if term.is_zero():
                        break
            out = out + term
        return out

    # -- evaluation --------------------------------------------------------

    def int_terms(self) -> IntTerms:
        """The integer view (L, D, [(L c_e, D - |e|, [(i, e_i) for e_i > 0])]).

        L is the lcm of the coefficient denominators and D the total
        degree, so for an integer point k and a scale m > 0,
        L m^D p(k/m) = sum over terms of (L c_e) m^(D - |e|) prod k_i^e_i
        is an integer.
        """
        if self._ints is None:
            den, nums = int_vector(list(self.terms.values()))
            deg = self.total_degree()
            rows = [(n, deg - sum(e), [(i, k) for i, k in enumerate(e) if k])
                    for n, e in zip(nums, self.terms)]
            self._ints = (den, deg, rows)
        return self._ints

    def eval_exact(self, point: Sequence[Fraction]) -> Fraction:
        """p(point) as one Fraction, summed in integers: the point is
        scaled by the lcm m of its denominators and the integer view's sum
        is divided by L m^D once."""
        return eval_family((self,), point)[0]

    def _float_terms(self) -> list[tuple[float, list[tuple[int, int]]]]:
        if self._floats is None:
            self._floats = [
                (float(c), [(i, k) for i, k in enumerate(e) if k])
                for e, c in self.terms.items()
            ]
        return self._floats

    def eval_float(self, point: Sequence[float]) -> float:
        total = 0.0
        for c, factors in self._float_terms():
            v = c
            for i, k in factors:
                v *= point[i] ** k
            total += v
        return total

    def _grad_plan(self) -> GradPlan:
        """The gradient as ([(j, p)], [(i, c k, [slots])]): one entry per
        term and variable i with exponent k > 0, whose value is c k times
        the product of point[j] ** p over its slots, in the term's
        variable order; the (j, p) powers are listed once."""
        if self._grad is None:
            slot: dict[tuple[int, int], int] = {}
            parts = []
            for c, factors in self._float_terms():
                for i, k in factors:
                    slots = []
                    for j, kj in factors:
                        p = kj - 1 if j == i else kj
                        if p:
                            slots.append(slot.setdefault((j, p), len(slot)))
                    parts.append((i, c * k, slots))
            self._grad = (list(slot), parts)
        return self._grad

    def grad_float(self, point: Sequence[float]) -> list[float]:
        powers, parts = self._grad_plan()
        table = [point[j] ** p for j, p in powers]
        g = [0.0] * self.nvars
        for i, v, slots in parts:
            for s in slots:
                v *= table[s]
            g[i] += v
        return g


def eval_family(polys: Sequence[Polynomial], point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Each polynomial's eval_exact at one point, which is scaled to
    integers k/m once for the whole family."""
    if any(p.nvars != len(point) for p in polys):
        raise ValueError("point length mismatch")
    views = [p.int_terms() for p in polys]
    m, ks = int_vector(point)
    mpow = [m**j for j in range(max((deg for _, deg, _ in views), default=0) + 1)]
    out = []
    for den, deg, terms in views:
        total = 0
        for c, gap, factors in terms:
            c *= mpow[gap]
            for i, k in factors:
                ki = ks[i]
                if not ki:
                    break
                c *= ki**k
            else:
                total += c
        out.append(Fraction(total, den * mpow[deg]))
    return tuple(out)


def poly_sum(polys: Iterable[Polynomial], nvars: int) -> Polynomial:
    out = Polynomial.zero(nvars)
    for p in polys:
        out = out + p
    return out


def poly_combination(coeffs: Sequence, polys: Sequence[Polynomial], nvars: int) -> Polynomial:
    """sum_c coeffs[c] polys[c] over the nonzero coeffs, as poly_sum of the
    scaled polys would make it: the same keys in the same order (a sum that
    reaches 0 is popped, and comes back last), in one dict. A single
    coefficient 1 gives that polynomial itself, its derived views kept;
    polynomials are never mutated, so it can be shared."""
    picked = [(k, p) for k, p in zip(coeffs, polys) if k]
    if len(picked) == 1 and picked[0][0] == 1:
        return picked[0][1]
    terms: dict[Expvec, Fraction] = {}
    for k, p in picked:
        for e, c in p.terms.items():
            v = terms.get(e, Q0) + k * c
            if v == 0:
                terms.pop(e, None)
            else:
                terms[e] = v
    return Polynomial._of(nvars, terms)


def poly_product(polys: Iterable[Polynomial], nvars: int) -> Polynomial:
    """The product left to right from 1; the monomial families of the
    multiset tables are made by layout_products instead."""
    out = Polynomial.constant(nvars, Q1)
    for p in polys:
        out = out * p
    return out


def _int_mul(left: dict[Expvec, int], right: list[tuple[Expvec, int]]) -> dict[Expvec, int]:
    """Polynomial.mul on integer coefficients: the same loops, so the same
    keys in the same order."""
    out: dict[Expvec, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def layout_products(forms: Sequence[Polynomial], lay: Layout, nvars: int) -> list[Polynomial]:
    """poly_product(forms[c] for c in m) for every label m of the multiset
    table lay, term for term and in the same key order.

    The forms are scaled to integers over one common denominator g, each
    product is its prefix's one grade down times forms[m[-1]], multiplied
    in ints as poly_product multiplies, and only the result becomes
    Fractions, one v / g^|m| per term.
    """
    g = lcm(*(c.denominator for p in forms for c in p.terms.values()))
    ints = [[(e, c.numerator * (g // c.denominator)) for e, c in p.terms.items()] for p in forms]
    prods = prefix_products(lay, ints, _int_mul, {(0,) * nvars: 1})
    dens = [g**k for k in range(max(lay.grades) + 1)]
    return [
        Polynomial._of(nvars, {e: Fraction(v, dens[k]) for e, v in p.items()})
        for p, k in zip(prods, lay.grades)
    ]

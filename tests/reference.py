"""Reference routes for the tests, each written once, at the level of the
definitions.

delta_x has the monomials x^m over the multisets m as its coordinates; !s
sends delta_x to delta_{s x}, so its grade-n block is Sym^n s, whose entry
(nu, mu) sums prod_t s[nu_t][a_t] over the distinct arrangements a of mu.
The routes below compute these in plain Fractions, with their own
enumeration of multisets and their own polynomial arithmetic, so that a
fault in the package's integer kernels cannot hide in the reference it is
checked against. From conelogic this module imports only the constructors
and accessors that test_hygiene.REFERENCE_IMPORTS lists.

A polynomial here is a dict from exponent tuples to nonzero Fractions.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

from hypothesis import strategies as st

from conelogic.symmetric import sym_tensor


def eye(n):
    """The n x n identity matrix."""
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


# -- multisets, monomials and symmetric powers --------------------------------


def multisets(dim, n):
    """The size-n multisets over range(dim), as sorted tuples in
    lexicographic order."""
    return tuple(combinations_with_replacement(range(dim), n))


def graded_labels(dim, n):
    """The multisets of size 0..n, degree-major: the coordinates of !A and
    ?A over a dim-dimensional A."""
    return tuple(m for k in range(n + 1) for m in multisets(dim, k))


def multiplicity(m):
    """The number of distinct arrangements of the multiset m."""
    return len(set(permutations(m)))


def compositions(total, parts):
    """The tuples of parts nonnegative ints summing to total, the first
    part running from 0 up: the points k/total of a simplex grid, in the
    order the oracle scans them."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial(x, m):
    """x^m = prod_{c in m} x_c, one factor at a time."""
    return prod((x[c] for c in m), start=F(1))


def monomials(x, labels):
    """delta_x at the given labels."""
    return tuple(monomial(x, m) for m in labels)


def arrangement_sum(m, nu, mu):
    """The sum over the distinct arrangements a of mu of prod_t m[nu_t][a_t]:
    entry (nu, mu) of Sym^n m, for a matrix m given by rows."""
    terms = (prod((m[i][j] for i, j in zip(nu, a)), start=F(1)) for a in set(permutations(mu)))
    return sum(terms, F(0))


def graded_power(m, n, dim_rows, dim_cols):
    """Sym^0 m, ..., Sym^n m as one dense block-diagonal matrix over the
    degree-major labels: the matrix of !m at truncation n."""
    return tuple(
        tuple(
            arrangement_sum(m, nu, mu) if len(nu) == len(mu) else F(0)
            for mu in graded_labels(dim_cols, n)
        )
        for nu in graded_labels(dim_rows, n)
    )


# -- polynomials --------------------------------------------------------------


def linear(coeffs, nvars):
    """sum_i coeffs[i] t_i, its nonzero terms in variable order."""
    return {tuple(int(j == i) for j in range(nvars)): F(c) for i, c in enumerate(coeffs) if c}


def _accumulate(out, e, c):
    """Add c to the term e of out: a key whose sum reaches 0 is popped, and
    a key that comes back is appended at the end."""
    v = out.get(e, 0) + c
    if v == 0:
        out.pop(e, None)
    else:
        out[e] = v


def add_into(out, p, k=1):
    """out + k p, made in out."""
    for e, c in p.items():
        _accumulate(out, e, k * c)
    return out


def combination(pairs):
    """sum k p over the (k, p) pairs, added one at a time from 0."""
    out = {}
    for k, p in pairs:
        add_into(out, p, k)
    return out


def times(p, q, trunc=None):
    """p q, dropping the terms of degree above trunc when it is given."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if trunc is None or sum(e) <= trunc:
                _accumulate(out, e, c1 * c2)
    return out


def product(polys, nvars):
    """The product left to right from 1."""
    out = {(0,) * nvars: F(1)}
    for p in polys:
        out = times(out, p)
    return out


def plug(p, values, nvars, trunc=None):
    """p with values[i], a polynomial in nvars variables, put in for its
    variable i: each term's product is built one factor at a time and
    truncated at trunc as it grows, and the terms are added in order."""
    out = {}
    for e, c in p.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = times(term, values[i], trunc)
        add_into(out, term)
    return out


def bernstein_upper(p, blocks):
    """The largest Bernstein coefficient of p >= 0 on the product of
    simplices with the given block sizes. Each term is multiplied by
    (sum of block b's variables)^(top_b - d_b), with d_b its degree in
    block b and top_b the largest d_b over the terms, so that H is
    homogeneous of degree top_b in every block; the bound is the max over
    the exponents a of H of H_a / M_a, with M_a the product over the
    blocks of the multinomial top_b! / prod_{i in b} a_i!."""
    nvars = sum(blocks)
    spans = [range(sum(blocks[:j]), sum(blocks[: j + 1])) for j in range(len(blocks))]
    sums = [linear([int(i in span) for i in range(nvars)], nvars) for span in spans]

    def degrees(e):
        return [sum(e[i] for i in span) for span in spans]

    tops = [max(d) for d in zip(*map(degrees, p))] if p else []
    h = {}
    for e, c in p.items():
        term = {e: c}
        for s, top, d in zip(sums, tops, degrees(e)):
            for _ in range(top - d):
                term = times(term, s)
        add_into(h, term)

    def weight(a):
        return prod(
            factorial(top) // prod(factorial(a[i]) for i in span)
            for span, top in zip(spans, tops)
        )

    return max((c / weight(a) for a, c in h.items()), default=F(0))


# -- shared draws -------------------------------------------------------------


def xy_form():
    """(x1 y2 + x2 y1)/2 as a symmetric bilinear functional on dim 2."""
    return sym_tensor(2, 2, {(0, 1): F(1, 2)})


entries = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=2, max_denominator=6))


@st.composite
def map_rows(draw):
    """dim_src, dim_tgt in 0..3 and dim_tgt rows of nonnegative entries,
    zeros and non-integers both likely."""
    ds, dt = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[draw(entries) for _ in range(ds)] for _ in range(dt)]
    return ds, dt, rows

"""Multiplicative-additive connectives and the morphism algebra.

Morphisms are positive linear contractive-or-not maps between cone objects,
exact target-dim x source-dim matrices acting on coordinate columns. They
are stored sparsely, column-major (compressed sparse columns; Davis, Direct
Methods for Sparse Linear Systems, 2006): `cols[j]` lists the nonzero
(target row, Fraction) pairs of source coordinate j in ascending row order.
The form is canonical, so dataclass equality and hashing agree with dense
equality. `matrix` is a dense view built on first use, for readers at the
boundary (reports, PCS matrices, small base maps); compose, adjoint,
morphism_norm and application touch only nonzeros. `int_cols` is the one
integer view, also built on first use: compose, morphism_norm and the
symmetric powers behind Sym^n, !s and ?l run on it, so a map's columns are
scaled to integers at most once. `mor` takes dense rows
and hands their columns to `sparse_mor`, which sorts them, drops zeros and
runs the positivity audit over the nonzeros. For valid (spanning)
polyhedral and graded objects, positivity of the map is exactly entrywise
nonnegativity of the matrix, because the cones involved are the full
coordinate orthants.

The connective zoo:

    tensor_obj(a, b)     primal generators = Kronecker pairs, dual
                         side implicit (bilinear-functional LP),
    cotensor_obj(a, b)   the par: dual(tensor(dual a, dual b)), explicit
                         dual generators,
    hom_obj(a, b)        a -o b = cotensor(dual a, b); its dual-side
                         generators are Kronecker pairs of a's primal and
                         b's dual generators, so the norm of an element of
                         hom(a, b) is the usual operator norm over
                         generator pairs with no LP,
    product_obj(a, b)    the with: norm is the max of the component norms,
    coproduct_obj(a, b)  the plus: norm is the sum.

tensor_obj builds its generator list in integers: the Kronecker products of
the factors' int_keys, sorted by sort_keys, which makes the Fractions last.
product_obj makes no Fraction (its pairs reuse the operands' own), so it
sorts them as they are. The other three reach these two via dual_object.

curry/uncurry are pure index reshapes between hom(a, tensor(b, c)-shaped
sources and targets; they preserve the norm exactly, which is the
*-autonomy acceptance check. The other structure maps (tensor of maps,
associator, braid, unitors, projections, injections, pairing, evaluation)
have no caller here; tests/test_mall.py builds them and checks their laws.

Row-major flattening everywhere: tensor coordinate (i, j) of a (x) b sits at
index i*b.dim + j; an element of hom(a, b) stores the matrix entry (row k of
b, column i of a) at index i*b.dim + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cones import (
    Backend,
    ConeObject,
    ImplicitTensorBall,
    dual_object,
    norm_primal,
    primal_gens,
)
from .errors import CapabilityError, CompositionError, DimensionError, MembershipError
from .polyhedra import sort_generators, sort_keys
from .rationals import MatQ, Q0, Q1, VecQ, int_keys, int_max_pairing, int_vector, mat, zeros


# A column lists the nonzero entries of one source coordinate's image as
# (target row, value) pairs in ascending row order.
Col = tuple[tuple[int, Fraction], ...]
IntView = tuple[int, tuple[tuple[tuple[int, int], ...], ...]]


@dataclass(frozen=True)
class Morphism:
    source: ConeObject
    target: ConeObject
    cols: tuple[Col, ...]  # one per source coordinate, zeros dropped

    def __repr__(self):
        return f"Morphism({self.source.label} -> {self.target.label})"

    @cached_property
    def matrix(self) -> MatQ:
        """Dense view: target.dim rows, source.dim columns."""
        rows = [[Q0] * len(self.cols) for _ in range(self.target.dim)]
        for j, col in enumerate(self.cols):
            for i, x in col:
                rows[i][j] = x
        return tuple(map(tuple, rows))

    @cached_property
    def int_cols(self) -> IntView:
        """Integer view: the lcm D of every entry's denominator, and each
        column as (target row, D x) pairs in the same order."""
        den = lcm(*(x.denominator for col in self.cols for _, x in col))
        return den, tuple(
            tuple((i, x.numerator * (den // x.denominator)) for i, x in col)
            for col in self.cols
        )

    def __call__(self, x: VecQ) -> VecQ:
        if len(x) != self.source.dim:
            raise DimensionError(self.source.dim, len(x), "apply morphism")
        out = [Q0] * self.target.dim
        for col, u in zip(self.cols, x):
            if u:
                for i, v in col:
                    out[i] += v * u
        return tuple(out)


def _require_non_spectral(source: ConeObject, target: ConeObject) -> None:
    if source.backend is Backend.SPECTRAL or target.backend is Backend.SPECTRAL:
        raise CapabilityError(
            "the spectral backend is object-level only", "no spectral morphisms"
        )


def mor(source: ConeObject, target: ConeObject, rows) -> Morphism:
    """The dense entry point: rows of exact scalars, target.dim by
    source.dim, coerced to Fractions and stored by columns."""
    m = mat(rows)
    if len(m) != target.dim:
        raise DimensionError(target.dim, len(m), "morphism rows")
    if m and len(m[0]) != source.dim:
        raise DimensionError(source.dim, len(m[0]), "morphism columns")
    cols = [[(i, row[j]) for i, row in enumerate(m)] for j in range(source.dim)]
    return sparse_mor(source, target, cols)


def sparse_mor(source: ConeObject, target: ConeObject, cols) -> Morphism:
    """The sparse entry point: cols[j] holds (target row, Fraction) pairs for
    source coordinate j, rows distinct, in any order. Zeros are dropped and
    each column is sorted, so the result is canonical; then the positivity
    audit runs over the nonzeros."""
    if len(cols) != source.dim:
        raise DimensionError(source.dim, len(cols), "morphism columns")
    _require_non_spectral(source, target)
    out = []
    for col in cols:
        c = [(i, x) for i, x in col if x]
        if len(c) > 1:
            c.sort()
        if c and not 0 <= c[0][0] <= c[-1][0] < target.dim:
            raise DimensionError(target.dim, c[-1][0] + 1, "morphism rows")
        out.append(tuple(c))
    check_positive_columns(out)
    return Morphism(source, target, tuple(out))


def check_positive_columns(cols: tuple[Col, ...]) -> None:
    """Positivity audit: entrywise nonnegativity, read off the nonzeros.

    For spanning objects the source cone contains every coordinate ray and
    the target cone is inside the orthant, so entrywise nonnegativity is both
    necessary and sufficient for mapping cone into cone. The entries are
    Fractions, so the sign is read off the numerator. The witness is the
    first negative entry in row-major order.
    """
    bad = [(i, j, x) for j, col in enumerate(cols) for i, x in col if x.numerator < 0]
    if bad:
        r, c, x = min(bad, key=lambda t: t[:2])
        raise MembershipError(
            f"matrix entry ({r},{c}) = {x} is negative: image of the "
            f"coordinate ray {c} leaves the target cone",
            witness=(r, c),
        )


def identity(a: ConeObject) -> Morphism:
    return Morphism(a, a, tuple(((j, Q1),) for j in range(a.dim)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, column by column: column j of g f is the sum over the
    nonzeros f[k, j] of f[k, j] times column k of g (Gustavson, ACM TOMS
    1978), so the cost is proportional to the nonzero products. A column of
    f holding a single 1 reuses g's column as it is. Longer columns are
    summed in integers on the int_cols of f and g, read only once such a
    column appears (a map after unit columns never builds g's view), and
    make one Fraction over D_f D_g per nonzero."""
    if f.target != g.source:
        raise CompositionError(
            f"cannot compose: {f!r} ends at {f.target.label!r} (dim {f.target.dim}), "
            f"{g!r} starts at {g.source.label!r} (dim {g.source.dim})"
        )
    gcols, out, den = g.cols, [], 0
    for j, col in enumerate(f.cols):
        if len(col) > 1:
            if not den:
                (df, fints), (dg, gints) = f.int_cols, g.int_cols
                den = df * dg
            acc: dict[int, int] = {}
            for k, x in fints[j]:
                for i, y in gints[k]:
                    acc[i] = acc.get(i, 0) + x * y
            out.append(tuple((i, Fraction(v, den)) for i, v in sorted(acc.items()) if v))
        elif col:
            k, x = col[0]
            out.append(gcols[k] if x == 1 else tuple((i, x * y) for i, y in gcols[k]))
        else:
            out.append(())
    return Morphism(f.source, g.target, tuple(out))


def adjoint(f: Morphism) -> Morphism:
    """f*: dual(target) -> dual(source), transpose conjugated by weights.

    <f* psi, v>_src = <psi, f v>_tgt. With plain pairings this is the plain
    transpose, and the entries are f's own; weighted endpoints (graded and
    Sym^n objects) contribute their multiplicities. Column j of f* is row j
    of f, entry i scaled by wt[j] / ws[i], made as one Fraction.
    """
    plain = f.source.weights is None and f.target.weights is None
    ws, wt = f.source.pairing_weights, f.target.pairing_weights
    out: list[list] = [[] for _ in range(f.target.dim)]
    for i, col in enumerate(f.cols):
        for j, x in col:
            y = x if plain else Fraction(x.numerator * wt[j], x.denominator * ws[i])
            out[j].append((i, y))
    return Morphism(dual_object(f.target), dual_object(f.source), tuple(map(tuple, out)))


def morphism_norm(f: Morphism) -> Fraction:
    """The exact operator norm: max over source primal generators u of the
    target norm of f u. A lazy source ball is materialized (a graded source
    raises CapabilityError there). Against explicit polyhedral dual
    generators it runs in integers: the images of the int_keys of the
    generators on f's int_cols, times the target weights, are paired with
    target.q_rows by int_max_pairing and compared by cross-multiplying, and
    one Fraction is made. Other targets take norm_primal per image."""
    gens, t = primal_gens(f.source), f.target
    if t.backend is not Backend.POLYHEDRAL or t.q_ball_gens is None:
        return max((norm_primal(t, f(u)) for u in gens), default=Q0)
    den_u, keys = int_keys(gens)
    den_f, icols = f.int_cols
    den_w, w = int_vector(t.weights) if t.weights is not None else (1, None)
    best_s, best_d = 0, 1
    for u in keys:
        y = [0] * t.dim
        for col, x in zip(icols, u):
            if x:
                for i, v in col:
                    y[i] += v * x
        if w is not None:
            y = [a * b for a, b in zip(w, y)]
        s, d, _ = int_max_pairing(y, t.q_rows)
        if s * best_d > best_s * d:
            best_s, best_d = s, d
    return Fraction(best_s, den_u * den_f * den_w * best_d)


def is_contraction(f: Morphism) -> bool:
    return morphism_norm(f) <= 1


# ---------------------------------------------------------------------------
# Connectives


def _require_polyhedral(op: str, *objs: ConeObject) -> None:
    for a in objs:
        if a.backend is Backend.SPECTRAL:
            raise CapabilityError(
                f"{op} rejects spectral operands", f"{a.label!r} is spectral"
            )
        if a.backend is not Backend.POLYHEDRAL:
            raise CapabilityError(
                f"{op} needs polyhedral operands here",
                f"{a.label!r} is {a.backend.value}; graded connectives live in the exponential modules",
            )
        if a.weights is not None:
            raise CapabilityError(
                f"{op} is defined for plain-pairing operands", a.label
            )


def tensor_obj(a: ConeObject, b: ConeObject) -> ConeObject:
    """a (x) b. The dual side stays implicit; the stored descriptor keeps the
    original factors so structurally equal constructions stay equal.

    Kronecker pairs of canonical lists are canonical, so no LP runs. A point
    u of a canonical list has a certificate phi >= 0 with <phi, u> >
    max(0, <phi, g>) for every other g; if phi certifies u and psi certifies
    v, phi (x) psi certifies u (x) v, as <phi, u'><psi, v'> has nonnegative
    factors, each at most its value at (u, v) and one strictly below. The
    pairs are built in integers: the Kronecker products of the factors'
    int_keys, over the product of their denominators, sorted by sort_keys.
    """
    _require_polyhedral("tensor", a, b)
    den_a, ka = int_keys(primal_gens(a))
    den_b, kb = int_keys(primal_gens(b))
    pairs = [tuple(x * y for x in u for y in v) for u in ka for v in kb]
    return ConeObject(
        dim=a.dim * b.dim,
        p_ball_gens=sort_keys(den_a * den_b, pairs),
        q_ball_gens=None,
        label=f"({a.label} * {b.label})",
        q_implicit=ImplicitTensorBall(a, b),
    )


def cotensor_obj(a: ConeObject, b: ConeObject) -> ConeObject:
    return dual_object(
        tensor_obj(dual_object(a), dual_object(b)), label=f"({a.label} | {b.label})"
    )


def hom_obj(a: ConeObject, b: ConeObject) -> ConeObject:
    return dual_object(
        tensor_obj(a, dual_object(b)), label=f"({a.label} -o {b.label})"
    )


def _pad_gens(a: ConeObject) -> tuple[VecQ, ...]:
    if a.p_ball_gens:
        return a.p_ball_gens
    return (zeros(a.dim),)


def product_obj(a: ConeObject, b: ConeObject) -> ConeObject:
    """The with: ball = B(a) x B(b), norm of (x, y) = max of the two norms.

    Primal generators are the concatenated generator pairs (the product
    distribution argument makes these enough); dual generators are the
    embedded generators of either factor. Both lists are canonical by
    construction: with certificates as in tensor_obj, (phi, psi) certifies
    u + v and (phi, 0) certifies f + 0. The pairs reuse the operands'
    Fractions, so they are sorted as Fractions, not as integer keys.
    """
    _require_polyhedral("product", a, b)
    if None in (a.p_ball_gens, a.q_ball_gens, b.p_ball_gens, b.q_ball_gens):
        raise CapabilityError("product needs both sides explicit", f"{a.label} & {b.label}")
    p = sort_generators(u + v for u in _pad_gens(a) for v in _pad_gens(b))
    q = sort_generators(
        [f + zeros(b.dim) for f in a.q_ball_gens]
        + [zeros(a.dim) + g for g in b.q_ball_gens]
    )
    return ConeObject(
        dim=a.dim + b.dim,
        p_ball_gens=p,
        q_ball_gens=q,
        label=f"({a.label} & {b.label})",
    )


def coproduct_obj(a: ConeObject, b: ConeObject) -> ConeObject:
    return dual_object(
        product_obj(dual_object(a), dual_object(b)), label=f"({a.label} + {b.label})"
    )


# ---------------------------------------------------------------------------
# Currying


def _tensor_factors(t: ConeObject, where: str) -> tuple[ConeObject, ConeObject]:
    if t.q_implicit is not None:
        return t.q_implicit.left, t.q_implicit.right
    raise CapabilityError(f"{where}: object is not tensor-shaped", t.label)


def _hom_factors(h: ConeObject, where: str) -> tuple[ConeObject, ConeObject]:
    # hom(b, c) = dual(tensor(b, dual c)): the primal side is implicit with
    # factors (b, dual c).
    if h.p_implicit is not None:
        return h.p_implicit.left, dual_object(h.p_implicit.right)
    raise CapabilityError(f"{where}: object is not hom-shaped", h.label)


def curry(f: Morphism) -> Morphism:
    """Hom(a (x) b, c) -> Hom(a, b -o c) by index reshape; norm-preserving."""
    a, b = _tensor_factors(f.source, "curry")
    c = f.target
    h = hom_obj(b, c)
    db, dc = b.dim, c.dim
    cols = tuple(
        tuple((j * dc + k, x) for j in range(db) for k, x in f.cols[i * db + j])
        for i in range(a.dim)
    )
    return Morphism(a, h, cols)


def uncurry(g: Morphism) -> Morphism:
    """Hom(a, b -o c) -> Hom(a (x) b, c), inverse reshape."""
    b, c = _hom_factors(g.target, "uncurry")
    a = g.source
    src = tensor_obj(a, b)
    db, dc = b.dim, c.dim
    cols = []
    for col in g.cols:
        split: list[list] = [[] for _ in range(db)]
        for r, x in col:
            j, k = divmod(r, dc)
            split[j].append((k, x))
        cols.extend(map(tuple, split))
    return Morphism(src, c, tuple(cols))

"""Multiplicative-additive connectives and the morphism algebra.

Morphisms are positive linear contractive-or-not maps between cone objects,
stored as exact target-dim x source-dim matrices acting on coordinate
columns. For valid (spanning) polyhedral and graded objects, positivity of
the map is exactly entrywise nonnegativity of the matrix, because the cones
involved are the full coordinate orthants.

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

curry/uncurry are pure index reshapes between hom(a, tensor(b, c)-shaped
sources and targets; they preserve the norm exactly, which is the
*-autonomy acceptance check.

Row-major flattening everywhere: tensor coordinate (i, j) of a (x) b sits at
index i*b.dim + j; an element of hom(a, b) stores the matrix entry (row k of
b, column i of a) at index i*b.dim + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import (
    Backend,
    ConeObject,
    ImplicitTensorBall,
    dual_object,
    norm_primal,
    one_obj,
    primal_gens,
)
from .errors import CapabilityError, CompositionError, DimensionError, MembershipError
from .polyhedra import sort_generators
from .rationals import MatQ, Q0, Q1, VecQ, eye, kron_mat, kron_vec, mat, mat_mul, mat_vec, zeros


@dataclass(frozen=True)
class Morphism:
    source: ConeObject
    target: ConeObject
    matrix: MatQ  # target.dim rows, source.dim columns

    def __repr__(self):
        return f"Morphism({self.source.label} -> {self.target.label})"

    def __call__(self, x: VecQ) -> VecQ:
        if len(x) != self.source.dim:
            raise DimensionError(self.source.dim, len(x), "apply morphism")
        return mat_vec(self.matrix, x)


def mor(source: ConeObject, target: ConeObject, rows, validate: bool = True) -> Morphism:
    m = mat(rows)
    if len(m) != target.dim:
        raise DimensionError(target.dim, len(m), "morphism rows")
    if m and len(m[0]) != source.dim:
        raise DimensionError(source.dim, len(m[0]), "morphism columns")
    if source.backend is Backend.SPECTRAL or target.backend is Backend.SPECTRAL:
        raise CapabilityError(
            "the spectral backend is object-level only", "no spectral morphisms"
        )
    if validate:
        check_positive_matrix(m, source, target)
    return Morphism(source, target, m)


def check_positive_matrix(m: MatQ, source: ConeObject, target: ConeObject) -> None:
    """Positivity audit: entrywise nonnegativity.

    For spanning objects the source cone contains every coordinate ray and
    the target cone is inside the orthant, so entrywise nonnegativity is both
    necessary and sufficient for mapping cone into cone. The entries are
    Fractions (mor coerces them), so the sign is read off the numerator.
    """
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            if x.numerator < 0:
                raise MembershipError(
                    f"matrix entry ({r},{c}) = {x} is negative: image of the "
                    f"coordinate ray {c} leaves the target cone",
                    witness=(r, c),
                )


def identity(a: ConeObject) -> Morphism:
    return Morphism(a, a, eye(a.dim))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f. The cost is proportional to the nonzero products (see
    rationals.mat_mul), not to the dense shape."""
    if f.target != g.source:
        raise CompositionError(
            f"cannot compose: {f!r} ends at {f.target.label!r} (dim {f.target.dim}), "
            f"{g!r} starts at {g.source.label!r} (dim {g.source.dim})"
        )
    return Morphism(f.source, g.target, mat_mul(g.matrix, f.matrix))


def adjoint(f: Morphism) -> Morphism:
    """f*: dual(target) -> dual(source), transpose conjugated by weights.

    <f* psi, v>_src = <psi, f v>_tgt. With plain pairings this is the plain
    transpose; graded endpoints contribute their multiset weights.
    """
    ws = f.source.pairing_weights
    wt = f.target.pairing_weights
    rows = tuple(
        tuple(f.matrix[j][i] * wt[j] / ws[i] for j in range(f.target.dim))
        for i in range(f.source.dim)
    )
    return Morphism(dual_object(f.target), dual_object(f.source), rows)


def morphism_norm(f: Morphism) -> Fraction:
    """The exact operator norm: max over source primal generators of the
    target norm of the image. A lazy source ball is materialized."""
    return max(
        (norm_primal(f.target, mat_vec(f.matrix, u)) for u in primal_gens(f.source)),
        default=Q0,
    )


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
    factors, each at most its value at (u, v) and one strictly below.
    """
    _require_polyhedral("tensor", a, b)
    gb = primal_gens(b)
    pairs = [kron_vec(u, v) for u in primal_gens(a) for v in gb]
    return ConeObject(
        dim=a.dim * b.dim,
        p_ball_gens=sort_generators(pairs),
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
    u + v and (phi, 0) certifies f + 0.
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
# Index plumbing shared by curry/uncurry/eval


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
    rows = []
    for j in range(db):
        for k in range(dc):
            rows.append(tuple(f.matrix[k][i * db + j] for i in range(a.dim)))
    return Morphism(a, h, tuple(rows))


def uncurry(g: Morphism) -> Morphism:
    """Hom(a, b -o c) -> Hom(a (x) b, c), inverse reshape."""
    b, c = _hom_factors(g.target, "uncurry")
    a = g.source
    src = tensor_obj(a, b)
    db, dc = b.dim, c.dim
    rows = []
    for k in range(dc):
        rows.append(
            tuple(
                g.matrix[j * dc + k][i]
                for i in range(a.dim)
                for j in range(db)
            )
        )
    return Morphism(src, c, tuple(rows))


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    return Morphism(
        tensor_obj(f.source, g.source),
        tensor_obj(f.target, g.target),
        kron_mat(f.matrix, g.matrix),
    )


def product_mor(f: Morphism, g: Morphism) -> Morphism:
    """f x g on the with; block-diagonal matrix."""
    src = product_obj(f.source, g.source)
    tgt = product_obj(f.target, g.target)
    rows = []
    for r in f.matrix:
        rows.append(r + zeros(g.source.dim))
    for r in g.matrix:
        rows.append(zeros(f.source.dim) + r)
    return Morphism(src, tgt, tuple(rows))


# ---------------------------------------------------------------------------
# Structural catalog


def assoc_tensor(a: ConeObject, b: ConeObject, c: ConeObject) -> Morphism:
    """(a (x) b) (x) c -> a (x) (b (x) c). Row-major flattening makes the
    underlying coordinate map the identity; only the objects differ."""
    src = tensor_obj(tensor_obj(a, b), c)
    tgt = tensor_obj(a, tensor_obj(b, c))
    return Morphism(src, tgt, eye(src.dim))


def sym_tensor(a: ConeObject, b: ConeObject) -> Morphism:
    src = tensor_obj(a, b)
    tgt = tensor_obj(b, a)
    da, db = a.dim, b.dim
    rows = []
    for j in range(db):
        for i in range(da):
            row = [Q0] * (da * db)
            row[i * db + j] = Q1
            rows.append(tuple(row))
    return Morphism(src, tgt, tuple(rows))


def unitor_left(a: ConeObject) -> Morphism:
    """1 (x) a -> a, identity on coordinates."""
    return Morphism(tensor_obj(one_obj(), a), a, eye(a.dim))


def unitor_left_inv(a: ConeObject) -> Morphism:
    return Morphism(a, tensor_obj(one_obj(), a), eye(a.dim))


def unitor_right(a: ConeObject) -> Morphism:
    return Morphism(tensor_obj(a, one_obj()), a, eye(a.dim))


def unitor_right_inv(a: ConeObject) -> Morphism:
    return Morphism(a, tensor_obj(a, one_obj()), eye(a.dim))


def proj1(a: ConeObject, b: ConeObject) -> Morphism:
    rows = tuple(
        tuple(Q1 if c == r else Q0 for c in range(a.dim + b.dim)) for r in range(a.dim)
    )
    return Morphism(product_obj(a, b), a, rows)


def proj2(a: ConeObject, b: ConeObject) -> Morphism:
    rows = tuple(
        tuple(Q1 if c == a.dim + r else Q0 for c in range(a.dim + b.dim))
        for r in range(b.dim)
    )
    return Morphism(product_obj(a, b), b, rows)


def pair_mor(f: Morphism, g: Morphism) -> Morphism:
    """<f, g>: c -> a & b from f: c -> a, g: c -> b."""
    if f.source != g.source:
        raise CompositionError("pair needs a common source")
    tgt = product_obj(f.target, g.target)
    return Morphism(f.source, tgt, f.matrix + g.matrix)


def inj1(a: ConeObject, b: ConeObject) -> Morphism:
    tgt = coproduct_obj(a, b)
    rows = tuple(
        tuple(Q1 if c == r else Q0 for c in range(a.dim)) for r in range(a.dim)
    ) + tuple(zeros(a.dim) for _ in range(b.dim))
    return Morphism(a, tgt, rows)


def inj2(a: ConeObject, b: ConeObject) -> Morphism:
    tgt = coproduct_obj(a, b)
    rows = tuple(zeros(b.dim) for _ in range(a.dim)) + tuple(
        tuple(Q1 if c == r else Q0 for c in range(b.dim)) for r in range(b.dim)
    )
    return Morphism(b, tgt, rows)


def copair_mor(f: Morphism, g: Morphism) -> Morphism:
    """[f, g]: a + b -> c from f: a -> c, g: b -> c."""
    if f.target != g.target:
        raise CompositionError("copair needs a common target")
    src = coproduct_obj(f.source, g.source)
    rows = tuple(rf + rg for rf, rg in zip(f.matrix, g.matrix))
    return Morphism(src, f.target, rows)


def eval_mor(a: ConeObject, b: ConeObject) -> Morphism:
    """(a -o b) (x) a -> b, the evaluation of *-autonomy."""
    h = hom_obj(a, b)
    src = tensor_obj(h, a)
    da, db = a.dim, b.dim
    rows = []
    for k in range(db):
        row = [Q0] * (h.dim * da)
        for i in range(da):
            hom_coord = i * db + k
            row[hom_coord * da + i] = Q1
        rows.append(tuple(row))
    return Morphism(src, b, tuple(rows))


"""Concrete object families: coordinate (PCS) cones and PSD matrix cones.

PCS objects are coherent cones with a preferred coordinate basis: you give
the primal ball generators in coordinates, the dual side is the exact polar.
They embed in the general machinery with no special casing, which is itself
one of the checked laws.

The spectral backend is the n x n real symmetric PSD cone with the trace
norm on one side and the operator norm on the other, paired by tr(LM). It is
float-only (eigendecompositions) with documented tolerances:

    PSD_TOL     1e-9    eigenvalue floor for membership,
    DUAL_TOL    1e-8    norm-duality identities.

It is object-level only: no morphisms, and the constructive connectives
reject spectral operands (min/max tensor products of PSD cones are not
finitely generated, so they have no honest home in this exact package).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cones import Backend, ConeObject, from_p_gens
from .errors import DimensionError, MembershipError
from .mall import Morphism, is_contraction, mor
from .polyhedra import sort_generators
from .rationals import MatQ, VecQ, mat, transpose, unit, vec

PSD_TOL = 1e-9
DUAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# PCS


def pcs_object(ball_gens: Sequence[Sequence], dim: int, label: str = "") -> ConeObject:
    """Coherent cone from primal ball generators; dual side by exact polar."""
    return from_p_gens(ball_gens, dim, label=label or f"pcs({dim})")


def _units_and_ones(d: int) -> tuple[tuple[VecQ, ...], tuple[VecQ, ...]]:
    """The unit vectors and the all-ones point, each list canonical as it
    stands: no unit vector is under the hull of the others, and a single
    point is its own reduction. So the simplex and the cube need no LP."""
    units = sort_generators(unit(d, i) for i in range(d))
    return units, sort_generators([vec([1] * d)])


def simplex_pcs(d: int) -> ConeObject:
    """The probability-simplex ball: norm is the coordinate sum (l1-type)."""
    units, ones = _units_and_ones(d)
    return ConeObject(d, p_ball_gens=units, q_ball_gens=ones, label=f"simplex({d})")


def cube_pcs(d: int) -> ConeObject:
    """The unit-cube ball: norm is the coordinate max (linf-type), dual of
    the simplex."""
    units, ones = _units_and_ones(d)
    return ConeObject(d, p_ball_gens=ones, q_ball_gens=units, label=f"cube({d})")


def bool_obj() -> ConeObject:
    b = simplex_pcs(2)
    return ConeObject(
        dim=2, p_ball_gens=b.p_ball_gens, q_ball_gens=b.q_ball_gens, label="Bool"
    )


def pcs_matrix_to_morphism(u: MatQ, a: ConeObject, b: ConeObject) -> Morphism:
    """Rows of u are the images of a's coordinate basis: u[i][j] = (u e_i)_j.

    The Morphism matrix convention is columns-as-images, so this is a
    transpose. Positivity is validated; contractivity is the caller's
    business (check is_contraction / morphism_norm).
    """
    m = mat(u)
    if len(m) != a.dim:
        raise DimensionError(a.dim, len(m), "pcs matrix rows")
    if m and len(m[0]) != b.dim:
        raise DimensionError(b.dim, len(m[0]), "pcs matrix columns")
    return mor(a, b, transpose(m))


def morphism_to_pcs_matrix(f: Morphism) -> MatQ:
    return transpose(f.matrix)


def pcs_contraction_flag(u: MatQ, a: ConeObject, b: ConeObject) -> tuple[Morphism, bool]:
    """Morphism plus a flag: norm <= 1? (Norm > 1 is legal, just flagged.)"""
    f = pcs_matrix_to_morphism(u, a, b)
    return f, is_contraction(f)


# ---------------------------------------------------------------------------
# Spectral (PSD matrices)


def qcs_object(n: int) -> ConeObject:
    """The n x n real symmetric PSD cone; elements are flattened row-major.

    Primal norm is the trace norm, dual norm the operator norm; dual_object
    swaps them.
    """
    if n < 1:
        raise ValueError("qcs_object needs n >= 1")
    return ConeObject(
        dim=n * n,
        p_ball_gens=None,
        q_ball_gens=None,
        backend=Backend.SPECTRAL,
        label=f"qcs({n})",
        spectral_n=n,
        spectral_trace_primal=True,
    )


def as_matrix(a: ConeObject, x: Sequence) -> np.ndarray:
    n = a.spectral_n
    arr = np.asarray([float(v) for v in x], dtype=float)
    if arr.size != n * n:
        raise DimensionError(n * n, arr.size, "spectral element")
    return arr.reshape(n, n)


def _check_symmetric(m: np.ndarray) -> None:
    if not np.allclose(m, m.T, atol=PSD_TOL):
        raise MembershipError("matrix is not symmetric within tolerance")


def qcs_check_psd(m: np.ndarray) -> None:
    """Raise with an eigenvector witness if m is not PSD within PSD_TOL."""
    _check_symmetric(m)
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL:
        raise MembershipError(
            f"matrix has negative eigenvalue {w[0]:.3e}",
            witness=tuple(float(x) for x in v[:, 0]),
        )


def qcs_trace_norm(m: np.ndarray) -> float:
    """Trace norm of a PSD matrix: sum of eigenvalues = trace."""
    qcs_check_psd(m)
    return float(np.trace(m))


def qcs_op_norm(m: np.ndarray) -> float:
    """Operator norm of a PSD matrix: largest eigenvalue."""
    qcs_check_psd(m)
    return float(np.linalg.eigvalsh(m)[-1])


def qcs_pair(l: np.ndarray, m: np.ndarray) -> float:
    return float(np.trace(l @ m))


def qcs_duality_report(m: np.ndarray) -> dict:
    """Check both norm-duality identities, within DUAL_TOL, by independent
    numerical routes.

    sup over 0 <= L <= I of tr(LM) equals tr(M): left side evaluated by
    clipping the spectrum (the optimizer is the projector onto the positive
    eigenspace). sup over PSD trace-ball of tr(LM) equals lambda_max(M):
    left side evaluated through the SVD-based 2-norm, a different route from
    eigh.
    """
    qcs_check_psd(m)
    w = np.linalg.eigvalsh(m)
    sup_box = float(np.clip(w, 0.0, None).sum())
    trace = float(np.trace(m))
    sup_ball = float(np.linalg.norm(m, 2))
    lam_max = float(w[-1])
    return {
        "trace_norm_duality_abs_err": abs(sup_box - trace),
        "op_norm_duality_abs_err": abs(sup_ball - lam_max),
        "passed": abs(sup_box - trace) <= DUAL_TOL and abs(sup_ball - lam_max) <= DUAL_TOL,
        "tolerance": DUAL_TOL,
    }


def spectral_norm_primal(a: ConeObject, x: VecQ) -> float:
    m = as_matrix(a, x)
    if a.spectral_trace_primal:
        return qcs_trace_norm(m)
    return qcs_op_norm(m)


def check_psd_membership(a: ConeObject, x: VecQ) -> None:
    qcs_check_psd(as_matrix(a, x))


def matrix_from_json(rows: list[list[float]]) -> np.ndarray:
    return np.asarray(rows, dtype=float)

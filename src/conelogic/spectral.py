"""The spectral backend's arithmetic, the package's one home for floats.

backends.qcs_object is the n x n real symmetric PSD cone, the one cone here
that is not a lattice. Its trace norm (one side), operator norm (the other
side) and pairing tr(LM) are floats from eigendecompositions, within PSD_TOL
(membership and symmetry) and DUAL_TOL (norm duality). numpy is imported by
the functions that call it, so no exact request loads it. An object is read
through its spectral_n and spectral_trace_primal fields alone, so this
module imports nothing from cones, which calls it.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Sequence

from .errors import ConelogicError, DimensionError, MembershipError

if TYPE_CHECKING:
    import numpy as np

# Kept as the text the norm report prints, since repr(PSD_TOL) is '1e-09'.
_PSD_TOL_TEXT = "1e-9"
PSD_TOL = float(_PSD_TOL_TEXT)
DUAL_TOL = 1e-8
NORM_PROVENANCE = f"eigenvalue routine; PSD tolerance {_PSD_TOL_TEXT}"


def read_vector(values: list, path: str) -> tuple[float, ...]:
    """A spectral element from a vector file's list: finite numbers, no booleans."""
    if any(isinstance(v, bool) for v in values):
        raise ConelogicError(f"{path}: not a number in 'vector': a boolean")
    try:
        x = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConelogicError(f"{path}: not a number in 'vector': {e}") from e
    if not all(map(math.isfinite, x)):
        raise ConelogicError(f"{path}: 'vector' holds a value that is not finite")
    return x


def as_matrix(a, x: Sequence) -> np.ndarray:
    """The flattened element x of the spectral object a as its n x n matrix."""
    import numpy as np

    n = a.spectral_n
    arr = np.asarray([float(v) for v in x], dtype=float)
    if arr.size != n * n:
        raise DimensionError(n * n, arr.size, "spectral element")
    return arr.reshape(n, n)


def qcs_check_psd(m: np.ndarray) -> None:
    """Raise if m is not symmetric within PSD_TOL, and with an eigenvector
    witness if it is not PSD within PSD_TOL."""
    import numpy as np

    if not np.allclose(m, m.T, atol=PSD_TOL):
        raise MembershipError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL:
        raise MembershipError(
            f"matrix has negative eigenvalue {w[0]:.3e}",
            witness=tuple(float(x) for x in v[:, 0]),
        )


def qcs_trace_norm(m: np.ndarray) -> float:
    """Trace norm of a PSD matrix: sum of eigenvalues = trace."""
    qcs_check_psd(m)
    return float(m.trace())


def qcs_op_norm(m: np.ndarray) -> float:
    """Operator norm of a PSD matrix: largest eigenvalue."""
    import numpy as np

    qcs_check_psd(m)
    return float(np.linalg.eigvalsh(m)[-1])


def qcs_pair(l: np.ndarray, m: np.ndarray) -> float:
    return float((l @ m).trace())


def qcs_duality_report(m: np.ndarray) -> dict:
    """Check both norm-duality identities, within DUAL_TOL, by independent
    numerical routes.

    sup over 0 <= L <= I of tr(LM) equals tr(M): left side evaluated by
    clipping the spectrum (the optimizer is the projector onto the positive
    eigenspace). sup over PSD trace-ball of tr(LM) equals lambda_max(M):
    left side evaluated through the SVD-based 2-norm, a different route from
    eigh.
    """
    import numpy as np

    qcs_check_psd(m)
    w = np.linalg.eigvalsh(m)
    sup_box = float(np.clip(w, 0.0, None).sum())
    trace = float(m.trace())
    sup_ball = float(np.linalg.norm(m, 2))
    lam_max = float(w[-1])
    return {
        "trace_norm_duality_abs_err": abs(sup_box - trace),
        "op_norm_duality_abs_err": abs(sup_ball - lam_max),
        "passed": abs(sup_box - trace) <= DUAL_TOL and abs(sup_ball - lam_max) <= DUAL_TOL,
        "tolerance": DUAL_TOL,
    }


def spectral_norm_primal(a, x: Sequence) -> float:
    """The primal norm of x in the spectral object a: the trace norm, or the
    operator norm on the dual side."""
    m = as_matrix(a, x)
    return qcs_trace_norm(m) if a.spectral_trace_primal else qcs_op_norm(m)


def check_psd_membership(a, x: Sequence) -> None:
    qcs_check_psd(as_matrix(a, x))


def rand_psd(r: random.Random, n: int) -> np.ndarray:
    """Random PSD matrix G Gᵀ with Gaussian factors, multiplied out in Python."""
    import numpy as np

    g = [[r.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    rows = [[sum(g[i][k] * g[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return np.asarray(rows, dtype=float)

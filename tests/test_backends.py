"""PCS constructors and the float spectral backend."""

from fractions import Fraction

import numpy as np
import pytest

from conelogic.backends import (
    bool_obj,
    cube_pcs,
    morphism_to_pcs_matrix,
    pcs_contraction_flag,
    pcs_matrix_to_morphism,
    pcs_object,
    qcs_check_psd,
    qcs_duality_report,
    qcs_object,
    qcs_op_norm,
    qcs_pair,
    qcs_trace_norm,
    simplex_pcs,
)
from conelogic import cones, lp
from conelogic.cones import dual_object, from_both_gens, norm_primal, validate_object
from conelogic.errors import MembershipError
from conelogic.mall import identity, morphism_norm
from conelogic.rationals import mat, unit, vec

F = Fraction


def eye(n):
    return tuple(unit(n, i) for i in range(n))


def test_simplex_is_bool_and_cube_its_dual():
    assert simplex_pcs(2) == bool_obj()
    assert cube_pcs(2) == dual_object(bool_obj())


def test_simplex_and_cube_are_canonical_without_an_lp(monkeypatch):
    # the unit vectors and the all-ones point are canonical lists as they
    # stand, so the constructors solve no reduction LP
    solves = [0]
    real = lp.lp_maximize

    def counted(prob):
        solves[0] += 1
        return real(prob)

    monkeypatch.setattr(lp, "lp_maximize", counted)
    monkeypatch.setattr(cones, "lp_maximize", counted)
    for d in range(1, 7):
        units = [unit(d, i) for i in range(d)]
        ones = [vec([1] * d)]
        before = solves[0]
        s, c = simplex_pcs(d), cube_pcs(d)
        assert solves[0] == before
        assert s == from_both_gens(units, ones, d)
        assert c == from_both_gens(ones, units, d)
        assert (s.label, c.label) == (f"simplex({d})", f"cube({d})")
        assert c == dual_object(s)
    assert solves[0] > 0  # the reference route still reduces by LP


def test_pcs_objects_validate():
    for a in (simplex_pcs(3), cube_pcs(2), pcs_object([[1, 1], [2, 0]], 2)):
        assert validate_object(a).passed


def test_identity_round_trip():
    a = simplex_pcs(2)
    f = pcs_matrix_to_morphism(eye(2), a, a)
    assert f == identity(a)
    assert morphism_to_pcs_matrix(f) == eye(2)


def test_pcs_matrix_examples():
    a = simplex_pcs(2)
    u = mat([[F(1, 2), F(1, 2)], [0, 1]])
    f, ok = pcs_contraction_flag(u, a, a)
    assert ok and morphism_norm(f) == 1
    assert morphism_to_pcs_matrix(f) == u

    u2 = mat([[2, 0], [0, 1]])
    f2, ok2 = pcs_contraction_flag(u2, a, a)
    assert not ok2 and morphism_norm(f2) == 2
    assert morphism_to_pcs_matrix(f2) == u2


def test_pcs_round_trip_random():
    import random

    rng = random.Random(7)
    a = simplex_pcs(3)
    for _ in range(20):
        u = mat(
            [
                [F(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(3)]
                for _ in range(3)
            ]
        )
        f = pcs_matrix_to_morphism(u, a, a)
        assert morphism_to_pcs_matrix(f) == u


def test_trace_norm_diag():
    assert qcs_trace_norm(np.diag([1.0, 2.0])) == pytest.approx(3.0, abs=1e-12)


def test_op_norm_ones_matrix():
    assert qcs_op_norm(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(2.0, abs=1e-9)


def test_identity_over_n_has_unit_trace_norm():
    for n in (1, 2, 5):
        assert qcs_trace_norm(np.eye(n) / n) == pytest.approx(1.0, abs=1e-12)


def test_psd_rejection_carries_witness():
    m = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(MembershipError) as e:
        qcs_check_psd(m)
    v = np.array(e.value.witness)
    assert v @ m @ v < 0


def test_non_symmetric_rejected():
    with pytest.raises(MembershipError):
        qcs_trace_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_duality_report_random_psd():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        b = rng.normal(size=(n, n))
        m = b @ b.T
        rep = qcs_duality_report(m)
        assert rep["passed"], rep


def test_spectral_object_norms_and_membership():
    qc = qcs_object(2)
    m = np.diag([1.0, 2.0])
    flat = vec([1, 0, 0, 2])
    assert norm_primal(qc, flat) == pytest.approx(3.0)
    dual = dual_object(qc)
    assert norm_primal(dual, flat) == pytest.approx(2.0)  # operator norm side
    assert qcs_pair(np.eye(2), m) == pytest.approx(3.0)


def test_spectral_membership_error():
    from conelogic.cones import check_membership

    qc = qcs_object(2)
    with pytest.raises(MembershipError):
        check_membership(qc, vec([1, 0, 0, -1]))

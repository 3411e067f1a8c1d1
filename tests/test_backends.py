"""PCS constructors and the exact spectral backend."""

import random
from fractions import Fraction

import pytest

from conelogic.backends import (
    bool_obj,
    cube_pcs,
    morphism_to_pcs_matrix,
    pcs_contraction_flag,
    pcs_matrix_to_morphism,
    pcs_object,
    qcs_object,
    simplex_pcs,
)
from conelogic.cones import dual_object, from_both_gens, norm_primal, validate_object
from conelogic.errors import CapabilityError, MembershipError
from conelogic.mall import identity, morphism_norm
from conelogic.oracle import Bracket
from conelogic.rationals import mat, unit, vec
from conelogic.spectral import (
    psd_test,
    qcs_check_psd,
    qcs_duality_report,
    qcs_op_norm,
    qcs_pair,
    qcs_trace_norm,
    rand_psd,
    spectral_norm_bounds,
)
from reference import eye

F = Fraction


def test_simplex_is_bool_and_cube_its_dual():
    assert simplex_pcs(2) == bool_obj()
    assert cube_pcs(2) == dual_object(bool_obj())


def test_simplex_and_cube_are_canonical_without_an_lp(lp_solves):
    # the unit vectors and the all-ones point are canonical lists as they
    # stand, so the constructors solve no reduction LP
    for d in range(1, 7):
        units = [unit(d, i) for i in range(d)]
        ones = [vec([1] * d)]
        before = lp_solves[0]
        s, c = simplex_pcs(d), cube_pcs(d)
        assert lp_solves[0] == before
        assert s == from_both_gens(units, ones, d)
        assert c == from_both_gens(ones, units, d)
        assert (s.label, c.label) == (f"simplex({d})", f"cube({d})")
        assert c == dual_object(s)
    assert lp_solves[0] > 0  # the reference route still reduces by LP


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


def _quad(m, v):
    return sum(x * m[i][j] * y for i, x in enumerate(v) for j, y in enumerate(v))


def _rand_symmetric(rng, n):
    a = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return tuple(tuple(a[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))


def test_trace_norm_diag():
    assert qcs_trace_norm(mat([[1, 0], [0, 2]])) == 3


def test_op_norm_ones_matrix():
    # closed by the singular pass at the Gershgorin end: 2I - m has null vector (1, 1)
    br = qcs_op_norm(mat([[1, 1], [1, 1]]))
    assert (br.lower, br.upper) == (2, 2)
    assert _quad(mat([[1, 1], [1, 1]]), br.argmax) == 2 * sum(c * c for c in br.argmax)


def test_op_norm_pinned_brackets():
    for m, value in ((eye(3), 1), (mat([[1, 0], [0, 2]]), 2)):
        br = qcs_op_norm(m)
        assert (br.lower, br.upper) == (value, value)
    # lambda_max of [[2, 1], [1, 3]] is (5 + sqrt 5) / 2, irrational: x lies
    # below it iff (2x - 5)^2 < 5, for x > 5/2
    br = qcs_op_norm(mat([[2, 1], [1, 3]]))
    assert 5 < 2 * br.lower < 2 * br.upper
    assert (2 * br.lower - 5) ** 2 < 5 < (2 * br.upper - 5) ** 2


def test_op_norm_brackets_are_certified():
    # numpy is the tests' reference only; the package computes no float
    import numpy as np

    rng = random.Random(31)
    for _ in range(100):
        m, _ = rand_psd(rng, rng.randint(1, 8))
        br = qcs_op_norm(m)
        lam = np.linalg.eigvalsh(np.array(m, dtype=float))[-1]
        slack = 1e-12 * max(1.0, abs(lam))
        assert float(br.lower) - slack <= lam <= float(br.upper) + slack
        v = br.argmax
        assert _quad(m, v) == br.lower * sum(c * c for c in v)
        shifted = [[br.upper * (i == j) - c for j, c in enumerate(row)] for i, row in enumerate(m)]
        assert psd_test(shifted)[0]
        assert br.upper - br.lower <= br.upper / 2**20


def test_identity_over_n_has_unit_trace_norm():
    for n in (1, 2, 5):
        assert qcs_trace_norm(tuple(tuple(c / n for c in row) for row in eye(n))) == 1


def test_psd_rejection_carries_witness():
    m = mat([[1, 0], [0, F(-1, 2)]])
    with pytest.raises(MembershipError) as e:
        qcs_check_psd(m)
    assert _quad(m, e.value.witness) < 0


def test_psd_check_rejects_a_nearly_singular_matrix():
    # determinant -1e-11
    m = mat([[1, 1], [1, F(99999999999, 100000000000)]])
    with pytest.raises(MembershipError) as e:
        qcs_check_psd(m)
    assert _quad(m, e.value.witness) < 0


def test_psd_test_matches_the_eigenvalue_sign():
    import numpy as np

    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        m = _rand_symmetric(rng, rng.randint(1, 6))
        if rng.random() < 0.3:  # PSD, often singular
            cols = list(zip(*_rand_symmetric(rng, len(m))[: rng.randint(1, len(m))]))
            m = tuple(tuple(sum(a * b for a, b in zip(ci, cj)) for cj in cols) for ci in cols)
        psd, v = psd_test(m)
        low = np.linalg.eigvalsh(np.array(m, dtype=float))[0]
        if abs(low) >= 1e-6:
            assert psd == (low > 0), m
        singular += psd and v is not None
        if not psd:
            assert _quad(m, v) < 0
        elif v is not None:
            assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in m)
            assert any(v)
    assert singular > 20


def test_non_symmetric_rejected():
    with pytest.raises(MembershipError):
        qcs_trace_norm(mat([[1, 1], [0, 1]]))


def test_duality_report_random_psd():
    rng = random.Random(3)
    for _ in range(25):
        m, squares = rand_psd(rng, rng.randint(1, 8))
        assert qcs_trace_norm(m) == squares
        rep = qcs_duality_report(m)
        assert rep["passed"], rep


def test_spectral_object_norms_and_membership():
    qc = qcs_object(2)
    flat = vec([1, 0, 0, 2])
    assert spectral_norm_bounds(qc, flat) == Bracket(F(3), F(3))
    br = spectral_norm_bounds(dual_object(qc), flat)  # operator norm side
    assert (br.lower, br.upper) == (2, 2)
    assert qcs_pair(eye(2), mat([[1, 0], [0, 2]])) == 3
    for a in (qc, dual_object(qc)):
        with pytest.raises(CapabilityError, match="spectral_norm_bounds"):
            norm_primal(a, flat)


def test_spectral_membership_error():
    from conelogic.cones import check_membership

    qc = qcs_object(2)
    with pytest.raises(MembershipError):
        check_membership(qc, vec([1, 0, 0, -1]))

"""Fixtures shared by the test modules."""

import pytest

from conelogic import cones, lp


@pytest.fixture
def lp_solves(monkeypatch):
    """Counts every exact LP that the lp and cones modules solve: [count].
    lp_feasible and lp_minimize reach lp_maximize through the lp module."""
    count = [0]
    real = lp.lp_maximize

    def counted(prob):
        count[0] += 1
        return real(prob)

    monkeypatch.setattr(lp, "lp_maximize", counted)
    monkeypatch.setattr(cones, "lp_maximize", counted)
    return count

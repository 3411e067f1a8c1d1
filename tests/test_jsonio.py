"""JSON forms for rationals and vectors, and canonical reports."""

from fractions import Fraction as F

import pytest

from conelogic.errors import EnvError
from conelogic.jsonio import dump_report, frac_str, parse_frac, parse_vec, vec_json


def test_frac_round_trip():
    for x in [F(0), F(3), F(-2), F(3, 4), F(-5, 7), F(10**9, 7)]:
        assert parse_frac(frac_str(x)) == x
    assert frac_str(F(3)) == "3"
    assert frac_str(F(3, 4)) == "3/4"
    assert parse_frac(5) == F(5)


def test_parse_frac_rejects_inexact():
    with pytest.raises(EnvError, match="floats"):
        parse_frac(0.5)
    with pytest.raises(EnvError):
        parse_frac(True)
    for entry, kind in ((["1"], "array"), (None, "null"), ({"n": 1}, "object")):
        with pytest.raises(EnvError, match=f"a JSON {kind}") as info:
            parse_frac(entry)
        assert "floats" not in str(info.value)
    with pytest.raises(EnvError):
        parse_frac("1/0")
    with pytest.raises(EnvError):
        parse_frac("pi")


def test_vec_round_trip():
    v = (F(1, 2), F(0), F(7))
    assert parse_vec(vec_json(v)) == v


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": [1, 2]})
    b = dump_report({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")

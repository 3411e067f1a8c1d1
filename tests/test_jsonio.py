"""JSON forms for rationals and vectors, and canonical reports."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_parse(v):
    """The plain definition: Fraction's own parser, its failures an EnvError."""
    try:
        return F(v)
    except (ValueError, ZeroDivisionError):
        return f"not a rational: {v!r}"


@pytest.mark.parametrize(
    "text",
    ["0", "7", "007", "10/4", "0/9", "012/030", "-1/2", "+3", "1.5", "1e2", " 7 ", "\u0663",
     "\u00b2", "1/0", "0/0", "x", "", "/2", "1/", "1/2/3", "1" * 5000, "1/" + "3" * 5000],
    ids=lambda t: ascii(t) if len(t) < 20 else f"{len(t)}-chars",
)
def test_parse_frac_matches_the_fraction_parser(text):
    ref = _reference_parse(text)
    if isinstance(ref, str):
        with pytest.raises(EnvError) as info:
            parse_frac(text)
        assert str(info.value) == ref
    else:
        got = parse_frac(text)
        assert got == ref and type(got) is F


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"\A[0-9]{1,6}(/[0-9]{1,6})?\Z"))
def test_parse_frac_on_digit_strings(text):
    ref = _reference_parse(text)
    if isinstance(ref, str):
        with pytest.raises(EnvError, match="not a rational"):
            parse_frac(text)
    else:
        assert parse_frac(text) == ref


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30) | st.fractions(max_denominator=10**12))
def test_frac_str_round_trip(x):
    s = frac_str(x)
    assert parse_frac(s) == x and type(parse_frac(s)) is F
    assert s == frac_str(F(x))

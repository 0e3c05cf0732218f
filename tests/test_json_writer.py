"""The report writer against the standard library: ``_emit`` prints exactly
what ``json.dumps(report, indent=2, sort_keys=True)`` prints, writes
non-finite floats as the strings float() reads back, and refuses any value
json has no exact built-in form for.

Derandomized and without an example database, so every run draws the same
examples and none is replayed from an earlier run."""
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biqz.cli import _emit

PROPERTY = settings(derandomize=True, database=None, max_examples=200)
# quotes, backslashes, control characters, DEL, non-ASCII, astral and a lone surrogate
AWKWARD = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t aé€ 𝄞\ud800'
texts = st.text(st.sampled_from(AWKWARD), max_size=8) | st.text(max_size=8)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1])
ints = st.integers() | st.sampled_from([2**53 + 1, -(2**63), 10**30, 0, -1])
scalars = texts | floats | ints | st.booleans() | st.none()
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=24,
)
reports = st.dictionaries(texts, values, max_size=6)


def _printed(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, True)
    return out.getvalue()


def _refuse(token):
    raise AssertionError(f"non-JSON token {token}")


@PROPERTY
@given(reports)
def test_matches_json_dumps(report):
    assert _printed(report) == json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("report", [{}, {"a": {}}, {"a": []}, {"a": ()}, {"a": [[], {}, ()]}])
def test_empty_containers(report):
    assert _printed(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_non_finite_floats_are_strings():
    report = {"a": [math.inf, -math.inf, math.nan], "b": {"c": (math.inf, 1.5)}}
    parsed = json.loads(_printed(report), parse_constant=_refuse)
    assert parsed == {"a": ["inf", "-inf", "nan"], "b": {"c": ["inf", 1.5]}}
    assert [float(t) for t in parsed["a"][:2]] == [math.inf, -math.inf]
    assert math.isnan(float(parsed["a"][2]))


@pytest.mark.parametrize("report", [
    {"a": 1j},
    {"a": [{1, 2}]},
    {"a": frozenset()},
    {"a": b"bytes"},
    {1: "a"},
    {"a": {2: "b"}},
    {"a": {None: "b"}},
    {"a": 1, 2: "b"},
])
def test_unwritable_values_raise(report):
    with pytest.raises(TypeError):
        _emit(report, True)

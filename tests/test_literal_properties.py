"""Property tests of the literal grammar: format/parse round trips, literals
spelled every legal way, and arbitrary text over the grammar's alphabet.

Derandomized and without an example database, so every run draws the same
examples and none is replayed from an earlier run."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biqz import Biquaternion, LiteralParseError, format_literal, parse

PROPERTY = settings(derandomize=True, database=None, max_examples=400)
AXES = {"": 0, "i": 1, "j": 2, "k": 3}
DIGITS = st.text("0123456789", min_size=1, max_size=4)
SIGN = st.sampled_from(["+", "-"])
finite = st.floats(allow_nan=False, allow_infinity=False)
components = st.builds(complex, finite, finite)


def _sign(text: str) -> float:
    return -1.0 if text == "-" else 1.0


@st.composite
def reals(draw) -> str:
    """An unsigned real in any spelling: 7, 7., 7.25, .25, each with an optional exponent."""
    whole, frac = draw(DIGITS), draw(DIGITS)
    text = draw(st.sampled_from([whole, whole + ".", f"{whole}.{frac}", "." + frac]))
    if draw(st.booleans()):
        exponent = draw(st.text("0123456789", min_size=1, max_size=2))
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + exponent
    return text


@st.composite
def terms(draw) -> tuple[str, int, complex]:
    """(text, axis, value) of one unsigned term in one of the four forms."""
    unit = draw(st.sampled_from(list(AXES)))
    form = draw(st.sampled_from(["paren", "real", "imaginary", "bare"]))
    if form == "bare":
        unit = draw(st.sampled_from("ijk"))
        return unit, AXES[unit], complex(1.0, 0.0)
    re_text = draw(reals())
    if form == "paren":
        re_sign, im_sign, im_text = draw(st.sampled_from(["", "+", "-"])), draw(SIGN), draw(reals())
        value = complex(_sign(re_sign) * float(re_text), _sign(im_sign) * float(im_text))
        return f"({re_sign}{re_text}{im_sign}{im_text}I){unit}", AXES[unit], value
    if form == "imaginary":
        return f"{re_text}I{unit}", AXES[unit], complex(0.0, float(re_text))
    return re_text + unit, AXES[unit], complex(float(re_text), 0.0)


@st.composite
def literals(draw) -> tuple[str, list[complex]]:
    """A literal of one to five terms, whitespace strewn anywhere, and its
    components summed with the float operations the grammar defines."""
    comps = [0j, 0j, 0j, 0j]
    text = ""
    for n, (term, axis, value) in enumerate(draw(st.lists(terms(), min_size=1, max_size=5))):
        sign = draw(st.sampled_from(["", "+", "-"]) if n == 0 else SIGN)
        comps[axis] += _sign(sign) * value
        text += sign + term
    spaces = draw(st.lists(st.sampled_from(["", "", " ", "\t", "\n "]), min_size=len(text) + 1,
                           max_size=len(text) + 1))
    return "".join(s + c for s, c in zip(spaces, text + " ")), comps


@PROPERTY
@given(components, components, components, components)
def test_format_then_parse_round_trips(w, x, y, z):
    q = Biquaternion(w, x, y, z)
    assert parse(format_literal(q)) == q


@PROPERTY
@given(literals())
def test_every_legal_spelling_sums_its_terms(case):
    text, comps = case
    want = [part for c in comps for part in (c.real, c.imag)]
    assert [repr(c) for c in parse(text).components()] == [repr(c) for c in want], text


@PROPERTY
@given(st.text("0123456789.eE+-()Iijk \t", max_size=24))
def test_any_text_parses_or_raises_literal_parse_error(text):
    try:
        parse(text)
    except LiteralParseError:
        pass


@PROPERTY
@given(terms(), terms())
def test_a_unit_must_be_followed_by_a_sign(first, second):
    # after 'i', 'j' or 'k' only a sign may follow, so 1i2j is refused
    if first[0][-1] in "ijk":
        with pytest.raises(LiteralParseError):
            parse(first[0] + second[0])

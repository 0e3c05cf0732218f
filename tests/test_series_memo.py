"""The series loop on memoized sequences: warm memo reads, scalar terms at
biquaternion points, scalar points embedded without the constructor, and the
refusal of a point whose inverse leaves double range."""
import json
import random

import pytest

from biqz import (
    ONE,
    Biquaternion,
    LinearRecurrence,
    OutsideROCError,
    Sequence,
    ZeroDivisorError,
    as_biquaternion,
    catalog,
    parse,
    transform,
    transform_value,
)
from biqz.cli import main

from helpers import reference_transform, unsigned_zeros


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _outcome(fn, *args, **kwargs):
    try:
        tv = fn(*args, **kwargs)
    except Exception as exc:  # the type and message are the outcome
        return ("raised", type(exc), str(exc))
    return ("value", _reprs(tv.value), tv.terms_used, repr(tv.tail_bound))


def _signed(rng: random.Random, choices) -> complex:
    return complex(rng.choice(choices), rng.choice(choices))


# biquaternion points outside radius 1 (smaller root magnitude above 1), with -0.0 parts
SIGNED_ZERO_POINTS = [
    Biquaternion(2.5, -0.0, complex(0.3, -0.0), -0.2),
    Biquaternion(complex(-3.0, -0.0), complex(-0.0, 0.4), 0.3, complex(0.2, -0.0)),
    Biquaternion(complex(-0.0, 2.0), complex(0.5, -0.0), complex(-0.0, -0.0), -0.25),
    Biquaternion(1.75, 0.5j, complex(-0.0, 0.25), complex(-0.0, -0.0)),
    parse("-2-0.5Ii+0.25k"),
]


class TestOverflowingInverse:
    """x**-1 of a point below the normal range leaves double range; a radius
    hint that rules the point out says so before that overflow."""

    @pytest.mark.parametrize("entry", [catalog.pow_p(0.5), catalog.const_one()], ids=lambda e: e.name)
    def test_the_hint_refuses_first(self, entry):
        with pytest.raises(OutsideROCError, match="radius hint"):
            transform(entry.sequence, 1e-320)
        with pytest.raises(OutsideROCError):
            entry.eval(1e-320)

    @pytest.mark.parametrize("argv", [["pow_p", "--param", "p=0.5"], ["const_one"]])
    def test_cli_exits_as_a_domain_error(self, capsys, argv):
        code = main(["eval", *argv, "--at", "1e-320", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["errors"][0]["name"] == "OutsideROC"

    def test_without_a_hint_the_overflow_stays(self):
        bare = Sequence(catalog.const_one().sequence.term)
        got = _outcome(transform, bare, 1e-320)
        assert got == _outcome(reference_transform, Sequence(catalog.const_one().sequence.term), 1e-320)
        assert got[:2] == ("raised", ValueError)

    def test_a_zero_divisor_is_still_reported_first(self):
        with pytest.raises(ZeroDivisorError):
            transform(catalog.const_one().sequence, parse("1e-320+1e-320Ik"))


ROWS = {"pow_p": lambda: catalog.pow_p(0.5), "exp_over_fact": lambda: catalog.exp_over_fact(0.5)}
EVALUATORS = {
    "transform": lambda entry, x: transform(entry.sequence, x),
    "eval": lambda entry, x: entry.eval(x),
}


class TestOneAdmissionOrder:
    """transform, CatalogEntry.eval and transform_value admit a point by one rule
    in one order: ZeroDivisorError for a point with no inverse, then
    OutsideROCError at or inside the radius, then the constructor's ValueError
    where x**-1 leaves double range."""

    @pytest.mark.parametrize("how", list(EVALUATORS))
    @pytest.mark.parametrize("row, point, error", [
        ("pow_p", "1+1Ik", ZeroDivisorError),
        ("pow_p", "0.3", OutsideROCError),
        ("pow_p", "1e-320", OutsideROCError),
        ("exp_over_fact", "1+1Ik", ZeroDivisorError),
        ("exp_over_fact", "1e-320", ValueError),  # radius 0 refuses nothing, and x**-1 overflows
    ])
    def test_catalog_rows(self, how, row, point, error):
        with pytest.raises(Exception) as raised:
            EVALUATORS[how](ROWS[row](), parse(point))
        assert raised.type is error

    @pytest.mark.parametrize("point, error", [
        (0, ZeroDivisorError),
        (0.3, OutsideROCError),
        (1e-320, OutsideROCError),
    ])
    def test_transform_value(self, point, error):
        rec = LinearRecurrence([-0.5, ONE], [ONE])  # f_n = 0.5**n, estimated radius 0.5
        with pytest.raises(Exception) as raised:
            transform_value(rec, point)
        assert raised.type is error

    @pytest.mark.parametrize("point, code, name", [("1+1Ik", 3, "ZeroDivisor"), ("1e-320", 2, "Value")])
    def test_cli(self, capsys, point, code, name):
        got = main(["eval", "exp_over_fact", "--param", "q=0.5", "--at", point, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert got == code
        assert report["errors"][0]["name"] == name


class TestScalarTermsAtBiquaternionPoints:
    @pytest.mark.parametrize("build", [catalog.const_one, catalog.ramp_n, catalog.ramp_n2])
    @pytest.mark.parametrize("x", SIGNED_ZERO_POINTS, ids=range(len(SIGNED_ZERO_POINTS)))
    @pytest.mark.parametrize("max_terms", [5, 4096])
    def test_catalog_rows(self, build, x, max_terms):
        got = _outcome(transform, build().sequence, x, max_terms=max_terms)
        assert got == _outcome(reference_transform, build().sequence, x, max_terms=max_terms)
        assert got[0] == "value"

    @pytest.mark.parametrize("seed", range(6))
    def test_complex_scalar_terms_with_signed_zero_vector_parts(self, seed):
        rng = random.Random(400 + seed)
        parts = [0.0, -0.0, 0.0, -0.0, 1.0, -0.5]

        def scalar():
            zeros = (_signed(rng, [0.0, -0.0]) for _ in range(3))
            return Biquaternion(_signed(rng, parts), *zeros)

        terms = [scalar() for _ in range(30)]
        # scalar terms scale x**-n, which differs from the full products only in zero signs
        for first in (Biquaternion(1.0, complex(-0.0, 0.0)), Biquaternion(complex(0.5, 0.25)), terms[0]):
            values = [first, *terms[1:]]
            for x in (*SIGNED_ZERO_POINTS, Biquaternion(3.0, _signed(rng, [0.0, -0.0]), -0.0, 0.5)):
                for max_terms in (3, 12, 4096):
                    got = _outcome(transform, Sequence.from_terms(values), x, max_terms=max_terms)
                    want = _outcome(reference_transform, Sequence.from_terms(values), x, max_terms=max_terms)
                    assert unsigned_zeros(got) == unsigned_zeros(want)


def _sequences():
    """Builders of fresh, identical sequences, stepped and not."""
    p = parse("0.9+0.3i-0.1Ij+0.05k")
    return [
        lambda: Sequence.geometric(p),
        lambda: catalog.n_pow_p(p).sequence,
        lambda: catalog.ramp_n2().sequence,
        lambda: catalog.cos_qn(parse("0.3+0.1i")).sequence,
        lambda: Sequence(catalog.binom(2, p).sequence.term),
    ]


# the near point takes well over 50 terms, the far one far fewer
NEAR = parse("1.4+0.1i+0.05Ij")
FAR = parse("9+0.5i-0.25k")


class TestWarmMemos:
    """A sum over terms already memoized equals the sum over a fresh sequence."""

    @pytest.mark.parametrize("build", _sequences(), ids=["geometric", "n_pow_p", "ramp_n2", "cos_qn", "binom"])
    @pytest.mark.parametrize("state", ["full", "part", "gaps"])
    def test_second_point_matches_a_fresh_sequence(self, build, state):
        warm = build()
        if state == "full":  # the first sum reads more terms than the second
            transform(warm, NEAR)
            x = FAR
        elif state == "part":
            transform(warm, FAR)
            x = NEAR
        else:  # read term 50 first: the memo has a gap below and above it
            warm.term(50)
            x = NEAR
        got = _outcome(transform, warm, x)
        assert got == _outcome(transform, build(), x)
        assert got == _outcome(reference_transform, build(), x)
        assert got[0] == "value"
        if x is NEAR:
            assert got[2] > 50


class _Complex(complex):
    pass


EMBEDDED = [
    3, -7, 2.5, -0.0, 0.0, complex(1.5, -2.0), complex(-0.0, -0.0), complex(0.0, -0.0),
    True, False, _Complex(1.0, -0.0), 10**400, float("inf"), float("-inf"), float("nan"),
    complex(1.0, float("inf")), complex(float("nan"), 0.0),
]


class TestEmbeddedScalars:
    @pytest.mark.parametrize("value", EMBEDDED, ids=repr)
    def test_as_the_constructor(self, value):
        def built(fn):
            try:
                q = fn(value)
            except Exception as exc:  # the type and message are the outcome
                return ("raised", type(exc), str(exc))
            return (type(q), _reprs(q))

        got = built(as_biquaternion)
        assert got == built(Biquaternion)
        assert got[0] in (Biquaternion, "raised")

    def test_embedded_values_are_immutable(self):
        q = as_biquaternion(2.0)
        with pytest.raises(AttributeError):
            q.w = 1j
        assert q == Biquaternion(2.0) and hash(q) == hash(2.0)

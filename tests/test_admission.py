"""The admission of a transform point: ``algebra._admit`` takes x's complex norm
once and shares it between the inverse and the root magnitudes, each CLI check
point is admitted once, and so is each point of a transform-domain solve."""
import json
import math
import random
from pathlib import Path

import pytest

import biqz.algebra
import biqz.catalog
import biqz.cli
import biqz.recurrence
import biqz.ztransform
from biqz import Biquaternion, OutsideROCError, ZeroDivisorError, catalog
from biqz.algebra import INVERTIBILITY_TOL, _admit, root_magnitudes
from biqz.cli import _load_recurrence, load_bundled_spec, main
from biqz.recurrence import ForcingTerm, LinearRecurrence, transform_value
from biqz.sequences import Sequence
from biqz.ztransform import delay_transform, transform

from helpers import rand_biquat

SUBNORMAL = 5e-324
BASES = [
    Biquaternion(0.5 + 0.25j),
    Biquaternion(1.0, 0.5, -0.25),
    Biquaternion(0.75 - 0.5j, 0.25j, -0.5 + 0.125j, 0.375),
    Biquaternion(-1.0, 0.0, -0.0, 0.5j),
]
SCALES = [1e-300, 1e-200, 1e-162, 1e-155, 1e-100, 1.0, 1e100, 1e154, 1e160, 1e200, 1e300]


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _near_tolerance() -> list[Biquaternion]:
    """1 + s*Ik has |cns| / size**2 = |1 - s*s| / (1 + s*s): bisect s over the
    doubles above 1 for the last one invertible and the first one refused."""
    def point(s):
        return Biquaternion(1.0, 0.0, 0.0, s * 1j)

    ok, refused = 1.0 + 4 * INVERTIBILITY_TOL, 1.0
    assert point(ok).is_invertible() and not point(refused).is_invertible()
    while math.nextafter(refused, 2.0) < ok:
        mid = (ok + refused) / 2
        if point(mid).is_invertible():
            ok = mid
        else:
            refused = mid
    return [point(ok), point(refused), point(ok) * 1e200, point(refused) * 1e-200]


POINTS = [
    *(base * scale for base in BASES for scale in SCALES),
    Biquaternion(1.0, SUBNORMAL, -SUBNORMAL * 1j, 1e-310),  # subnormal vector parts
    Biquaternion(complex(SUBNORMAL, 1e-310)),  # a subnormal point: x**-1 leaves double range
    Biquaternion(1e-160, 1e-310j),
    Biquaternion(complex(-0.0, 2.0), -0.0, 0.0, complex(0.0, -0.0)),  # signed zeros
    Biquaternion(complex(-3.0, -0.0), complex(-0.0, -0.0), -0.0, -0.0),
    Biquaternion(1e-320),
    Biquaternion(-1e-320j),
    Biquaternion(0.0),
    Biquaternion(1.0, 0.0, 0.0, 1j),  # 1 + 1Ik, a zero divisor
    *_near_tolerance(),
    # generic components, whose complex norm rounds in the order it is summed
    *(rand_biquat(rng, 10.0 ** rng.uniform(-160, 160)) for rng in [random.Random(31)] for _ in range(24)),
]


def _expected(x: Biquaternion, radius, label: str):
    """What x.inverse() and root_magnitudes(x)[1] <= radius say, in the documented
    order: ZeroDivisorError, then OutsideROCError, then the constructor's ValueError."""
    try:
        inv, overflow = x.inverse(), None
    except ZeroDivisorError as exc:
        return ("raised", ZeroDivisorError, str(exc))
    except ValueError as exc:
        inv, overflow = None, exc
    if radius is not None and (smaller := root_magnitudes(x)[1]) <= radius:
        return ("raised", OutsideROCError, f"smaller root magnitude {smaller} of x <= {label} {radius}")
    if overflow is not None:
        return ("raised", ValueError, str(overflow))
    return ("value", _reprs(inv))


def _got(x, radius, label: str):
    try:
        inv = _admit(x, radius, label)
    except Exception as exc:  # the type and message are the outcome
        return ("raised", type(exc), str(exc))
    return ("value", _reprs(inv))


class TestSharedNormAdmission:
    @pytest.mark.parametrize("x", POINTS, ids=range(len(POINTS)))
    def test_matches_inverse_and_root_magnitudes(self, x):
        smaller = root_magnitudes(x)[1]
        # no radius; radii exactly at, just below and just above the smaller root magnitude
        radii = [None, 0.0, smaller, math.nextafter(smaller, -math.inf), math.nextafter(smaller, math.inf)]
        for radius in radii:
            if radius is not None and not radius >= 0.0:
                continue
            assert _got(x, radius, "radius hint") == _expected(x, radius, "radius hint"), radius

    def test_the_grid_reaches_every_outcome(self):
        outcomes = (_expected(x, r, "r") for x in POINTS for r in (None, root_magnitudes(x)[1]))
        kinds = {got[1] if got[0] == "raised" else "value" for got in outcomes}
        assert kinds == {"value", ZeroDivisorError, OutsideROCError, ValueError}

    def test_both_sides_of_the_tolerance(self):
        ok, refused = _near_tolerance()[:2]
        assert _got(ok, None, "r")[0] == "value"
        assert _got(refused, None, "r")[1] is ZeroDivisorError

    def test_scalar_points_embed_as_the_constructor_would(self):
        for x in (2, 0.5, 1.5 - 2j, True):
            assert _got(x, 0.25, "r") == _expected(Biquaternion(x), 0.25, "r")


def _counted(monkeypatch, modules, name: str) -> list:
    """The calls to ``name``, wrapped where each of ``modules`` looks it up."""
    calls, real = [], getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _admissions(monkeypatch) -> list:
    return _counted(monkeypatch, (biqz.cli, biqz.ztransform, biqz.catalog, biqz.recurrence), "_admit")


def _count_admissions(monkeypatch, argv: list[str]) -> int:
    calls = _admissions(monkeypatch)
    main(argv)
    return len(calls)


class TestOneAdmissionPerCheckPoint:
    def test_verify_catalog(self, monkeypatch, capsys):
        n = _count_admissions(monkeypatch, ["verify-catalog", "--seed", "0", "--json"])
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        points = sum(row["variants"] * row["points_per_variant"] for row in rows)
        assert points == 240  # ten rows of 20 points; cos_qn and sin_qn have two variants
        assert n == points

    def test_eval(self, monkeypatch, capsys):
        assert _count_admissions(monkeypatch, ["eval", "pow_p", "--param", "p=0.5", "--at", "2"]) == 1
        assert "PASS" in capsys.readouterr().out


class TestOneAdmissionPerSolvePoint:
    def test_recurrence_spec(self, monkeypatch, capsys):
        spec = str(Path(biqz.cli.__file__).parent / "specs" / "example4.json")
        # 3 sample points: one admission for the solve, one for the direct series cross-check
        assert _count_admissions(monkeypatch, ["recurrence", spec, "--json"]) == 6
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_paper_suite(self, monkeypatch, capsys):
        assert _count_admissions(monkeypatch, ["paper-suite", "--json"]) == 24
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_transform_value(self, monkeypatch):
        payload = load_bundled_spec("example4")
        rec = _load_recurrence(payload)
        calls = _admissions(monkeypatch)
        for n, literal in enumerate(payload["x_samples"], 1):
            transform_value(rec, biqz.parse(literal))
            assert len(calls) == n

    def test_delay_transform_inverts_once(self, monkeypatch):
        f, x = catalog.pow_p(0.5).sequence, Biquaternion(2.0, 0.5, 0.0, 0.25j)
        expected = transform(f, x).value * x.inverse() ** 3
        inversions = _counted(monkeypatch, (biqz.algebra,), "_inverse")
        got = delay_transform(f, 3, x)
        assert len(inversions) == 1
        assert _reprs(got) == _reprs(expected)


def _cancelling(with_entry: bool, coeffs=(-0.5, 1), initial=(1,)) -> LinearRecurrence:
    """f(n+1) - 0.5*f(n) = g(n+1) - 2*g(n) with g = 2**n: the right side is exactly 0,
    so f = 0.5**n, whose estimated radius is 0.5, and the forcing radius is 2."""
    entry = catalog.pow_p(2)
    g = entry.sequence if with_entry else Sequence(entry.sequence.term, radius_hint=entry.roc_radius)
    return LinearRecurrence(coeffs, initial, [ForcingTerm(g, [-2, 1], entry=entry if with_entry else None)])


class TestSolveRadius:
    """One admission refuses every point that the estimate or a forcing radius refuses,
    with one label, and leaves the values at admitted points bit for bit."""

    @pytest.mark.parametrize("with_entry", [True, False])
    @pytest.mark.parametrize("x", [1, 2, 0.5, 0.3])
    def test_forcing_radius_refuses(self, with_entry, x):
        with pytest.raises(OutsideROCError):
            transform_value(_cancelling(with_entry), x)

    @pytest.mark.parametrize("with_entry", [True, False])
    def test_one_label_names_the_largest_radius(self, with_entry):
        with pytest.raises(OutsideROCError, match=r"^smaller root magnitude 0\.3 of x <= solve radius 2\.0$"):
            transform_value(_cancelling(with_entry), 0.3)

    @pytest.mark.parametrize("with_entry, x, value", [
        (True, 2.5, 1.25),
        (True, 4, 1.1428571428571428),
        (False, 2.5, 1.2499999999997993),
        (False, 4, 1.142857142856623),
    ])
    def test_values_outside_every_radius(self, with_entry, x, value):
        assert _reprs(transform_value(_cancelling(with_entry), x)) == _reprs(Biquaternion(value))

    @pytest.mark.parametrize("with_entry", [True, False])
    def test_limits_are_checked_first(self, with_entry):
        with pytest.raises(ValueError, match="eps must be positive"):
            transform_value(_cancelling(with_entry), 3, eps=0)

    def test_zero_is_not_invertible(self):
        with pytest.raises(ZeroDivisorError):
            transform_value(_cancelling(True), 0)

    @pytest.mark.parametrize("with_entry", [True, False])
    def test_refusal_precedes_the_solve(self, with_entry):
        # P(x) = x - 1.5 is singular at 1.5 and f = 0 estimates radius 0, so only
        # the forcing radius refuses 1.5: refusal comes before the singular P(x)
        rec = _cancelling(with_entry, coeffs=(-1.5, 1), initial=(0,))
        with pytest.raises(OutsideROCError, match="solve radius 2.0"):
            transform_value(rec, 1.5)

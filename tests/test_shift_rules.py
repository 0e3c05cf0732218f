"""The shifting rule X[f(.+k)](x) = X[f](x)*x**k - sum_{t<k} f_t * x**(k-t) and its
delay X[f(.-k)](x) = X[f](x)*x**-k: one boundary helper, ``ztransform._shift_boundary``,
and one certified read of X[f], ``ztransform._certified``, serve ``advance_transform``,
``delay_transform`` and the transform-domain solve."""
import random

import pytest

import biqz.algebra
import biqz.recurrence
import biqz.ztransform
from biqz import Biquaternion, NoConvergenceError, ZeroDivisorError, catalog
from biqz.algebra import root_magnitudes
from biqz.catalog import draw_conditioned
from biqz.sequences import Sequence, advance, delay
from biqz.ztransform import advance_transform, delay_transform, transform

from helpers import rel_err

SHIFTS = [advance_transform, delay_transform]


def _pow_099() -> Sequence:
    # X[f](1) = 1 / (1 - 0.99) = 100, after 3,208 terms at the default eps
    return catalog.build("pow_p", {"p": "0.99"}).sequence


def _counted(monkeypatch, name: str) -> list:
    calls, real = [], getattr(biqz.algebra, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(biqz.algebra, name, counted)
    return calls


class TestCertifiedRead:
    @pytest.mark.parametrize("shift", SHIFTS, ids=lambda s: s.__name__)
    def test_truncated_series_raises(self, shift):
        # five terms of 0.99**n fill no ratio window: the tail bound is inf
        with pytest.raises(NoConvergenceError, match=r"^series uncertified after 5 terms \(tail bound inf\)"):
            shift(_pow_099(), 1, 1.0, max_terms=5)

    @pytest.mark.parametrize("shift, want", [(advance_transform, 99.0), (delay_transform, 100.0)],
                             ids=["advance", "delay"])
    def test_default_limits_certify(self, shift, want):
        assert rel_err(shift(_pow_099(), 1, 1.0), want) <= 1e-12


class TestOneRule:
    def test_the_solve_shares_the_helpers(self):
        assert biqz.recurrence._shift_boundary is biqz.ztransform._shift_boundary
        assert biqz.recurrence._certified is biqz.ztransform._certified
        assert not hasattr(biqz.recurrence, "_series")

    def test_boundary_takes_shift_coefficient_pairs(self):
        # sum_{t<2} v_t * x**(2-t) * c with v = 1, 2 and c = 3: (1*4 + 2*2) * 3 at x = 2
        got = biqz.ztransform._shift_boundary([1, 2].__getitem__, [(2, Biquaternion(3))], [1, 2, 4])
        assert got == Biquaternion(24)


def test_noncommuting_sweep():
    # 200 geometric sequences at biquaternion points that do not commute with
    # their ratio; eps is well below the x**k amplification of the truncation
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        p = draw_conditioned(rng)
        p = p * (rng.uniform(0.3, 1.2) / root_magnitudes(p)[0])
        x = draw_conditioned(rng)
        x = x * (rng.uniform(2.0, 3.0) * root_magnitudes(p)[0] / root_magnitudes(x)[1])
        assert not p.commutes_with(x)
        f, k = Sequence.geometric(p), rng.choice([1, 2, 3])
        worst = max(
            worst,
            rel_err(advance_transform(f, k, x, eps=1e-13), transform(advance(f, k), x, eps=1e-13).value),
            rel_err(delay_transform(f, k, x, eps=1e-13), transform(delay(f, k), x, eps=1e-13).value),
        )
    assert worst <= 1e-11


class TestAdmission:
    def test_advance_inverts_once(self, monkeypatch):
        # as delay_transform does (tests/test_admission.py)
        f, x = catalog.pow_p(0.5).sequence, Biquaternion(2.0, 0.5, 0.0, 0.25j)
        inversions = _counted(monkeypatch, "_inverse")
        advance_transform(f, 3, x)
        assert len(inversions) == 1

    @pytest.mark.parametrize("shift", SHIFTS, ids=lambda s: s.__name__)
    def test_limits_come_before_the_point(self, shift):
        with pytest.raises(ValueError, match="eps must be positive"):
            shift(Sequence.constant(1), 1, 0, eps=0)
        with pytest.raises(ValueError, match="max_terms must be positive"):
            shift(Sequence.constant(1), 1, 0, max_terms=0)
        with pytest.raises(ZeroDivisorError):
            shift(Sequence.constant(1), 1, 0)

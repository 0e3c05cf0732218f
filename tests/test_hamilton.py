"""The one Hamilton product, ``algebra._hamilton``, and the raw gap beside it.

Every raw-component loop and ``__mul__`` share ``_hamilton``, so comparing a
loop with Biquaternion operations cannot see a change in its rounding.  These
tests pin its operand order against a literal copy in ``helpers`` instead.
"""
import random

import pytest

from biqz.algebra import Biquaternion, _gap, _hamilton, isclose

from helpers import literal_mul, rand_biquat

ZERO_PARTS = (0.0, -0.0)


def _reprs(q) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _signed_zeros(rng: random.Random) -> Biquaternion:
    """A value whose parts are mostly 0.0 or -0.0, the rest small integers."""
    return Biquaternion.from_components(
        rng.choice([*ZERO_PARTS, *ZERO_PARTS, 1.0, -2.0]) for _ in range(8))


def _pairs(draw, seed: int, count: int):
    rng = random.Random(seed)
    return [(draw(rng), draw(rng)) for _ in range(count)]


class TestOperandOrder:
    @pytest.mark.parametrize("draw", [lambda rng: rand_biquat(rng, 3.0), _signed_zeros],
                             ids=["random", "signed_zeros"])
    def test_mul_matches_the_literal_expressions_bitwise(self, draw):
        for p, q in _pairs(draw, 17, 500):
            assert _reprs(p * q) == _reprs(literal_mul(p, q)), (p, q)

    @pytest.mark.parametrize("draw", [lambda rng: rand_biquat(rng, 3.0), _signed_zeros],
                             ids=["random", "signed_zeros"])
    def test_hamilton_matches_the_literal_expressions_bitwise(self, draw):
        for p, q in _pairs(draw, 18, 500):
            got = _hamilton(p.w, p.x, p.y, p.z, q.w, q.x, q.y, q.z)
            assert tuple(map(repr, got)) == _reprs(literal_mul(p, q)), (p, q)

    def test_hamilton_is_unchecked(self):
        big = Biquaternion(1e200, 1e200)
        w, x, y, z = _hamilton(big.w, big.x, big.y, big.z, big.w, big.x, big.y, big.z)
        assert w.real != w.real  # inf - inf
        with pytest.raises(ValueError, match="non-finite"):
            big * big


class TestGap:
    def test_finite_gap_is_the_norm_of_the_difference(self):
        rng = random.Random(19)
        for _ in range(200):
            a, b = rand_biquat(rng, 1e3), rand_biquat(rng, 1e3)
            assert _gap(a, b) == (a - b).component_norm()

    def test_gap_past_double_range_reads_inf(self):
        a, b = Biquaternion(1e308), Biquaternion(-1e308)
        with pytest.raises(ValueError, match="non-finite"):
            a - b
        assert _gap(a, b) == float("inf")

    def test_isclose_past_double_range_is_false(self):
        # the gap of 1e308 and -1e308 leaves double range: not close, no raise
        assert not isclose(1e308, -1e308)
        assert not isclose(Biquaternion(0, 1e308j), Biquaternion(0, -1e308j), abs_tol=1e300)
        assert isclose(1e308, 1e308) and isclose(-1e308, -1e308 * (1 + 1e-12))

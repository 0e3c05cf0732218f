"""Sequence plumbing: memoization, builders, shifts."""
import pytest

from biqz import ONE, ZERO, Biquaternion, Sequence, advance, catalog, delay
from biqz.algebra import i, j


class TestSequence:
    def test_terms_are_memoized_and_deterministic(self):
        calls = []

        def fn(n):
            calls.append(n)
            return Biquaternion(n)

        seq = Sequence(fn)
        a = seq.term(3)
        b = seq.term(3)
        assert a is b
        assert calls == [3]

    def test_coerces_scalars(self):
        seq = Sequence(lambda n: n * 1.5)
        assert seq.term(2) == Biquaternion(3.0)

    def test_rejects_bad_indices(self):
        seq = Sequence(lambda n: ONE)
        with pytest.raises(ValueError):
            seq.term(-1)
        with pytest.raises(ValueError):
            seq.term(1.5)

    def test_builders(self):
        assert Sequence.constant(2).term(7) == Biquaternion(2)
        geo = Sequence.geometric(2 * i)
        assert geo.term(0) == ONE and geo.term(2) == Biquaternion(-4)
        fin = Sequence.from_terms([1, i], tail=j)
        assert fin.term(0) == ONE and fin.term(1) == i and fin.term(5) == j
        d = Sequence.delta()
        assert d.term(0) == ONE and d.term(1) == ZERO

    def test_prefix(self):
        seq = Sequence(lambda n: n)
        assert seq.prefix(3) == [ZERO, ONE, Biquaternion(2)]

    def test_stores_biquaternion_results_as_returned(self):
        value = Biquaternion(1, 2, 3, 4)
        assert Sequence(lambda n: value).term(5) is value

    def test_embeds_scalar_results(self):
        for raw in (3, 3.0, 3 + 0j, True):
            got = Sequence(lambda n: raw).term(0)
            assert type(got) is Biquaternion and got == Biquaternion(raw)
        ramp = catalog.ramp_n().sequence
        assert [type(t) for t in ramp.prefix(3)] == [Biquaternion] * 3
        assert ramp.prefix(3) == [ZERO, ONE, Biquaternion(2)]

    def test_subclass_results_are_embedded_as_they_are(self):
        class Tagged(Biquaternion):
            __slots__ = ()

        value = Tagged(1, 2)
        assert Sequence(lambda n: value).term(0) is value

    def test_rejects_non_numeric_results(self):
        seq = Sequence(lambda n: "1 + i")
        with pytest.raises(TypeError):
            seq.term(0)
        with pytest.raises(TypeError):
            Sequence(lambda n: None).term(0)


class TestShifts:
    def test_advance_drops_head(self):
        seq = Sequence(lambda n: Biquaternion(n))
        assert advance(seq, 2).term(0) == Biquaternion(2)

    def test_delay_zero_pads(self):
        seq = Sequence.constant(1)
        lag = delay(seq, 3)
        assert lag.term(2) == ZERO and lag.term(3) == ONE

    def test_round_trip(self):
        seq = Sequence(lambda n: Biquaternion(n + 1))
        back = advance(delay(seq, 4), 4)
        for n in range(10):
            assert back.term(n) == seq.term(n)

    def test_negative_shift_rejected(self):
        seq = Sequence.constant(1)
        with pytest.raises(ValueError):
            advance(seq, -1)
        with pytest.raises(ValueError):
            delay(seq, -1)


class TestRepr:
    def test_named_and_unnamed(self):
        assert repr(catalog.pow_p(0.5).sequence) == "Sequence(pow_p, radius_hint=0.5)"
        assert repr(Sequence(lambda n: ONE)) == "Sequence(anonymous, radius_hint=None)"

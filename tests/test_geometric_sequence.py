"""One geometric sequence: ``Sequence.geometric`` is the sequence of every
unweighted catalog power row, so each carries its ratio and its sufficient
radius, the ratio's larger root magnitude; and ``Sequence.from_terms`` states
the radius of its constant tail."""
import random

import pytest

from biqz import (
    ONE,
    Biquaternion,
    OutsideROCError,
    Sequence,
    catalog,
    convolve,
    parse,
    transform,
)


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _draws() -> list[Biquaternion]:
    rng = random.Random(2800)
    return [catalog.draw_conditioned(rng) * rng.choice([0.5, 1.0, 2.0]) for _ in range(12)]


@pytest.mark.parametrize("p", _draws(), ids=range(12))
def test_radius_is_the_catalog_rows(p):
    assert Sequence.geometric(p).radius_hint == catalog.pow_p(p).roc_radius


@pytest.mark.parametrize("literal, radius", [("1+1Ik", 2.0), ("0", 0.0), ("1i+1Ij", 0.0), ("0.5", 0.5)])
def test_radius_at_zero_divisors_and_scalars(literal, radius):
    p = parse(literal)
    assert Sequence.geometric(p).radius_hint == catalog.pow_p(p).roc_radius == radius


def test_a_point_inside_the_radius_is_refused():
    # the powers' larger root is |0.9+0.9i| = 1.27 > 1.2: the series would grow
    with pytest.raises(OutsideROCError):
        transform(Sequence.geometric(parse("0.9+0.9i")), 1.2)


@pytest.mark.parametrize(
    "build, ratio",
    [
        (lambda: catalog.pow_p(parse("0.5+0.3i+0.2Ij")), parse("0.5+0.3i+0.2Ij")),
        (catalog.const_one, ONE),
        (lambda: catalog.binom_shifted(0, parse("0.4-0.2k")), parse("0.4-0.2k")),
        (lambda: catalog.binom(0, parse("0.4-0.2k")), parse("0.4-0.2k")),
    ],
    ids=["pow_p", "const_one", "binom_shifted_m0", "binom_m0"],
)
def test_unweighted_rows_carry_their_ratio_and_name(build, ratio):
    entry = build()
    assert entry.sequence.ratio == ratio
    assert entry.sequence.name == entry.name
    assert entry.sequence.radius_hint == entry.roc_radius == Sequence.geometric(ratio).radius_hint


@pytest.mark.parametrize("entry", [catalog.ramp_n(), catalog.n_pow_p(0.5), catalog.binom(2, 0.5)],
                         ids=["ramp_n", "n_pow_p", "binom_m2"])
def test_weighted_rows_carry_no_ratio(entry):
    # convolve would step them as powers of the ratio, dropping the weight
    assert entry.sequence.ratio is None


def test_a_catalog_power_row_convolves_as_the_geometric_sequence():
    k = parse("0.5+0.3i+0.2Ij")
    g = catalog.pow_p(parse("-0.4+0.1j+0.3Ik")).sequence
    got = convolve(catalog.pow_p(k).sequence, g)
    want = convolve(Sequence.geometric(k), g)
    assert [_reprs(got.term(n)) for n in range(200)] == [_reprs(want.term(n)) for n in range(200)]


class TestFromTerms:
    def test_a_nonzero_tail_has_radius_one(self):
        with pytest.raises(OutsideROCError):
            transform(Sequence.from_terms([1], tail=1), 0.9)

    def test_a_nonzero_head_and_tail_is_refused_inside_the_unit_shell(self):
        seq = Sequence.from_terms([1, parse("2i")], tail=1j)
        assert seq.radius_hint == 1.0
        with pytest.raises(OutsideROCError):
            transform(seq, 0.99)

    def test_a_zero_tail_has_radius_zero(self):
        seq = Sequence.from_terms([1, 2, 3])
        assert seq.radius_hint == Sequence.constant(0).radius_hint == 0.0
        tv = transform(seq, 0.5)
        assert tv.value == Biquaternion(1 + 2 * 2 + 3 * 4)

    def test_the_radius_is_the_constants(self):
        for tail in (1, -0.5j, parse("1+1Ik"), 0):
            assert Sequence.from_terms([2], tail).radius_hint == Sequence.constant(tail).radius_hint

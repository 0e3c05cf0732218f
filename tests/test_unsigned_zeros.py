"""One signed-zero rule: reports write every zero part as 0.0, whatever its
sign in the value, and keep every bit of the nonzero parts.  Beside it, a
forcing series that the solve cannot certify is refused rather than solved."""
import json
import math
from pathlib import Path

import pytest

from biqz import Biquaternion, ForcingTerm, LinearRecurrence, NoConvergenceError, Sequence, catalog, transform_value
from biqz.algebra import sum_products
from biqz.cli import _value_json, main
from biqz.parsing import format_literal

ROOT = Path(__file__).resolve().parent.parent


def _negative_zeros(value, path="") -> list[str]:
    """The paths of the floats in a parsed report that are -0.0."""
    if isinstance(value, dict):
        return [p for key in value for p in _negative_zeros(value[key], f"{path}/{key}")]
    if isinstance(value, list):
        return [p for n, item in enumerate(value) for p in _negative_zeros(item, f"{path}/{n}")]
    if isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0:
        return [path]
    return []


class TestValueJson:
    VALUE = Biquaternion(complex(-0.0, 1.5), complex(-0.0, -0.0), complex(-0.0, -2e-300), complex(-0.0, 0.0))

    def test_every_zero_part_is_written_unsigned(self):
        assert _negative_zeros(_value_json(self.VALUE)) == []
        assert list(map(repr, _value_json(self.VALUE)["components"])) == [
            "0.0", "1.5", "0.0", "0.0", "0.0", "-2e-300", "0.0", "0.0"]

    def test_the_literal_is_unchanged(self):
        unsigned = Biquaternion(1.5j, 0j, -2e-300j, 0j)
        assert _value_json(self.VALUE)["literal"] == format_literal(self.VALUE) == format_literal(unsigned)


@pytest.mark.parametrize("command", [
    "paper-suite --json",
    "recurrence src/biqz/specs/example5.json --json",
    "eval sin_qn --param q=(0.4+0.3I) --at 3 --json",
])
def test_reports_print_no_negative_zero(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split()) == 0
    assert _negative_zeros(json.loads(capsys.readouterr().out)) == []


def test_sum_products_of_no_pairs_raises():
    with pytest.raises(ValueError, match="needs at least one pair"):
        sum_products([])


def _cancelling(with_entry: bool) -> LinearRecurrence:
    """f(n+1) - 0.5*f(n) = g(n+1) - 2*g(n) with g = 2**n, read from its closed
    form with an entry and as a series, radius hint 2, without one."""
    entry = catalog.pow_p(2)
    g = entry.sequence if with_entry else Sequence(entry.sequence.term, radius_hint=entry.roc_radius)
    return LinearRecurrence([-0.5, 1], [1], [ForcingTerm(g, [-2, 1], entry=entry if with_entry else None)])


class TestUncertifiedForcing:
    X = 2.0000000001

    @pytest.mark.parametrize("kwargs", [{}, {"eps": 1e-3}], ids=["default-eps", "eps-1e-3"])
    def test_series_that_stops_above_eps_raises(self, kwargs):
        # the forcing series stops at 1,024 terms, where 2**1024 leaves double
        # range, with a tail bound of 2e10; it used to give 6.83e-08
        with pytest.raises(NoConvergenceError, match=r"^forcing series uncertified after 1024 terms"):
            transform_value(_cancelling(False), self.X, **kwargs)

    def test_series_that_spends_max_terms_raises(self):
        with pytest.raises(NoConvergenceError, match=r"^forcing series uncertified after 5 terms"):
            transform_value(_cancelling(False), 4, max_terms=5)

    def test_the_closed_form_is_not_a_series(self):
        assert transform_value(_cancelling(True), self.X) == Biquaternion(1.3333333332444444)
        assert transform_value(_cancelling(True), 4, max_terms=5) == Biquaternion(1.1428571428571428)

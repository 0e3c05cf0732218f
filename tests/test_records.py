"""biqz's record types, declared without ``dataclasses``: importing biqz loads
neither ``dataclasses`` nor ``inspect``, and the records keep their behaviour."""
import copy
import math
import pathlib
import subprocess
import sys

import pytest

import biqz
import biqz.catalog as cat
from biqz import Biquaternion, ForcingTerm, Sequence, TransformValue, VerificationReport


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, which could load these modules first or hide them
    src = str(pathlib.Path(biqz.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import biqz, biqz.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestValueRecords:
    def test_transform_value_and_report_refuse_assignment(self):
        tv = TransformValue(Biquaternion(1), 3, 0.5)
        rep = VerificationReport(0.0, 0.0, None, 5, 1e-9)
        for record, field in ((tv, "terms_used"), (rep, "n_checked"), (tv, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, field, 7)

    def test_equal_fields_compare_and_hash_equal(self):
        a, b = TransformValue(Biquaternion(1, 2), 3, 0.5), TransformValue(Biquaternion(1, 2), 3, 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != TransformValue(Biquaternion(1, 2), 4, 0.5)
        r, s = VerificationReport(0.1, 0.2, 3, 9, 1e-9), VerificationReport(0.1, 0.2, 3, 9, 1e-9)
        assert r == s and hash(r) == hash(s)

    def test_repr_names_the_fields(self):
        tv = TransformValue(Biquaternion(1), 3, math.inf)
        assert repr(tv) == f"TransformValue(value={Biquaternion(1)!r}, terms_used=3, tail_bound=inf)"

    def test_keywords_follow_the_field_order_and_row_defaults(self):
        rep = VerificationReport(max_abs_error=0.1, max_rel_error=0.2, first_failure_index=3,
                                 n_checked=9, tolerance=1e-9)
        assert rep == VerificationReport(0.1, 0.2, 3, 9, 1e-9)
        assert TransformValue(value=Biquaternion(1), terms_used=3, tail_bound=0.5) == \
            TransformValue(Biquaternion(1), 3, 0.5)
        row = cat.Row(cat.const_one)
        assert row.params == () and row.sample(None) == [{}]


class TestForcingTerm:
    def test_keeps_its_parts_and_coerces_coefficients(self):
        g, entry = Sequence.constant(1), cat.const_one()
        term = ForcingTerm(g, [2, 1j], entry=entry)
        assert term.sequence is g and term.entry is entry
        assert term.coeffs == [Biquaternion(2), Biquaternion(1j)]


class TestCatalogEntry:
    def test_refuses_assignment(self):
        entry = cat.pow_p(0.5)
        for field in ("name", "params", "sequence", "_eval_fn", "extra"):
            with pytest.raises(AttributeError):
                setattr(entry, field, None)

    def test_equal_only_to_itself_and_hashable(self):
        a, b = cat.pow_p(0.5), cat.pow_p(0.5)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_copy_shares_the_parts(self):
        entry = cat.pow_p(0.5)
        twin = copy.copy(entry)
        assert twin is not entry and twin.sequence is entry.sequence and twin.eval(2) == entry.eval(2)

    def test_as_printed_keeps_the_entry_and_evaluates_p_times_g(self):
        p, x = Biquaternion(0.3, 0.2j), Biquaternion(2.5)
        entry, printed = cat.n_pow_p(p), cat.n_pow_p(p, as_printed=True)
        assert printed.name == entry.name == "n_pow_p"
        assert printed.params == {"p": p, "as_printed": True}
        assert printed.roc_radius == entry.roc_radius
        assert printed.eval(x) == p * (Biquaternion(1) - p * x.inverse()).inverse()
        assert printed.eval(x) != entry.eval(x)
        assert repr(printed) == f"CatalogEntry(n_pow_p, params={printed.params}, roc_radius={printed.roc_radius})"

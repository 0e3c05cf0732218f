"""The one component norm, relative errors over it, and strict JSON reports.

``component_norm`` is ``math.hypot`` over the eight real components, so it is
finite wherever the length fits a double, including values whose squared
components overflow.  ``--json`` reports hold only finite numbers; a
non-finite float is written as the string ``float()`` reads back.
"""
import json
import math

import pytest

from biqz.algebra import ONE, ZERO, Biquaternion
from biqz.cli import main
from biqz.errors import ZeroDivisorError
from biqz.recurrence import LinearRecurrence, verify_closed_form
from biqz.sequences import Sequence


def _no_constant(token):
    raise AssertionError(f"non-JSON constant {token} in the output")


def _strict_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out, parse_constant=_no_constant)


class TestHypotNorm:
    def test_large_components_stay_finite(self):
        assert Biquaternion(1e200, 1e200).component_norm() == math.hypot(1e200, 1e200)

    @pytest.mark.parametrize("q", [
        Biquaternion(1 + 2j, -3.5j, 4e-300, 5e300 - 6j),
        Biquaternion(0.1, 0.2, 0.3, 0.4),
        ZERO,
    ])
    def test_is_hypot_of_the_components_in_order(self, q):
        assert q.component_norm() == math.hypot(*q.components())

    def test_length_beyond_double_range_reads_inf(self):
        big = complex(1e308, 1e308)
        assert Biquaternion(big, big, big, big).component_norm() == math.inf

    def test_inverse_of_a_huge_value_is_a_zero_divisor_error(self):
        # the squared norm overflows; the test must not raise OverflowError, and
        # a zero divisor is refused at this scale too (1e160 + 1e160i inverts)
        q = Biquaternion(1e160, 0, 0, 1e160j)
        assert not q.is_invertible()
        with pytest.raises(ZeroDivisorError):
            q.inverse()


class TestRelativeErrors:
    def test_small_failure_at_a_huge_scale_fails(self):
        # the constant 1e155 against a candidate that moves by 1e-7 from n = 10
        rec = LinearRecurrence([-ONE, ONE], [Biquaternion(1e155)])
        cand = Sequence(lambda n: Biquaternion(1e155 if n < 10 else 1.0000001e155))
        rep = verify_closed_form(rec, cand, 30)
        assert not rep.passed
        assert rep.first_failure_index == 9  # the identity at n = 9 reads c(10)
        assert rep.max_rel_error == pytest.approx(1e-7, rel=1e-6)

    def test_inf_gap_over_inf_scale_reads_inf(self):
        big = complex(1e308, 1e308)
        q = Biquaternion(big, big, big, big)
        rec = LinearRecurrence([-ONE, ONE], [q])
        rep = verify_closed_form(rec, Sequence(lambda n: q if n < 3 else ZERO), 5)
        assert rep.first_failure_index == 2
        assert rep.max_rel_error == math.inf

    def test_finite_gap_over_inf_scale_reads_inf(self):
        # the scale's length overflows, the gap's (about 1.4e308) does not
        big = complex(1e308, 1e308)
        q = Biquaternion(big, big, big, big)
        rec = LinearRecurrence([-ONE, ONE], [q])
        rep = verify_closed_form(rec, Sequence(lambda n: q if n < 3 else q * 0.5), 6)
        assert not rep.passed
        assert rep.first_failure_index == 2
        assert rep.max_rel_error == math.inf


class TestStrictJson:
    def test_uncertified_eval_writes_inf_as_a_string(self, capsys):
        code, report = _strict_json(
            capsys, ["eval", "pow_p", "--param", "p=0.99", "--at", "1", "--max-terms", "5", "--json"])
        assert code == 1
        results = report["results"]
        assert results["tail_bound"] == results["budget"] == "inf"
        assert float(results["tail_bound"]) == math.inf
        assert results["terms_used"] == 5

    def test_inf_relative_error_is_a_string(self, capsys, tmp_path):
        # 1e308 + 1e308j components: the candidate's gap and scale both read inf
        big = "(1e308+1e308I)+(1e308+1e308I)i+(1e308+1e308I)j+(1e308+1e308I)k"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "coeffs": ["-1", "1"], "initial": [big],
            "candidate": {"geometric": [{"coeff": big, "ratio": "0"}]},
        }))
        code, report = _strict_json(capsys, ["recurrence", str(spec), "--json"])
        assert code == 1
        assert report["results"]["verification"]["max_rel_error"] == "inf"

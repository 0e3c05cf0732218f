"""The catalog registry, checked catalog parameters, and geometric_scale's radius hint."""
import json
import random

import pytest

from biqz import OutsideROCError, Sequence, parse
from biqz import catalog as cat
from biqz.cli import main
from biqz.ztransform import geometric_scale, transform


class TestRows:
    def test_names_follow_rows(self):
        assert tuple(cat.ROWS) == cat.ALL_NAMES

    @pytest.mark.parametrize("name", cat.ALL_NAMES)
    def test_samples_build_with_one_radius(self, name):
        want = 2 if name in ("cos_qn", "sin_qn") else 1
        for seed in range(5):
            draws = cat.ROWS[name].sample(random.Random(seed))
            assert len(draws) == want, (name, seed)
            for params in draws:
                entry = cat.build(name, params)
                assert entry.name == name
                assert entry.roc_radius == entry.sequence.radius_hint, (name, seed)


class TestParameterChecks:
    @pytest.mark.parametrize("m", [1.9, True, 2.0, -1, "1.9"])
    def test_m_must_be_an_integer(self, m):
        for name in ("binom", "binom_shifted"):
            with pytest.raises(ValueError):
                cat.build(name, {"m": m, "q": "0.5"})

    def test_integer_literal_m(self):
        assert cat.build("binom", {"m": "2", "q": "0.5"}).params["m"] == 2

    @pytest.mark.parametrize("raw", [None, [1, 2], {"w": 1}])
    def test_non_literal_parameter_names_its_key(self, raw):
        with pytest.raises(ValueError, match="'q'"):
            cat.build("binom", {"m": 1, "q": raw})
        with pytest.raises(ValueError, match="'p'"):
            cat.build("pow_p", {"p": raw})


def _run_spec(capsys, tmp_path, params):
    # f(n+2) = f(n+1) - f(n)/4 is solved by (n+1) * 0.5**n, which is binom_shifted(1, 0.5)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "coeffs": ["0.25", "-1", "1"],
        "initial": ["1", "1"],
        "candidate": {"catalog": "binom_shifted", "params": params},
    }))
    code = main(["recurrence", str(spec), "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestSpecParameters:
    def test_integer_m_passes(self, capsys, tmp_path):
        for m in (1, "1"):
            code, report = _run_spec(capsys, tmp_path, {"m": m, "q": "0.5"})
            assert code == 0 and report["pass"] is True

    def test_fractional_m_is_refused(self, capsys, tmp_path):
        code, report = _run_spec(capsys, tmp_path, {"m": 1.9, "q": "0.5"})
        assert code == 2
        assert report["errors"][0]["name"] == "Value"

    def test_null_parameter_is_refused(self, capsys, tmp_path):
        for q in (None, [0.5]):
            code, report = _run_spec(capsys, tmp_path, {"m": 1, "q": q})
            assert code == 2
            assert report["errors"][0]["name"] == "Value"
            assert "'q'" in report["errors"][0]["message"]


class TestGeometricScaleHint:
    # powers of 1 + 0.999Ik grow like its larger root 1.999, though its real gauge is 0.045
    def _scaled(self):
        return geometric_scale(Sequence.constant(1), parse("1+0.999Ik"))

    def test_hint_is_the_larger_root(self):
        assert self._scaled().radius_hint == pytest.approx(1.999, rel=1e-12)

    def test_point_inside_growth_is_refused(self):
        with pytest.raises(OutsideROCError):
            transform(self._scaled(), 1.5)

    def test_point_outside_growth_certifies(self):
        result = transform(self._scaled(), 2.5)
        assert result.certified
        assert result.terms_used == 130

"""``transform_value`` takes its radius estimate once per recurrence: the
growth survey depends only on the recurrence, so later sample points reuse it.
Each point still gets the value, or the refusal, a fresh recurrence gives."""
import pytest

from biqz import recurrence
from biqz.algebra import ONE, Biquaternion
from biqz.errors import BiqzError, NoConvergenceError
from biqz.recurrence import LinearRecurrence, transform_value

# f(n+2) = 1.5 f(n+1) - 0.5 f(n), whose roots are 1 and 0.5, and f(n+1) = 2 f(n)
SPECS = [
    ([Biquaternion(0.5), Biquaternion(-1.5), ONE], [ONE, Biquaternion(0, 2)]),
    ([Biquaternion(-2.0), ONE], [Biquaternion(1, 0, 1j)]),
]
POINTS = [1.5, 3.0, 4j, 0.75, 2.5 - 2.5j]


def _count_surveys(monkeypatch) -> list:
    """The n_max of each roc_estimate call transform_value makes from now on."""
    calls = []
    survey = recurrence.roc_estimate
    monkeypatch.setattr(recurrence, "roc_estimate", lambda f, n: calls.append(n) or survey(f, n))
    return calls


def _outcome(rec, x):
    try:
        return transform_value(rec, x)
    except BiqzError as exc:
        return type(exc)


@pytest.mark.parametrize("coeffs, initial", SPECS)
def test_one_survey_per_recurrence(monkeypatch, coeffs, initial):
    fresh = [_outcome(LinearRecurrence(coeffs, initial), x) for x in POINTS]
    calls = _count_surveys(monkeypatch)
    rec = LinearRecurrence(coeffs, initial)
    assert [_outcome(rec, x) for x in POINTS] == fresh
    assert calls == [64]
    assert any(isinstance(got, type) for got in fresh), "no sample point is refused"
    assert any(isinstance(got, Biquaternion) for got in fresh), "no sample point is solved"


def test_failed_survey_is_not_kept(monkeypatch):
    # f(n+1) = 1e10 f(n) leaves double range before index 64, so the survey raises
    spec = ([Biquaternion(-1e10), ONE], [ONE])
    fresh = [_outcome(LinearRecurrence(*spec), x) for x in (1e11, 1e12)]
    calls = _count_surveys(monkeypatch)
    rec = LinearRecurrence(*spec)
    assert [_outcome(rec, x) for x in (1e11, 1e12)] == fresh == [NoConvergenceError] * 2
    assert calls == [64, 64]

"""``transform`` skips the ratio-window scan when the newest ratio alone rules
certification out; the unfused reference loop scans the window at every
term.  Drawn geometric, beating and sparse sequences, points and eps values
must give bit-identical outcomes from both loops.

Derandomized and without an example database, so every run draws the same
examples and none is replayed from an earlier run."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from biqz import ZERO, Biquaternion, Sequence, catalog, transform

from helpers import reference_transform
from test_fused_series import _outcome

PROPERTY = settings(derandomize=True, database=None, max_examples=120, deadline=None)
unit = st.floats(min_value=-1.0, max_value=1.0)
phase = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@st.composite
def geometric(draw):
    """p**n for p with components in [-1, 1]; points sit at |x| = radius / ratio."""
    p = Biquaternion(*(complex(draw(unit), draw(unit)) for _ in range(4)))
    radius = catalog.pow_p(p).roc_radius
    return (lambda: Sequence.geometric(p)), radius


@st.composite
def beating(draw):
    """sin(q0*n) for a complex scalar q0 whose small imaginary part makes the
    two exponentials beat, so the term ratios swing about their mean."""
    q0 = complex(draw(st.floats(min_value=0.05, max_value=3.0)), draw(st.floats(-0.05, 0.05)))
    entry = catalog.sin_qn(Biquaternion(q0))
    return (lambda: Sequence(entry.sequence.term)), math.exp(abs(q0.imag))


@st.composite
def sparse(draw):
    """c at every period-th index and zero between, so most ratios are 0 or inf."""
    c = Biquaternion(*(complex(draw(unit), draw(unit)) for _ in range(4)))
    period = draw(st.integers(min_value=2, max_value=4))
    return (lambda: Sequence(lambda n: c if n % period == 0 else ZERO)), 1.0


@PROPERTY
@given(
    case=st.one_of(geometric(), beating(), sparse()),
    ratio=st.floats(min_value=0.2, max_value=0.995),
    angle=phase,
    eps=st.floats(min_value=-15.0, max_value=-3.0).map(lambda e: 10.0**e),
    max_terms=st.integers(min_value=1, max_value=600),
)
def test_window_precheck_matches_reference_loop(case, ratio, angle, eps, max_terms):
    make, radius = case
    x = (max(radius, 1e-3) / ratio) * complex(math.cos(angle), math.sin(angle))
    got = _outcome(transform, make(), x, eps=eps, max_terms=max_terms)
    want = _outcome(reference_transform, make(), x, eps=eps, max_terms=max_terms)
    assert got == want

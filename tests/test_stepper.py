"""The stepping primitive behind ``stepped`` factor products, the
geometric-kernel convolution and recurrence solutions, and the ascending
reads of the general convolve path."""
import random

import pytest

from biqz import ONE, Biquaternion, Sequence, convolve, parse
from biqz.sequences import _stepper, stepped

from helpers import rand_biquat


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


class TestStepper:
    def test_start_runs_once_per_restart_and_step_sees_each_index(self):
        starts, steps = [], []

        def start():
            starts.append(None)
            return ONE

        def step(k, value):
            steps.append(k)
            return value + 1

        term = _stepper(start, step)
        assert starts == []  # nothing is evaluated before the first access
        assert term(3) == Biquaternion(4)
        assert term(5) == Biquaternion(6)
        assert term(1) == Biquaternion(2)
        assert len(starts) == 2
        assert steps == [1, 2, 3, 4, 5, 1]

    def test_same_index_twice_takes_no_step(self):
        steps = []
        term = _stepper(lambda: ONE, lambda k, v: steps.append(k) or v * 2)
        assert term(4) == term(4) == Biquaternion(16)
        assert steps == [1, 2, 3, 4]


class TestGeometricConvolveSteps:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_the_biquaternion_recursion(self, seed):
        rng = random.Random(300 + seed)
        kernel = rand_biquat(rng) * 0.4
        g = Sequence.from_terms([rand_biquat(rng) for _ in range(80)])
        w = convolve(Sequence.geometric(kernel), g)
        want = g.term(0)
        for n in range(80):
            if n:
                want = kernel * want + g.term(n)
            assert _reprs(w.term(n)) == _reprs(want), n

    def test_overflow_raises_at_the_overflowing_step(self):
        calls = []
        g = Sequence(lambda n: calls.append(n) or ONE)
        w = convolve(Sequence.geometric(Biquaternion(1e200)), g)
        with pytest.raises(ValueError, match="non-finite"):
            w.term(7)
        # K*w_1 = 1e200 * (1e200 + 1) overflows before g_2 is read
        assert calls == [0, 1]


class TestGeneralConvolveReadsAscending:
    def test_cold_term_steps_the_left_factor_once(self):
        count = 300
        calls = []
        ratio = parse("0.5+0.25i")
        f = Sequence(stepped(ONE, lambda k: calls.append(k) or ratio))
        w = convolve(f, Sequence.constant(parse("1-0.5Ij")))
        w.term(count)
        # one multiplication per index, not one restart per lower index
        assert calls == list(range(1, count + 1))

    def test_cold_term_matches_the_two_line_loop_bitwise(self):
        rng = random.Random(31)
        ratio = rand_biquat(rng) * 0.3
        g = Sequence.from_terms([rand_biquat(rng) for _ in range(40)])
        cold = convolve(Sequence(stepped(ONE, lambda _: ratio)), g).term(39)
        f = Sequence(stepped(ONE, lambda _: ratio))
        total = f.term(39) * g.term(0)
        for m in range(1, 40):
            total = total + f.term(39 - m) * g.term(m)
        assert _reprs(cold) == _reprs(total)

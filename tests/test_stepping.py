"""Stepped terms: p**n reached as p**(n-1) * p, one multiplication per index."""
import random
import sys
import threading

import pytest

import biqz.catalog as cat
from biqz import ONE, Biquaternion, Sequence, cos_seq_term, geometric_scale, sin_seq_term, transform
from biqz.algebra import i, j, k
from biqz.sequences import stepped

from helpers import comp_dist, root_magnitudes

I = 1j

# a generic ratio scaled so its larger root magnitude is 1: 4096 powers stay in range
_RAW = Biquaternion(0.6 + 0.2j, 0.3 - 0.1j, -0.2 + 0.25j, 0.1 + 0.05j)
GENERIC = _RAW * (1.0 / root_magnitudes(_RAW)[0])

ROWS = {
    "const_one": {},
    "ramp_n": {},
    "ramp_n2": {},
    "pow_p": {"p": "0.5+0.3i-0.2Ij"},
    "n_pow_p": {"p": "0.5+0.3i-0.2Ij"},
    "cos_qn": {"q": "0.3+0.2i+0.1Ij"},
    "sin_qn": {"q": "0.3+0.2i+0.1Ij"},
    "binom_shifted": {"m": 2, "q": "0.4-0.3j+0.1Ik"},
    "binom": {"m": 3, "q": "0.4-0.3j+0.1Ik"},
    "exp_over_fact": {"q": "1+2i-0.5Ik"},
}


class TestPowers:
    def test_stepped_powers_track_binary_powering(self):
        seq = Sequence.geometric(GENERIC)
        for n in range(4097):
            want = GENERIC**n
            assert comp_dist(seq.term(n), want) <= 1e-12 * max(n, 1) * want.component_norm(), n

    def test_zero_divisor_powers_are_exact(self):
        p = ONE + I * k
        seq = Sequence.geometric(p)
        for n in range(1, 1001):
            assert seq.term(n) == p**n == 2.0 ** (n - 1) * p, n

    def test_geometric_scale_steps_its_ratio(self):
        q = 0.5 * i + 0.25 * I * j
        scaled = geometric_scale(Sequence.constant(1), q)
        for n in range(200):
            assert comp_dist(scaled.term(n), q**n) <= 1e-12 * max(n, 1) * (q**n).component_norm()


class TestAccessOrder:
    @pytest.mark.parametrize("name", cat.ALL_NAMES)
    def test_shuffled_access_matches_in_order(self, name):
        count = 300
        in_order = cat.build(name, ROWS[name]).sequence.prefix(count)
        shuffled = cat.build(name, ROWS[name]).sequence
        order = list(range(count))
        random.Random(5).shuffle(order)
        for n in order:
            assert shuffled.term(n) == in_order[n], (name, n)

    def test_restart_for_earlier_index(self):
        calls = []

        def factor(n):
            calls.append(n)
            return GENERIC

        term = stepped(ONE, factor)
        high = term(5)
        low = term(2)
        assert calls == [1, 2, 3, 4, 5, 1, 2]
        assert term(5) == high and low == term(2)

    def test_threads_sharing_a_term_function_get_the_in_order_values(self):
        in_order = stepped(ONE, lambda _: GENERIC)  # geometric sequences step by three terms
        want = [in_order(n) for n in range(200)]
        term = stepped(ONE, lambda _: GENERIC)
        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(400):
                n = rng.randrange(200)
                if term(n) != want[n]:
                    wrong.append(n)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestRowTerms:
    def test_exp_over_fact_terms_unchanged(self):
        q = 1 + 2 * i - 0.5 * I * k
        seq = cat.exp_over_fact(q).sequence
        want = ONE
        for n in range(1, 200):
            want = want * (q / n)
            assert seq.term(n) == want, n

    def test_trig_terms_track_closed_form_terms(self):
        q = 0.3 + 0.2 * i + 0.1 * I * j
        cos, sin = cat.cos_qn(q).sequence, cat.sin_qn(q).sequence
        for n in range(300):
            for got, want in ((cos.term(n), cos_seq_term(q, n)), (sin.term(n), sin_seq_term(q, n))):
                assert comp_dist(got, want) <= 1e-12 * max(n, 1) * max(1.0, want.component_norm())

    def test_boundary_series_term_count_unchanged(self):
        tv = transform(cat.build("pow_p", {"p": "0.99"}).sequence, 1)
        assert tv.certified
        assert tv.terms_used == 3208

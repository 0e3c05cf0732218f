"""``sum_products``, the plain product-and-sum loop behind convolve's direct
sum; the stepped geometric-kernel convolution; O(1)-per-term deconvolution;
and the CLI edges of deconvolution and overflowing solutions."""
import json
import random
from importlib import resources

import pytest

from biqz import (
    ONE,
    ZERO,
    Biquaternion,
    LinearRecurrence,
    NoConvergenceError,
    Sequence,
    catalog,
    convolve,
    deconvolve_geometric,
    parse,
    transform,
)
from biqz.algebra import sum_products
from biqz.cli import main

from helpers import comp_dist, rand_biquat, rand_conditioned


def _loop(pairs):
    """The reference: one product and one sum per pair from ZERO, written out here."""
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    return total


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


def _signed_zeros(rng: random.Random) -> Biquaternion:
    """A value whose components are mostly signed zeros, the rest small integers."""
    def part():
        return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.0])
    return Biquaternion(*(complex(part(), part()) for _ in range(4)))


class TestSumProducts:
    def test_random_pairs_match_the_loop_bitwise(self):
        rng = random.Random(5)
        for count in range(1, 30):
            pairs = [(rand_biquat(rng, 3.0), rand_biquat(rng, 3.0)) for _ in range(count)]
            assert _reprs(sum_products(pairs)) == _reprs(_loop(pairs)), count

    def test_signed_zeros_match_the_loop_bitwise(self):
        rng = random.Random(6)
        for trial in range(300):
            pairs = [(_signed_zeros(rng), _signed_zeros(rng)) for _ in range(rng.randint(1, 4))]
            assert _reprs(sum_products(pairs)) == _reprs(_loop(pairs)), trial

    def test_all_negative_zero_products_keep_their_sign(self):
        neg = Biquaternion(complex(-0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0))
        pairs = [(neg, ONE), (neg, ONE)]
        assert _reprs(sum_products(pairs)) == _reprs(_loop(pairs))

    def test_single_pair_is_the_product(self):
        a, b = parse("1+2i-3j+0.5Ik"), parse("(0.25-1I)-2k")
        assert _reprs(sum_products([(a, b)])) == _reprs(a * b)

    def test_accepts_a_generator(self):
        a, b = parse("1+2i"), parse("3j")
        assert sum_products((a, b) for _ in range(3)) == _loop([(a, b)] * 3)

    @pytest.mark.parametrize("pairs", [[], iter(())])
    def test_empty_input_raises(self, pairs):
        with pytest.raises(ValueError):
            sum_products(pairs)

    @pytest.mark.parametrize("pairs", [
        [(Biquaternion(1e200), Biquaternion(1e200))],  # the first product overflows
        [(ONE, ONE), (Biquaternion(1e200, 1e200), Biquaternion(0.0, 1e200))],  # a later one does
        [(Biquaternion(1e154), Biquaternion(1e154))] * 2,  # only the sum does
        [(Biquaternion(1e200), Biquaternion(1e200)), (Biquaternion(-1e200), Biquaternion(1e200))],
    ])
    def test_overflow_raises_where_the_loop_does(self, pairs):
        with pytest.raises(ValueError):
            _loop(pairs)
        with pytest.raises(ValueError, match="non-finite"):
            sum_products(pairs)


class TestConvolve:
    def test_matches_the_two_line_loop_bitwise(self):
        rng = random.Random(7)
        f = Sequence.from_terms([_signed_zeros(rng) for _ in range(25)])
        g = Sequence.from_terms([_signed_zeros(rng) if n % 2 else rand_biquat(rng) for n in range(25)])
        w = convolve(f, g)
        for n in range(25):
            total = f.term(n) * g.term(0)
            for m in range(1, n + 1):
                total = total + f.term(n - m) * g.term(m)
            assert _reprs(w.term(n)) == _reprs(total), n


def _scaled(rng: random.Random, lo: float, hi: float) -> Biquaternion:
    """A random value rescaled to a component norm drawn from [lo, hi]."""
    q = rand_biquat(rng)
    return q * (rng.uniform(lo, hi) / q.component_norm())


class TestGeometricConvolve:
    """convolve(Sequence.geometric(K), g) steps w_n = K*w_{n-1} + g_n."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_direct_sum(self, seed):
        rng = random.Random(100 + seed)
        kernel = _scaled(rng, 0.3, 1.5)
        g = Sequence.from_terms([rand_biquat(rng) for _ in range(200)])
        assert not g.term(0).commutes_with(kernel)
        stepped = convolve(Sequence.geometric(kernel), g)
        # an unflagged view of the same terms takes the general path
        direct = convolve(Sequence(Sequence.geometric(kernel).term), g)
        for n in range(200):
            want = direct.term(n)
            assert comp_dist(stepped.term(n), want) <= 1e-12 * max(1.0, want.component_norm()), n

    def test_kernel_multiplies_on_the_left(self):
        kernel = parse("2j")
        g = Sequence.from_terms([parse("1i"), parse("0.5k")])
        w = convolve(Sequence.geometric(kernel), g)
        # w_1 = K*g_0 + g_1 and w_2 = K*K*g_0 + K*g_1; K*i = -2k but i*K = 2k
        assert w.term(1) == kernel * g.term(0) + g.term(1) == parse("-1.5k")
        assert w.term(1) != g.term(0) * kernel + g.term(1)
        assert w.term(2) == kernel * kernel * g.term(0) + kernel * g.term(1) == parse("-3i")

    def test_first_access_far_out_matches_in_order_access(self):
        rng = random.Random(21)
        kernel = _scaled(rng, 0.3, 0.9)
        values = [rand_biquat(rng) for _ in range(64)]
        g = Sequence(lambda n: values[n % 64])
        far = convolve(Sequence.geometric(kernel), g).term(5000)  # no RecursionError
        in_order = convolve(Sequence.geometric(kernel), g)
        for n in range(5001):
            near = in_order.term(n)
        assert _reprs(far) == _reprs(near)

    def test_earlier_index_after_later_restarts_consistently(self):
        rng = random.Random(22)
        kernel = _scaled(rng, 0.3, 1.5)
        g = Sequence.from_terms([rand_biquat(rng) for _ in range(40)])
        backwards = convolve(Sequence.geometric(kernel), g)
        forwards = convolve(Sequence.geometric(kernel), g)
        got = [backwards.term(n) for n in reversed(range(40))][::-1]
        assert [_reprs(q) for q in got] == [_reprs(forwards.term(n)) for n in range(40)]

    def test_overflow_raises(self):
        w = convolve(Sequence.geometric(Biquaternion(1e200)), Sequence.constant(ONE))
        assert w.term(1) == Biquaternion(1e200 + 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            w.term(2)
        with pytest.raises(ValueError, match="non-finite"):
            convolve(Sequence.geometric(Biquaternion(1e200)), Sequence.constant(ONE)).term(7)

    def test_no_overflow_where_only_kernel_powers_leave_range(self):
        # (1+1Ik)**n = 2**(n-1) * (1+1Ik) leaves double range near n = 1025,
        # but (1+1Ik)*(1-1Ik) = 0, so every w_n is g_n = 1-1Ik
        kernel, g = parse("1+1Ik"), Sequence.constant(parse("1-1Ik"))
        assert convolve(Sequence.geometric(kernel), g).term(2000) == parse("1-1Ik")
        with pytest.raises(ValueError, match="non-finite"):
            convolve(Sequence(Sequence.geometric(kernel).term), g).term(2000)

    def test_geometric_right_factor_matches_the_two_line_loop_bitwise(self):
        rng = random.Random(23)
        f = Sequence.from_terms([rand_biquat(rng) for _ in range(25)])
        g = Sequence.geometric(_scaled(rng, 0.3, 1.5))
        w = convolve(f, g)
        for n in range(25):
            total = f.term(n) * g.term(0)
            for m in range(1, n + 1):
                total = total + f.term(n - m) * g.term(m)
            assert _reprs(w.term(n)) == _reprs(total), n

    def test_only_geometric_carries_a_ratio(self):
        kernel = parse("0.5j")
        assert Sequence.geometric(kernel).ratio == kernel
        assert Sequence(Sequence.geometric(kernel).term).ratio is None
        assert Sequence.constant(kernel).ratio is None
        assert convolve(Sequence.geometric(kernel), Sequence.delta()).ratio is None


def _geometric_convolution(kernel: Biquaternion, f: Sequence, t: int) -> Biquaternion:
    """sum_{n<=t} kernel**n * f(t-n), summed directly."""
    total, power = f.term(t), ONE
    for n in range(1, t + 1):
        power = power * kernel
        total = total + power * f.term(t - n)
    return total


class TestDeconvolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_target_round_trips(self, seed):
        rng = random.Random(seed)
        target = Sequence.from_terms([rand_biquat(rng) for _ in range(60)])
        kernel = rand_conditioned(rng, scale=0.6)
        self._check(target, kernel)

    def test_ramp_target_round_trips(self):
        kernel = rand_conditioned(random.Random(11), scale=0.6)
        self._check(catalog.build("ramp_n").sequence, kernel)

    @staticmethod
    def _check(target, kernel):
        f = deconvolve_geometric(target, kernel)
        for t in range(60):
            want = target.term(t)
            got = _geometric_convolution(kernel, f, t)
            assert comp_dist(got, want) <= 1e-12 * max(1.0, want.component_norm()), t

    def test_term_reads_two_target_terms(self):
        calls = []

        def fn(n):
            calls.append(n)
            return Biquaternion(n, 1.0, 0.0, 0.5j)

        sol = deconvolve_geometric(Sequence(fn), parse("0.5+0.25j"))
        sol.term(1000)
        assert sorted(calls) == [999, 1000]

    def test_first_term_is_the_target(self):
        target = Sequence.from_terms([parse("2-1Ik"), parse("3i")])
        assert deconvolve_geometric(target, parse("7j")).term(0) == parse("2-1Ik")

    def test_n_terms_materializes_a_prefix(self):
        calls = []

        def fn(n):
            calls.append(n)
            return ONE

        deconvolve_geometric(Sequence(fn), parse("0.5j"), 5)
        assert sorted(calls) == [0, 1, 2, 3, 4]


def _run(capsys, tmp_path, payload, *flags):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code = main(["recurrence", str(spec), "--json", *flags])
    return code, json.loads(capsys.readouterr().out)


def _bundled(name: str) -> dict:
    return json.loads(resources.files("biqz").joinpath("specs", f"{name}.json").read_text())


class TestRoundtripTerms:
    @pytest.mark.parametrize("value", [1.9, True, False, -5, None, "1.9", "-5", "many", [3]])
    def test_refused_with_exit_2(self, capsys, tmp_path, value):
        payload = _bundled("example5") | {"roundtrip_terms": value}
        code, report = _run(capsys, tmp_path, payload)
        assert code == 2
        assert report["errors"][0]["name"] == "Value"
        assert "roundtrip_terms" in report["errors"][0]["message"]

    @pytest.mark.parametrize("value, terms", [(0, 0), (7, 7), ("7", 7)])
    def test_integers_accepted(self, capsys, tmp_path, value, terms):
        payload = _bundled("example5") | {"roundtrip_terms": value}
        code, report = _run(capsys, tmp_path, payload)
        assert code == 0
        assert report["results"]["roundtrip_terms"] == terms
        assert len(report["results"]["solution_terms"]) == min(terms + 1, 12)

    def test_default_is_30(self, capsys, tmp_path):
        payload = _bundled("example5")
        del payload["roundtrip_terms"]
        code, report = _run(capsys, tmp_path, payload)
        assert code == 0
        assert report["results"]["roundtrip_terms"] == 30


class TestOverflow:
    def test_overflowing_solution_exits_3(self, capsys, tmp_path):
        # powers of i+j double their components every other step and leave
        # double range near index 2048
        code, report = _run(capsys, tmp_path, _bundled("example1"), "--terms", "5000")
        assert code == 3
        error = report["errors"][0]
        assert error["name"] == "NoConvergence"
        assert "index 2048" in error["message"]

    def test_library_raises_no_convergence(self):
        # f(n+1) = f(n) * 1e100 reaches 1e300 at index 3 and overflows at 4
        rec = LinearRecurrence([-1e100, 1.0], [1.0])
        with pytest.raises(NoConvergenceError, match="index 4"):
            rec.solution().term(10)
        assert rec.solution().term(3) == Biquaternion(1e300)

    def test_transform_still_settles_on_an_overflowing_solution(self):
        # f(n) = 1e4**n leaves double range at index 78; the series at
        # x = 1.05e4 stops there with the window's tail estimate, as for any
        # sequence whose terms overflow
        rec = LinearRecurrence([-1e4, 1.0], [1.0])
        tv = transform(rec.solution(), 1.05e4)
        assert tv.terms_used == 78
        assert 0.0 < tv.tail_bound < 1.0

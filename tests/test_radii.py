"""Exact catalog convergence radii from the roots q0 +- sqrt(q0**2 - cns)."""
import math
import random

import pytest

import biqz.catalog as cat
from biqz import ONE, OutsideROCError, exp, transform
from biqz.algebra import root_magnitudes as library_root_magnitudes
from biqz.algebra import i, j, k

from helpers import comp_dist, rand_biquat, rand_conditioned, root_magnitudes

I = 1j


class TestGeometricRows:
    def test_zero_divisor_ratio_refuses_point_inside_radius(self):
        # powers of 1 + Ik grow like 2**n, so the series diverges at |x| = 1.995
        entry = cat.pow_p(ONE + I * k)
        assert entry.roc_radius == 2.0
        with pytest.raises(OutsideROCError):
            entry.eval(1.995)

    def test_weighted_row_accepts_point_just_outside_radius(self):
        entry = cat.n_pow_p(0.99)
        assert entry.roc_radius == 0.99
        closed = entry.eval(1)
        tv = transform(entry.sequence, 1)
        assert tv.certified
        assert comp_dist(tv.value, closed) <= tv.tail_bound + 1e-12 * closed.component_norm()

    def test_binomial_weight_does_not_inflate_radius(self):
        assert cat.binom(3, 0.98).roc_radius == 0.98
        assert cat.binom_shifted(3, 0.98).roc_radius == 0.98

    def test_radius_is_larger_root_of_parameter(self):
        rng = random.Random(71)
        for _ in range(20):
            p = rand_biquat(rng)
            want = root_magnitudes(p)[0]
            for entry in (cat.pow_p(p), cat.n_pow_p(p), cat.binom_shifted(2, p)):
                assert math.isclose(entry.roc_radius, want, rel_tol=1e-12), entry.name
                assert entry.sequence.radius_hint == entry.roc_radius


class TestRootsPastTheSquaresRange:
    def test_in_range_roots_are_the_direct_formula(self):
        rng = random.Random(73)
        for _ in range(300):
            q = rand_biquat(rng, 10.0 ** rng.uniform(-150, 150))
            assert library_root_magnitudes(q) == root_magnitudes(q)

    @pytest.mark.parametrize("scale", [1e170, 1e300])
    def test_roots_scale_with_the_parameter(self, scale):
        # q0**2 and cns leave double range, so the direct formula reads (nan, nan)
        rng = random.Random(74)
        for _ in range(20):
            u = rand_biquat(rng)
            got = library_root_magnitudes(u * scale)
            for r, want in zip(got, root_magnitudes(u)):
                assert math.isclose(r, want * scale, rel_tol=1e-13, abs_tol=1e-13 * scale)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_roots_of_a_tiny_parameter_scale_with_it(self, scale):
        # q0**2 and cns fall below the normal range (to 0 past 1e-162)
        rng = random.Random(75)
        for _ in range(20):
            u = rand_biquat(rng)
            got = library_root_magnitudes(u * scale)
            for r, want in zip(got, root_magnitudes(u)):
                assert math.isclose(r, want * scale, rel_tol=1e-13, abs_tol=1e-13 * scale)
        assert library_root_magnitudes(i * scale) == (scale, scale)

    def test_tiny_parameter_refuses_points_inside_its_radius(self):
        entry = cat.pow_p(1e-170 * i)
        assert entry.roc_radius == 1e-170
        with pytest.raises(OutsideROCError):
            entry.eval(1e-171)
        with pytest.raises(OutsideROCError):
            transform(entry.sequence, 1e-171)

    def test_huge_parameter_refuses_points_inside_its_radius(self):
        entry = cat.pow_p(1e170)
        assert entry.roc_radius == 1e170
        with pytest.raises(OutsideROCError):
            entry.eval(2)
        with pytest.raises(OutsideROCError):
            transform(entry.sequence, 2)


class TestTrigRows:
    def test_radius_is_larger_root_of_exp_ratios(self):
        rng = random.Random(72)
        for _ in range(40):
            q = rand_conditioned(rng)
            s = q.vector_part * (1 / q.vec_abs())
            want = max(root_magnitudes(exp(s * q))[0], root_magnitudes(exp(-(s * q)))[0])
            for entry in (cat.cos_qn(q), cat.sin_qn(q)):
                assert math.isclose(entry.roc_radius, want, rel_tol=1e-9), (entry.name, q)

    def test_radius_is_the_catalog_root_rule(self):
        # the rule of every stepped row: the larger root magnitude of the ratios
        rng = random.Random(73)
        for _ in range(40):
            for q in (rand_conditioned(rng), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))):
                e, f = exp(q * 1j), exp(q * -1j)
                want = max(library_root_magnitudes(e)[0], library_root_magnitudes(f)[0])
                assert cat.cos_qn(q).roc_radius == want == cat.sin_qn(q).roc_radius, q

    def test_degenerate_branch_grows_like_cos_of_scalar(self):
        for q0 in (0.3 + 0.4j, -1.2 - 0.7j, 2.0):
            want = math.exp(abs(q0.imag))
            assert math.isclose(cat.cos_qn(q0).roc_radius, want, rel_tol=1e-15)
            assert math.isclose(cat.sin_qn(q0).roc_radius, want, rel_tol=1e-15)

    def test_pure_vector_parameter(self):
        assert math.isclose(cat.cos_qn(2 * j).roc_radius, math.e**2, rel_tol=1e-15)


class TestEntireRow:
    def test_exp_over_fact_radius_is_zero(self):
        for q in (ONE, 3 * i + 2 * I * j, ONE + I * k):
            assert cat.exp_over_fact(q).roc_radius == 0.0

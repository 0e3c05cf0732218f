"""Core algebra: Hamilton products, conjugation, norms, inverses, exp/cos/sin."""
import cmath
import copy
import math
import pickle
import random
import sys

import pytest

from biqz import (
    ONE,
    ZERO,
    Biquaternion,
    ZeroDivisorError,
    as_biquaternion,
    cos_seq_term,
    exp,
    format_literal,
    sin_seq_term,
)
from biqz.algebra import _result, i, j, k

from helpers import (
    brute_mul,
    comp_dist,
    rand_biquat,
    rand_conditioned,
    series_cos,
    series_exp,
    series_sin,
)

I = 1j  # the commuting complex unit


class Tagged(Biquaternion):
    """A Biquaternion subclass; module level so that pickle can find it."""

    __slots__ = ()


class TestHamiltonProduct:
    def test_unit_table(self):
        assert i * j == k and j * k == i and k * i == j
        assert j * i == -k and k * j == -i and i * k == -j
        assert i * i == -ONE and j * j == -ONE and k * k == -ONE
        assert i * j * k == -ONE

    def test_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            q = rand_biquat(rng)
            assert q * ONE == q
            assert ONE * q == q

    def test_zero_divisor_square(self):
        u = ONE + I * k
        assert u * u == Biquaternion(2, 0, 0, 2j)
        assert brute_mul(u, u) == u * u

    def test_against_basis_expansion(self):
        rng = random.Random(12)
        for _ in range(300):
            p, q = rand_biquat(rng, 2.0), rand_biquat(rng, 2.0)
            assert comp_dist(p * q, brute_mul(p, q)) <= 1e-13 * max(
                1.0, (p * q).component_norm()
            )

    def test_complex_unit_commutes_with_vector_units(self):
        # I q == q I for every basis unit, expanded both ways
        for unit in (i, j, k):
            assert (I * unit) == (unit * I)
            assert (I * unit) * (I * unit) == unit * unit * (I * I)

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(1000):
            p, q, r = (rand_biquat(rng, 2.0) for _ in range(3))
            left = (p * q) * r
            right = p * (q * r)
            assert comp_dist(left, right) <= 1e-12 * max(1.0, left.component_norm())

    def test_noncommutativity_witness(self):
        assert i * j == k
        assert j * i == -k

    def test_scalar_mixing(self):
        q = Biquaternion(1, 2, 3, 4)
        assert 2 * q == q * 2 == q + q
        assert (1 + 1j) * q == q * (1 + 1j)
        assert q / 2 == Biquaternion(0.5, 1, 1.5, 2)
        assert 1 - q == Biquaternion(0, -2, -3, -4)


class TestConjugate:
    def test_definition(self):
        assert Biquaternion(1, 2, 3, 4).conj() == Biquaternion(1, -2, -3, -4)
        assert Biquaternion(5).conj() == Biquaternion(5)
        assert (I * k).conj() == -(I * k)

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(14)
        for _ in range(1000):
            p, q = rand_biquat(rng, 2.0), rand_biquat(rng, 2.0)
            assert p.conj().conj() == p
            lhs = (p * q).conj()
            rhs = q.conj() * p.conj()
            assert comp_dist(lhs, rhs) <= 1e-12 * max(1.0, lhs.component_norm())


class TestNorms:
    def test_complex_norm_examples(self):
        assert (ONE + I * k).complex_norm_sq() == 0
        assert Biquaternion(2).complex_norm_sq() == 4
        assert (I * j).complex_norm_sq() == -1

    def test_complex_norm_is_q_times_conj(self):
        rng = random.Random(15)
        for _ in range(200):
            q = rand_biquat(rng, 2.0)
            prod = q * q.conj()
            # the product is an exact scalar: vector part cancels identically
            assert prod.x == 0 and prod.y == 0 and prod.z == 0
            assert prod.w == q.complex_norm_sq()

    def test_split_form(self):
        # x = a + I b with real quaternions a, b:
        # cns == |a|^2 - |b|^2 + 2I(a0*b0 + dot(vec a, vec b))
        rng = random.Random(16)
        for _ in range(200):
            a = [rng.uniform(-2, 2) for _ in range(4)]
            b = [rng.uniform(-2, 2) for _ in range(4)]
            x = Biquaternion(*(complex(ar, br) for ar, br in zip(a, b)))
            a_sq = sum(v * v for v in a)
            b_sq = sum(v * v for v in b)
            cross = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
            want = complex(a_sq - b_sq, 2 * cross)
            assert abs(x.complex_norm_sq() - want) <= 1e-12 * max(1.0, abs(want))

    def test_real_norm_examples(self):
        assert (ONE + I * k).real_norm() == 0.0
        assert math.isclose((i + j).real_norm(), math.sqrt(2), rel_tol=1e-15)
        assert ONE.real_norm() == 1.0

    def test_real_norm_fourth_power(self):
        rng = random.Random(17)
        for _ in range(200):
            q = rand_biquat(rng, 2.0)
            assert math.isclose(
                q.real_norm() ** 4,
                abs(q.complex_norm_sq()) ** 2,
                rel_tol=1e-10,
                abs_tol=1e-12,
            )

    def test_multiplicativity(self):
        rng = random.Random(18)
        for _ in range(2000):
            p = rand_conditioned(rng, 2.0)
            q = rand_conditioned(rng, 2.0)
            got = (p * q).real_norm()
            want = p.real_norm() * q.real_norm()
            assert abs(got - want) <= 1e-10 * want

    def test_multiplicativity_with_exact_zero_divisor(self):
        # real_norm takes a square root of the cancelled q*conj(q), so float
        # noise shows up at sqrt(ulp) scale, not ulp scale
        u = ONE + I * k
        rng = random.Random(19)
        for _ in range(25):
            p = rand_biquat(rng, 2.0)
            prod = p * u
            assert prod.real_norm() <= 1e-7 * max(1.0, prod.component_norm())

    def test_component_norm(self):
        q = Biquaternion(3 + 4j)
        assert q.component_norm() == 5.0
        assert q.real_norm() == 5.0


class TestInverse:
    def test_examples(self):
        assert i.inverse() == -i
        assert Biquaternion(2).inverse() == Biquaternion(0.5)
        with pytest.raises(ZeroDivisorError):
            (ONE + I * k).inverse()

    def test_round_trip(self):
        rng = random.Random(20)
        done = 0
        while done < 1000:
            q = rand_biquat(rng, 2.0)
            if abs(q.complex_norm_sq()) <= 0.1:
                continue
            done += 1
            for prod in (q * q.inverse(), q.inverse() * q):
                assert (prod - ONE).real_norm() <= 1e-11

    def test_matches_conj_over_cns(self):
        rng = random.Random(21)
        for _ in range(100):
            q = rand_conditioned(rng)
            want = q.conj() / q.complex_norm_sq()
            assert comp_dist(q.inverse(), want) == 0.0

    def test_in_range_inverses_are_the_direct_quotient_by_repr(self):
        # the unit-copy retry runs only for refused values: every value the
        # direct test accepts keeps conj(q) / cns bit for bit, signed zeros included
        rng = random.Random(22)
        for _ in range(500):
            q = rand_biquat(rng, 10.0 ** rng.uniform(-150, 150))
            assert q.is_invertible()
            cns = q.complex_norm_sq()
            want = Biquaternion(q.w / cns, -q.x / cns, -q.y / cns, -q.z / cns)
            assert repr(q.inverse()) == repr(want)

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170])
    def test_value_whose_squares_leave_double_range_inverts(self, scale):
        # cns and the squared size overflow (or underflow), but the test is
        # scale-free: the copy scaled by a power of two passes it
        base = Biquaternion(1, 0.5, 0.25j)
        q = base * scale
        assert q.is_invertible()
        for prod in (q * q.inverse(), q.inverse() * q):
            assert comp_dist(prod, ONE) <= 1e-15
        assert comp_dist(Biquaternion(scale).inverse(), Biquaternion(1 / scale)) <= 4e-16 / scale

    @pytest.mark.parametrize("scale", [1e-155, 1e-158, 1e-160, 1e-162])
    def test_value_whose_complex_norm_is_subnormal_inverts_accurately(self, scale):
        # cns is subnormal, so dividing by it directly loses most of its bits
        # (1.1e-5 at 1e-160); below the normal range the unit copy is inverted
        q = Biquaternion(1, 0.5) * scale
        assert abs(q.complex_norm_sq()) < sys.float_info.min
        assert q.is_invertible()
        for prod in (q * q.inverse(), q.inverse() * q):
            assert comp_dist(prod, ONE) <= 1e-15


class TestVecAbs:
    def test_examples(self):
        assert (3 * j).vec_abs() == 3
        assert cmath.isclose((i + j).vec_abs(), math.sqrt(2), rel_tol=1e-15)
        assert (I * k).vec_abs() == 1j

    def test_principal_branch(self):
        rng = random.Random(22)
        for _ in range(200):
            q = rand_biquat(rng, 2.0)
            va = q.vec_abs()
            assert va.real > 0 or (va.real == 0 and va.imag >= 0)
            want = q.x * q.x + q.y * q.y + q.z * q.z
            assert abs(va * va - want) <= 1e-12 * max(1.0, abs(want))

    def test_real_quaternion_reduces_to_length(self):
        q = Biquaternion(0, 1, 2, 2)
        assert q.vec_abs() == 3


class TestPow:
    def test_examples(self):
        assert (i + j) ** 2 == Biquaternion(-2)
        assert (ONE + I * k) ** 3 == Biquaternion(4, 0, 0, 4j)
        rng = random.Random(23)
        for _ in range(20):
            assert rand_biquat(rng) ** 0 == ONE

    def test_matches_repeated_product(self):
        rng = random.Random(24)
        for _ in range(50):
            q = rand_biquat(rng)
            by_hand = ONE
            for n in range(7):
                assert comp_dist(q**n, by_hand) <= 1e-12 * max(1.0, by_hand.component_norm())
                by_hand = by_hand * q

    def test_zero_divisor_power_identity(self):
        # (1 + Ik)**n == 2**(n-1) * (1 + Ik), exactly representable in floats
        u = ONE + I * k
        for n in range(1, 21):
            assert u**n == u * 2.0 ** (n - 1)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            i ** -1
        with pytest.raises(ValueError):
            i**0.5


class TestExp:
    def test_exp_zero(self):
        assert exp(ZERO) == ONE

    def test_exp_quarter_turn(self):
        got = exp((math.pi / 2) * i)
        assert comp_dist(got, series_exp((math.pi / 2) * i, 30)) <= 1e-12
        assert comp_dist(got, i) <= 1e-15

    def test_exp_complex_vector(self):
        q = I * k * math.pi
        got = exp(q)
        assert comp_dist(got, series_exp(q, 40)) <= 1e-10
        want = Biquaternion(math.cosh(math.pi), 0, 0, 1j * math.sinh(math.pi))
        assert comp_dist(got, want) <= 1e-10

    def test_exp_against_series(self):
        rng = random.Random(25)
        for _ in range(300):
            q = rand_biquat(rng, 0.7)  # component ball keeps real_norm <= 2
            assert q.real_norm() <= 2.0
            assert comp_dist(exp(q), series_exp(q, 40)) <= 1e-10

    def test_exp_degenerate_nilpotent(self):
        # v = i + Ij has v*v == 0, so exp(q0 + v) == e**q0 * (1 + v) exactly
        v = i + I * j
        assert (v * v) == ZERO
        q = Biquaternion(0.5) + v
        want = (ONE + v) * math.exp(0.5)
        assert comp_dist(exp(q), want) <= 1e-14
        assert comp_dist(exp(q), series_exp(q, 40)) <= 1e-12


class TestTrigTerms:
    def test_index_zero(self):
        rng = random.Random(26)
        for _ in range(20):
            q = rand_biquat(rng)
            assert comp_dist(cos_seq_term(q, 0), ONE) <= 1e-14
            assert comp_dist(sin_seq_term(q, 0), ZERO) <= 1e-14

    def test_against_series(self):
        rng = random.Random(27)
        for _ in range(200):
            q = rand_biquat(rng, 0.7)
            n = rng.choice([1, 2, 3])
            arg = q * n
            if arg.real_norm() > 2.0:
                continue
            assert comp_dist(cos_seq_term(q, n), series_cos(arg, 40)) <= 1e-10
            assert comp_dist(sin_seq_term(q, n), series_sin(arg, 40)) <= 1e-10

    def test_pure_vector_argument_grows_like_cosh(self):
        # the vector unit acts like an imaginary direction: cos(2j) == cosh(2)
        got = cos_seq_term(2 * j, 1)
        assert comp_dist(got, series_cos(2 * j, 30)) <= 1e-12
        assert comp_dist(got, Biquaternion(math.cosh(2))) <= 1e-12
        got_sin = sin_seq_term(2 * j, 1)
        assert comp_dist(got_sin, j * math.sinh(2)) <= 1e-12

    def test_degenerate_branch_complex_scalar(self):
        q = Biquaternion(0.3 + 0.2j)
        for n in range(4):
            assert comp_dist(cos_seq_term(q, n), cmath.cos((0.3 + 0.2j) * n)) <= 1e-12
            assert comp_dist(sin_seq_term(q, n), cmath.sin((0.3 + 0.2j) * n)) <= 1e-12

    def test_degenerate_branch_nilpotent(self):
        v = (i + I * j) * 0.4
        q0 = 0.7
        q = Biquaternion(q0) + v
        for n in range(5):
            want_cos = Biquaternion(math.cos(q0 * n)) - v * (n * math.sin(q0 * n))
            want_sin = Biquaternion(math.sin(q0 * n)) + v * (n * math.cos(q0 * n))
            assert comp_dist(cos_seq_term(q, n), want_cos) <= 1e-13
            assert comp_dist(sin_seq_term(q, n), want_sin) <= 1e-13
            assert comp_dist(cos_seq_term(q, n), series_cos(q * n, 40)) <= 1e-10
            assert comp_dist(sin_seq_term(q, n), series_sin(q * n, 40)) <= 1e-10

    def test_branch_seam_consistency(self):
        # a vector part of size 1e-6 takes the nondegenerate branch; it must
        # agree with the degenerate formulas to 1e-5 absolute
        rng = random.Random(28)
        for _ in range(50):
            q0 = rng.uniform(-1.5, 1.5)
            axis = rng.choice([i, j, k])
            v = axis * 1e-6
            q = Biquaternion(q0) + v
            assert abs(q.vec_abs()) >= 1e-10  # nondegenerate path
            for n in (0, 1, 2, 5):
                deg_cos = Biquaternion(math.cos(q0 * n)) - v * (n * math.sin(q0 * n))
                deg_sin = Biquaternion(math.sin(q0 * n)) + v * (n * math.cos(q0 * n))
                assert comp_dist(cos_seq_term(q, n), deg_cos) <= 1e-5
                assert comp_dist(sin_seq_term(q, n), deg_sin) <= 1e-5
            deg_exp = (ONE + v) * math.exp(q0)
            assert comp_dist(exp(q), deg_exp) <= 1e-5


class TestValueSemantics:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Biquaternion(float("nan"))
        with pytest.raises(ValueError):
            Biquaternion(0, complex(1, float("inf")))

    def test_immutability(self):
        q = Biquaternion(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            q.w = 5

    def test_components_round_trip(self):
        q = Biquaternion(1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j)
        assert Biquaternion.from_components(q.components()) == q
        assert q.components() == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_scalar_embedding(self):
        assert as_biquaternion(2.5) == Biquaternion(2.5)
        assert as_biquaternion(1 + 2j) == Biquaternion(1 + 2j)
        assert as_biquaternion(i) is i
        with pytest.raises(TypeError):
            as_biquaternion("nope")

    def test_to_complex(self):
        assert Biquaternion(3 + 4j).to_complex() == 3 + 4j
        with pytest.raises(ValueError):
            (i + j).to_complex()

    def test_equality_and_hash(self):
        assert Biquaternion(1) == 1 and Biquaternion(2j) == 2j
        assert hash(Biquaternion(1, 2, 3, 4)) == hash(Biquaternion(1, 2, 3, 4))

    @pytest.mark.parametrize("scalar", [1, -7, 2.5, -0.0, 0, 3j, 1 - 2j, complex(4, -0.0), complex(-0.0, -0.0)])
    def test_scalar_values_hash_as_the_scalar_they_equal(self, scalar):
        for q in (Biquaternion(scalar), Biquaternion(scalar, -0.0, complex(0.0, -0.0), 0)):
            assert q == scalar and hash(q) == hash(scalar)
            assert q in {scalar} and scalar in {q}
            assert {scalar: "a"}.get(q) == "a"

    def test_commutes_with(self):
        assert not i.commutes_with(j)
        assert i.commutes_with(3 + 2j)
        q = rand_biquat(random.Random(29))
        assert q.commutes_with(q * q + 2 * q - ONE)


class TestResultConstruction:
    """Values built by ``_result`` and by the exact-type fast path of the ring
    operations behave like constructor-built ones."""

    @staticmethod
    def _built():
        p = Biquaternion(1 + 2j, -3, 0.5j, 4 - 1j)
        q = Biquaternion(-2, 1j, 3 + 3j, -0.25)
        return [p * q, p + q, p - q, -p, p.conj(), p * 2.5, 2j * p, p / 4, p.inverse(), p**3]

    def test_exact_type(self):
        for v in self._built():
            assert type(v) is Biquaternion

    def test_immutable(self):
        for v in self._built():
            with pytest.raises(AttributeError):
                v.w = 5
            with pytest.raises(AttributeError):
                v.extra = 1

    def test_equality_and_hash_match_constructor(self):
        for v in self._built():
            twin = Biquaternion(v.w, v.x, v.y, v.z)
            assert v == twin and twin == v
            assert hash(v) == hash(twin)
            assert {v: 1}[twin] == 1

    def test_copy_and_pickle_round_trip(self):
        for v in self._built() + [Biquaternion(1, 2, 3, 4), Tagged(1, 2j, 3, 4)]:
            for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(twin) is type(v)
                assert twin == v and hash(twin) == hash(v)
                with pytest.raises(AttributeError):
                    twin.x = 0

    def test_non_finite_raises_constructor_error(self):
        big = Biquaternion(1e200, 1e200)
        for op in (lambda: big * big, lambda: big * 1e200, lambda: big / 1e-200):
            with pytest.raises(ValueError, match="non-finite biquaternion component"):
                op()
        with pytest.raises(ValueError, match="non-finite biquaternion component"):
            _result(complex(float("nan"), 0.0), 0j, 0j, 0j)

    def test_subclass_operand_takes_general_path(self):
        rng = random.Random(41)
        for _ in range(20):
            p, q = rand_biquat(rng, 2.0), rand_biquat(rng, 2.0)
            t = Tagged(q.w, q.x, q.y, q.z)
            for got, want in ((p * t, p * q), (t * p, q * p), (p + t, p + q),
                              (t + p, q + p), (p - t, p - q), (t - p, q - p)):
                assert type(got) is Biquaternion
                assert got == want

    def test_scalar_subclass_operands_take_general_path(self):
        class Real(float):
            def __mul__(self, other):
                return Real(float(self) * other) if isinstance(other, float) else NotImplemented

        class Cplx(complex):
            pass

        q = Biquaternion(1 + 2j, 3, -1j, 0.5)
        for scalar in (Real(2.0), Cplx(2.0), 2):
            for got in (q * scalar, scalar * q, q + scalar, scalar + q, q - scalar, q / scalar):
                assert type(got) is Biquaternion
                assert all(type(c) is complex for c in (got.w, got.x, got.y, got.z))
            assert q * scalar == q * 2.0 and scalar * q == 2.0 * q
            assert q + scalar == q + 2.0 and q - scalar == q - 2.0

    def test_numpy_scalars_take_general_path(self):
        np = pytest.importorskip("numpy")
        q = Biquaternion(1 + 2j, 3, -1j, 0.5)
        for scalar in (np.float64(2.0), np.complex128(2.0)):
            for got in (q * scalar, q + scalar, q - scalar, q / scalar):
                assert type(got) is Biquaternion
                assert all(type(c) is complex for c in (got.w, got.x, got.y, got.z))
            assert q * scalar == q * 2.0 and q + scalar == q + 2.0


class TestOperandsAndViews:
    """The operators' answer to an operand that is not a number, and the
    one-line views ``+q``, ``abs`` and ``str``."""

    def test_from_components_wants_eight(self):
        with pytest.raises(ValueError, match="eight real components"):
            Biquaternion.from_components(range(7))

    @pytest.mark.parametrize("op", [
        lambda q: q + "a",
        lambda q: q - "a",
        lambda q: "a" - q,
        lambda q: q * "a",
        lambda q: "a" * q,
        lambda q: q / "a",
        lambda q: q / q,  # only scalars divide; q * q.inverse() is the quotient
    ], ids=["add", "sub", "rsub", "mul", "rmul", "truediv", "truediv_by_biquaternion"])
    def test_a_non_number_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(Biquaternion(1, 2j, 3, 4))

    def test_equality_with_a_non_number_is_false(self):
        q = Biquaternion(1, 2j, 3, 4)
        assert (q == "a") is False
        assert q != "a"

    def test_unary_plus_abs_and_str(self):
        q = Biquaternion(1 + 2j, -3, 0.5j, 4 - 1j)
        assert +q is q
        assert abs(q) == q.real_norm()
        assert str(q) == format_literal(q)

"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Random draws are
seeded, and samplers for real-gauge identities reject draws so close to the
zero-divisor variety that double precision cannot resolve the identity being
checked (the gauge there is the square root of a fully cancelled quantity).
"""
import math
import random
import time

import biqz.catalog as cat
from biqz import (
    ONE,
    Biquaternion,
    Sequence,
    ZeroDivisorError,
    advance,
    advance_transform,
    convolve,
    cos_seq_term,
    deconvolve_geometric,
    delay,
    delay_transform,
    exp,
    geometric_scale,
    geometric_sum,
    geometric_remainder,
    index_scale_transform,
    iterate,
    linear_left,
    linear_right,
    linear_two_sided,
    roc_estimate,
    sin_seq_term,
    transform,
    verify_closed_form,
)
from biqz.algebra import i, j, k

from helpers import (
    comp_dist,
    rand_biquat,
    rand_complex_shell,
    rand_conditioned,
    rel_err,
    root_magnitudes,
    series_cos,
    series_exp,
    series_sin,
    worked_examples,
)

I = 1j


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")


# -- criterion 1: worked-example golden suite ---------------------------------


def test_criterion_1_worked_examples_golden_suite():
    started = time.perf_counter()
    ok = True

    for rec, closed, label in worked_examples():
        rep = verify_closed_form(rec, closed, n_terms=40, tol=1e-9)
        ok = ok and rep.passed
        seq = iterate(rec, 41)
        for n in range(41):
            want = closed.term(n)
            gap = (seq.term(n) - want).real_norm()
            ok = ok and gap <= 1e-9 * max(1.0, want.real_norm())

    target = Sequence.geometric(2 * i)
    sol = deconvolve_geometric(target, 3 * j, 31)
    closed5 = lambda t: (2 * i) ** t - (3 * j) * (2 * i) ** (t - 1) if t else ONE
    recon = convolve(Sequence.geometric(3 * j), sol)
    for t in range(31):
        scale = max(1.0, target.term(t).real_norm())
        ok = ok and (sol.term(t) - closed5(t)).real_norm() <= 1e-10 * scale
        ok = ok and (recon.term(t) - target.term(t)).real_norm() <= 1e-10 * scale

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(1, f"worked examples 1-5 reproduce their closed forms ({elapsed:.2f}s)", ok)
    assert ok


# -- criterion 2: geometric remainder equality --------------------------------


def _draw_remainder_argument(rng):
    """Random y with real gauge in [0.1, 0.9], conditioned so double
    precision can resolve the remainder identity (root ratio <= 1.5 and the
    resolvent 1 - y kept away from the zero-divisor variety)."""
    while True:
        y = rand_biquat(rng)
        big, small = root_magnitudes(y)
        if small <= 1e-12 or big / small > 1.5:
            continue
        y = y * (rng.uniform(0.1, 0.9) / y.real_norm())
        big, small = root_magnitudes(y)
        s = (y.w * y.w - y.complex_norm_sq()) ** 0.5
        for lam in (y.w + s, y.w - s):
            if abs(1 - lam) < 0.05:
                break
        else:
            return y, big


def _tail_by_summation(y, start, top_root):
    terms_needed = int(math.ceil(-17.0 / math.log10(top_root))) if top_root > 1e-9 else 8
    power = y**start
    total = power
    for _ in range(min(terms_needed, 4000)):
        power = power * y
        total = total + power
    return total


def test_criterion_2_remainder_norm_equality():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(500):
        y, top_root = _draw_remainder_argument(rng)
        for n_terms in (5, 10, 20):
            want = geometric_remainder(y, n_terms)
            if top_root <= 0.8:
                # the tail sums directly with no cancellation
                diff = _tail_by_summation(y, n_terms, top_root)
            else:
                # the tail is comparable to the sum itself; subtract exactly
                partial = ONE
                power = ONE
                for _ in range(1, n_terms):
                    power = power * y
                    partial = partial + power
                diff = geometric_sum(y) - partial
            got = diff.real_norm()
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-10
    report(2, f"remainder norm identity over 500 draws x N in (5,10,20), "
              f"worst rel {worst:.2e}", ok)
    assert ok


# -- criterion 3: real-gauge multiplicativity ----------------------------------


def test_criterion_3_norm_multiplicativity():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(10_000):
        p = rand_conditioned(rng, 2.0)
        q = rand_conditioned(rng, 2.0)
        want = p.real_norm() * q.real_norm()
        got = (p * q).real_norm()
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-10
    report(3, f"real-gauge multiplicativity over 10000 pairs, worst rel {worst:.2e}", ok)
    assert ok


# -- criterion 4: catalog vs series, all rows, both trig branches --------------


def _acceptance_entries(rng):
    entries = [cat.const_one(), cat.ramp_n(), cat.ramp_n2()]
    entries.append(cat.pow_p(rand_conditioned(rng)))
    entries.append(cat.n_pow_p(rand_conditioned(rng)))
    while True:
        q = rand_conditioned(rng) * 0.8
        if abs(q.vec_abs()) >= 0.3:
            break
    q_flat = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
    q_nil = Biquaternion(rng.uniform(-0.8, 0.8)) + (i + I * j) * rng.uniform(0.2, 0.6)
    entries.append(cat.cos_qn(q))
    entries.append(cat.cos_qn(q_flat))
    entries.append(cat.cos_qn(q_nil))
    entries.append(cat.sin_qn(q))
    entries.append(cat.sin_qn(q_flat))
    entries.append(cat.sin_qn(q_nil))
    entries.append(cat.binom_shifted(rng.choice([1, 2, 3]), rand_conditioned(rng)))
    entries.append(cat.binom(rng.choice([1, 2, 3]), rand_conditioned(rng)))
    entries.append(cat.exp_over_fact(rand_conditioned(rng, 2.0)))
    return entries


def test_criterion_4_catalog_matches_series_and_variant_fails():
    rng = random.Random(404)
    ok = True
    covered = set()
    for entry in _acceptance_entries(rng):
        covered.add(entry.name)
        lo = max(2.0 * entry.roc_radius, 0.5)
        hi = max(4.0 * entry.roc_radius, 2.0)
        for _ in range(20):
            x = rand_complex_shell(rng, lo, hi)
            tv = transform(entry.sequence, x, eps=1e-12)
            deviation = comp_dist(tv.value, entry.eval(x))
            ok = ok and deviation <= tv.tail_bound + 1e-10
    ok = ok and covered == set(cat.ALL_NAMES)

    # the as-printed n*p**n variant must demonstrably fail the same check
    printed = cat.n_pow_p(rand_conditioned(rng), as_printed=True)
    lo = max(2.0 * printed.roc_radius, 0.5)
    failures = 0
    for _ in range(20):
        x = rand_complex_shell(rng, lo, 2 * lo)
        tv = transform(printed.sequence, x, eps=1e-12)
        if comp_dist(tv.value, printed.eval(x)) > tv.tail_bound + 1e-10:
            failures += 1
    ok = ok and failures > 0
    report(4, f"all 10 rows match series at 20 in-ROC points (trig rows: both "
              f"branches); as-printed variant fails at {failures}/20 points", ok)
    assert ok


# -- criterion 5: transform-rule property suite ---------------------------------


def _draw_sequence(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Sequence.constant(rand_conditioned(rng))
    if kind == 1:
        p = rand_conditioned(rng)
        return Sequence.geometric(p * (rng.uniform(0.3, 1.4) / root_magnitudes(p)[0]))
    if kind == 2:
        return Sequence(lambda n: Biquaternion(n))
    p = rand_conditioned(rng)
    p = p * (rng.uniform(0.3, 1.2) / root_magnitudes(p)[0])
    return Sequence(lambda n, base=p: base**n * (n + 1))


def _safe_point(rng, *seqs):
    sigma = max(roc_estimate(s, 48) for s in seqs)
    return rand_complex_shell(rng, 2.0 * max(sigma, 0.5), 3.0 * max(sigma, 0.5))


def test_criterion_5_transform_rule_suite():
    rng = random.Random(505)
    checks = {}

    worst = 0.0
    for _ in range(100):
        f, g = _draw_sequence(rng), _draw_sequence(rng)
        c1, c2 = rand_biquat(rng), rand_biquat(rng)
        x = _safe_point(rng, f, g)
        xf = transform(f, x, eps=1e-13).value
        xg = transform(g, x, eps=1e-13).value
        worst = max(
            worst,
            rel_err(transform(linear_left(c1, f, c2, g), x, eps=1e-13).value,
                    c1 * xf + c2 * xg),
            rel_err(transform(linear_right(f, c1, g, c2), x, eps=1e-13).value,
                    xf * c1 + xg * c2),
            rel_err(transform(linear_two_sided(c1, f, g, c2), x, eps=1e-13).value,
                    c1 * xf + xg * c2),
        )
    checks["linearity(3)"] = worst <= 1e-9

    worst = 0.0
    for _ in range(100):
        f = _draw_sequence(rng)
        x = _safe_point(rng, f)
        n_shift = rng.choice([1, 2, 3])
        got = advance_transform(f, n_shift, x, eps=1e-14)
        want = transform(advance(f, n_shift), x, eps=1e-14).value
        worst = max(worst, rel_err(got, want))
        got = delay_transform(f, n_shift, x, eps=1e-14)
        want = transform(delay(f, n_shift), x, eps=1e-14).value
        worst = max(worst, rel_err(got, want))
    checks["shift I/II"] = worst <= 1e-9

    worst = 0.0
    for _ in range(100):
        f = _draw_sequence(rng)
        q = rand_conditioned(rng, max_root_ratio=2.0)
        scaled = geometric_scale(f, q)
        sigma = max(roc_estimate(scaled, 48), 0.5)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        x = q * alpha + beta
        x = x * (2.0 * sigma / root_magnitudes(x)[1])
        assert q.commutes_with(x)
        got = transform(scaled, x, eps=1e-13).value
        want = transform(f, q.inverse() * x, eps=1e-13).value
        worst = max(worst, rel_err(got, want))
    checks["q**n scaling"] = worst <= 1e-9

    worst = 0.0
    for _ in range(100):
        f = _draw_sequence(rng)
        x = _safe_point(rng, f)
        # the rule X[n f_n](x) = -x d/dx X[f](x), by a central difference along the real axis
        h = 1e-5 * abs(x)
        plus = transform(f, x + h, eps=1e-13).value
        minus = transform(f, x - h, eps=1e-13).value
        want = (plus - minus) * (-x / (2.0 * h))
        got = index_scale_transform(f, x, eps=1e-13)
        worst = max(worst, comp_dist(got, want) / max(1.0, want.component_norm()))
    checks["n-scaling"] = worst <= 1e-6

    worst = 0.0
    for _ in range(100):
        f, g = _draw_sequence(rng), _draw_sequence(rng)
        x = _safe_point(rng, f, g)
        got = transform(convolve(f, g), x, eps=1e-13).value
        want = transform(f, x, eps=1e-13).value * transform(g, x, eps=1e-13).value
        worst = max(worst, rel_err(got, want))
    checks["convolution"] = worst <= 1e-9

    ok = all(checks.values())
    detail = ", ".join(f"{name} {'ok' if good else 'FAIL'}" for name, good in checks.items())
    report(5, f"transform rules over 100 instances each: {detail}", ok)
    assert ok


# -- criterion 6: zero-divisor power identity -----------------------------------


def test_criterion_6_zero_divisor_power_identity():
    u = ONE + I * k
    worst = 0.0
    for n in range(1, 21):
        want = u * 2.0 ** (n - 1)
        worst = max(worst, comp_dist(u**n, want) / want.component_norm())
    ok = worst <= 1e-12
    raised = False
    try:
        u.inverse()
    except ZeroDivisorError:
        raised = True
    ok = ok and raised
    report(6, f"(1+Ik)**n == 2**(n-1) (1+Ik) for n=1..20 (worst rel {worst:.1e}); "
              f"inverse rejected: {raised}", ok)
    assert ok


# -- criterion 7: closed-branch transcendentals vs power series ------------------


def test_criterion_7_transcendental_oracle_equivalence():
    rng = random.Random(707)
    worst = 0.0
    count = 0
    while count < 300:
        q = rand_biquat(rng, 0.7)
        if q.real_norm() > 2.0:
            continue
        count += 1
        worst = max(worst, comp_dist(exp(q), series_exp(q, 40)))
        n = rng.choice([1, 2])
        if (q * n).real_norm() <= 2.0:
            worst = max(worst, comp_dist(cos_seq_term(q, n), series_cos(q * n, 40)))
            worst = max(worst, comp_dist(sin_seq_term(q, n), series_sin(q * n, 40)))
    # degenerate-branch arguments: complex scalars and nilpotent vector parts
    for _ in range(50):
        q = Biquaternion(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        v = (i + I * j) * rng.uniform(0.1, 0.5)
        for arg in (q, q + v):
            if arg.real_norm() > 2.0:
                continue
            worst = max(worst, comp_dist(exp(arg), series_exp(arg, 40)))
            worst = max(worst, comp_dist(cos_seq_term(arg, 1), series_cos(arg, 40)))
            worst = max(worst, comp_dist(sin_seq_term(arg, 1), series_sin(arg, 40)))
    ok = worst <= 1e-10
    report(7, f"exp/cos/sin closed branches vs 40-term series, worst abs {worst:.2e}", ok)
    assert ok

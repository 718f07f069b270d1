import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from midpredict.spectrum import _kth_deriv
from midpredict.synthesis import (
    MULTIPLICITY_REL_TOL,
    GainVector,
    Quasipolynomial,
    delay_free_poly,
    gain_star,
    multiplicity_at,
    q_coefficients,
    scale_gain,
    sigma_star,
)
from oracles import SturmChain, gain_from_derivative_system, rk_terms, sturm_root_certificate


def test_q_coefficients_small():
    assert q_coefficients(1) == [1, 1]
    assert q_coefficients(2) == [2, 4, 1]
    assert q_coefficients(3) == [6, 18, 9, 1]


def test_q_dimension_bounds():
    with pytest.raises(ValueError):
        q_coefficients(0)
    with pytest.raises(ValueError):
        q_coefficients(61)
    q_coefficients(60)  # boundary accepted


def test_q_root_certificates():
    # q's coefficients pass 2**53 from n = 20 on; rounded to floats, q has
    # only 32, 20 and 18 distinct negative roots at n = 36, 46 and 60
    for n in list(range(1, 21)) + [36, 46, 60]:
        count, distinct = sturm_root_certificate(q_coefficients(n))
        assert count == n
        assert distinct is True


def test_sigma_star_values():
    assert sigma_star(1) == pytest.approx(-1.0, abs=1e-14)
    assert sigma_star(2) == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-12)
    # independent check for n=3: exact Sturm bisection on q_3
    chain = SturmChain(q_coefficients(3))
    lo, hi = Fraction(-1), Fraction(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if chain.count_between(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    assert sigma_star(3) == pytest.approx(float((lo + hi) / 2), abs=1e-12)


def _rk_coeffs(n, k, delta):
    """R_k at a fixed delay as ascending coefficients in s, from rk_terms."""
    coeffs = [0.0] * (n + 1)
    for s_pow, d_pow, coef in rk_terms(n, k):
        coeffs[s_pow] += coef * delta ** d_pow
    return coeffs


def test_rk_poly_base_case():
    for n in (1, 3, 5):
        assert _rk_coeffs(n, 0, 0.7) == [0.0] * n + [1.0]


def test_rk_poly_examples():
    assert _rk_coeffs(2, 2, 1.0) == [2.0, 4.0, 1.0]
    assert _rk_coeffs(2, 1, 0.0) == [0.0, 2.0, 0.0]


def test_rk_matches_q_exactly():
    # collapsing the delay power onto the variable turns the n-th
    # derivative polynomial into q, as exact integers
    for n in range(1, 21):
        terms = rk_terms(n, n)
        coeffs = [0] * (n + 1)
        for s_pow, d_pow, coef in terms:
            assert s_pow == d_pow
            coeffs[s_pow] += coef
        assert coeffs == q_coefficients(n)


def test_gain_star_reference_values():
    g = gain_star(2)
    assert g.l[0] == pytest.approx(0.4612, abs=5e-5)
    assert g.l[1] == pytest.approx(0.0791, abs=5e-5)
    assert g.sigma_star == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-12)
    g1 = gain_star(1)
    assert g1.l[0] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_gain_star_closed_forms_n2():
    sig = -2.0 + math.sqrt(2.0)
    g = gain_star(2)
    assert g.l[0] == pytest.approx((-2.0 - sig) * sig * math.exp(sig), rel=1e-13)
    assert g.l[1] == pytest.approx((1.0 + sig) * sig ** 2 * math.exp(sig), rel=1e-13)


def test_gain_star_matches_linear_system():
    for n in range(1, 13):
        a = gain_star(n)
        b = gain_from_derivative_system(n)
        for x, y in zip(a.l, b.l):
            assert abs(x - y) <= 1e-9 * max(abs(y), 1e-300)


def test_gain_vector_invariants():
    with pytest.raises(ValueError):
        GainVector((1.0, 0.0), 2)
    with pytest.raises(ValueError):
        GainVector((1.0,), 2)
    with pytest.raises(ValueError):
        GainVector((math.inf, 1.0), 2)


@pytest.mark.parametrize(
    "gains, n, match",
    [
        ((), 0, "dimension"),
        ((1.0,), -1, "dimension"),
        ((1.0,), 2, "length"),
        ((1.0, 2.0, 3.0), 2, "length"),
        ((1.0, 0.0), 2, "trailing"),
        ((math.inf, 1.0), 2, "finite"),
        ((1.0, math.nan), 2, "finite"),
        ((-math.inf,), 1, "finite"),
    ],
)
def test_gain_vector_and_quasipolynomial_refuse_the_same_gains(gains, n, match):
    for build in (lambda: GainVector(gains, n), lambda: Quasipolynomial(n, gains, 1.0)):
        with pytest.raises(ValueError, match=match):
            build()


def test_gain_vector_refuses_dimension_below_one():
    with pytest.raises(ValueError, match="dimension"):
        GainVector((), 0)


def test_scale_gain():
    g = gain_star(2)
    same = scale_gain(g, 1.0)
    assert same.l == g.l
    quarter = scale_gain(g, 0.25)
    assert quarter.l[0] == pytest.approx(g.l[0] / 0.25, rel=1e-15)
    assert quarter.l[1] == pytest.approx(g.l[1] / 0.25 ** 2, rel=1e-15)
    g1 = scale_gain(gain_star(1), 2.0)
    assert g1.l[0] == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        scale_gain(g, 0.0)


def test_multiplicity_at_designed_root():
    g = gain_star(2)
    assert multiplicity_at(g, 1.0, g.sigma_star) == 3


def test_multiplicity_at_classic_double_root():
    g = gain_star(1)
    assert multiplicity_at(g, 1.0, -1.0) == 2


def test_multiplicity_at_nonroot():
    g = GainVector((1.0, 1.0), 2)
    assert multiplicity_at(g, 1.0, 0.0) == 0


def test_multiplicity_scaling_consistency():
    for n in (1, 2, 3):
        g = gain_star(n)
        for delta in (0.25, 1.0, 2.0):
            scaled = scale_gain(g, delta)
            assert multiplicity_at(scaled, delta, g.sigma_star / delta) == n + 1


def _reference_multiplicity(gain, delta, s0):
    """multiplicity_at's former rule, kept as a reference: the derivative
    conditions of exp(delta*s)*D, whose first m derivatives
    R_k(s) exp(delta*s) + L^(k)(s) vanish at s0 exactly when D's do, each
    judged against its own largest term magnitude."""
    n = gain.n
    s0 = complex(s0)
    eds = cmath.exp(delta * s0)
    count = 0
    for k in range(n + 1):
        value, scale = 0.0 + 0.0j, 0.0
        for s_pow, d_pow, coef in rk_terms(n, k):
            term = coef * s0 ** s_pow * delta ** d_pow
            value += term
            scale = max(scale, abs(term))
        value *= eds
        scale *= abs(eds)
        for idx, coef in enumerate(gain.l[: n - k]):
            term = coef * math.perm(n - 1 - idx, k) * s0 ** (n - 1 - idx - k)
            value += term
            scale = max(scale, abs(term))
        if abs(value) <= MULTIPLICITY_REL_TOL * max(scale, 1e-300):
            count += 1
        else:
            break
    return count


def test_multiplicity_matches_the_multiplied_rule_at_designed_roots():
    for n in range(1, 47):
        g = gain_star(n)
        for delta in (0.25, 1.0, 4.0):
            scaled = scale_gain(g, delta)
            for eps in (0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3):
                for s0 in {g.sigma_star / delta * (1 + eps), g.sigma_star / delta * (1 - eps)}:
                    expect = _reference_multiplicity(scaled, delta, s0)
                    assert multiplicity_at(scaled, delta, s0) == expect, (n, delta, s0)


def test_multiplicity_matches_the_multiplied_rule_randomized():
    # designed gains, nudged off their root in odd cases, and (s + a)**n at
    # zero delay, probed near the multiple root and at random points. The
    # two rules scale a condition differently, so one whose residual sits at
    # the tolerance can hold under one rule and fail under the other: each
    # disagreement must be such a condition, and they must stay rare.
    rng = np.random.default_rng(18)
    counts, disagreements = set(), 0
    for case in range(1200):
        n = int(rng.integers(1, 13))
        delta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        if delta == 0.0:
            a = float(rng.uniform(0.1, 3.0))
            gains = [math.comb(n, k) * a ** k for k in range(1, n + 1)]
            root = -a
        else:
            g = gain_star(n)
            gains = list(scale_gain(g, delta).l)
            root = g.sigma_star / delta
        if case % 2:
            gains = [v * (1 + 10.0 ** rng.uniform(-15, -3) * rng.normal()) for v in gains]
        eps = 10.0 ** rng.uniform(-14, 0)
        s0 = root * (1 + eps * complex(rng.normal(), rng.normal() * (case % 3 == 0)))
        if case % 5 == 0:
            s0 = complex(rng.normal(), rng.normal()) * 3
        gain = GainVector(gains, n)
        expect = _reference_multiplicity(gain, delta, s0)
        got = multiplicity_at(gain, delta, s0)
        if got != expect:
            disagreements += 1
            value, scale = _kth_deriv(Quasipolynomial(n, gains, delta), s0, min(got, expect))
            ratio = abs(value) / (MULTIPLICITY_REL_TOL * scale)
            assert 0.5 <= ratio <= 2.0, (n, delta, gains, s0, got, expect)
        counts.add(expect)
    assert disagreements <= 12  # 1 % of the cases
    assert len(counts) >= 10  # the cases reach well beyond "no root" and "full order"


def test_multiplicity_at_nan_point_is_zero():
    assert multiplicity_at(gain_star(2), 1.0, math.nan) == 0


def test_multiplicity_at_overflowing_terms_hold_no_condition():
    # the gains' terms overflow at s0 = 2; the e^(delta s)-multiplied rule
    # read inf <= tol * inf as a vanishing condition and counted 30
    huge = GainVector([1e300] * 30, 30)
    for delta in (0.0, 1e-9, 0.01):
        assert multiplicity_at(huge, delta, 2.0) == 0


def test_multiplicity_at_refuses_a_delay_that_is_not_finite_and_nonnegative():
    for delta in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="delay"):
            multiplicity_at(gain_star(2), delta, -1.0)


def test_factorization_of_designed_loop():
    # with an (n+1)-fold root the characteristic function factors through
    # an integral remainder; quadrature on the remainder must reproduce it
    import cmath

    n = 2
    g = gain_star(n)
    sig = g.sigma_star
    qc = q_coefficients(n)

    def q_at(x):
        acc = 0.0
        for c in reversed(qc):
            acc = acc * x + c
        return acc

    def integrand(theta, s):
        return q_at(theta * sig) * cmath.exp(-(s - sig) * theta)

    def simpson(f, a, b, m=1):
        mid = (a + b) / 2
        return (b - a) / 6.0 * (f(a) + 4.0 * f(mid) + f(b))

    def adaptive(f, a, b, tol, whole=None, depth=0):
        if whole is None:
            whole = simpson(f, a, b)
        mid = (a + b) / 2
        left = simpson(f, a, mid)
        right = simpson(f, mid, b)
        if abs(left + right - whole) <= 15 * tol or depth > 30:
            return left + right + (left + right - whole) / 15.0
        return adaptive(f, a, mid, tol / 2, left, depth + 1) + adaptive(
            f, mid, b, tol / 2, right, depth + 1
        )

    rng = np.random.default_rng(3)
    for _ in range(20):
        s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(s - sig) < 0.3:
            continue
        integral = adaptive(lambda th: integrand(th, s), 0.0, 1.0, 1e-12)
        rhs = (s - sig) ** (n + 1) * integral / math.factorial(n)
        lhs = s ** n + (g.l[0] * s + g.l[1]) * cmath.exp(-s)
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), 1.0)


def test_delay_free_poly():
    g = GainVector((2.0, 1.0), 2)
    assert delay_free_poly(g) == (1.0, 2.0, 1.0)


def _fraction_gain_star(n):
    """Gains by Fraction Horner on the exact per-power coefficients."""
    sig = sigma_star(n)
    sig_frac = Fraction(sig)
    gains = []
    for k in range(1, n + 1):
        coeffs = []
        for i in range(1, n + 1):
            acc = 0
            for j in range(max(n - k + 1, i), n + 1):
                term = math.comb(n, j - i) * math.comb(j - 1, n - k)
                acc += -term if (n + j + k) % 2 else term
            coeffs.append(Fraction(acc, math.factorial(i - 1)))
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * sig_frac + c
        gains.append(float(value * sig_frac ** k) * math.exp(sig))
    return tuple(gains)


def test_gain_star_bitwise_equals_fraction_horner():
    for n in range(1, 47):
        assert gain_star(n).l == _fraction_gain_star(n), n


def test_multiplicity_at_refuses_an_overflowing_point():
    # e^(-delta*s0) overflows below delta*Re s0 = -709.78; cmath raised a bare
    # "math range error" there
    for delta, s0 in ((1.0, -1000.0), (2.0, complex(-400.0, 3.0))):
        with pytest.raises(ValueError, match=r"e\^\(-delta\*s0\) overflows"):
            multiplicity_at(gain_star(2), delta, s0)
    assert multiplicity_at(gain_star(2), 1.0, -700.0) == 0

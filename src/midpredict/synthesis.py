"""Gain synthesis that assigns a dominant characteristic root of maximal
multiplicity to the delayed output-injection loop.

The delay-normalized characteristic function is
``s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)``. Forcing a root of
multiplicity n+1 pins every gain: the root must be a zero of a fixed
polynomial q (degree n, all roots real, negative, distinct), and the gains
follow from the derivative conditions either in closed form or by solving a
triangular linear system. Both routes are implemented; they must agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import RealPolynomial, rightmost_root, sturm_root_certificate
from .spectrum import _injection_derivative

__all__ = [
    "GainVector",
    "q_coefficients",
    "q_poly",
    "rk_terms",
    "rk_poly",
    "sigma_star",
    "gain_star",
    "gain_from_derivative_system",
    "scale_gain",
    "multiplicity_at",
    "delay_free_poly",
    "sturm_root_certificate",
]

MAX_Q_DIMENSION = 60
# the delay-axis sweep needs gains up to the largest dimension whose
# crossing-frequency pattern is characterized (five frequencies at n = 46)
MAX_GAIN_DIMENSION = 46


@dataclass(frozen=True)
class GainVector:
    """Injection gains l1..ln with the assigned root in the unit-delay scale.

    sigma_star records the designed (n+1)-fold root location for the
    delay-normalized loop; rescaled gains keep the original value, and
    gains not produced by the design carry None.
    """

    l: tuple
    n: int
    sigma_star: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(float(v) for v in self.l))
        if len(self.l) != self.n:
            raise ValueError("gain vector length must equal the dimension")
        if self.l[-1] == 0.0:
            raise ValueError("trailing gain must be nonzero (s=0 must not be a root)")
        if not all(math.isfinite(v) for v in self.l):
            raise ValueError("gains must be finite")


def q_coefficients(n):
    """Exact integer coefficients of q, ascending: coeff(j) = C(n,j)*n!/j!."""
    if not 1 <= n <= MAX_Q_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_Q_DIMENSION)
    nf = math.factorial(n)
    return [math.comb(n, j) * nf // math.factorial(j) for j in range(n + 1)]


def q_poly(n):
    return RealPolynomial(tuple(float(c) for c in q_coefficients(n)))


def rk_terms(n, k):
    """Exact terms of the k-th derivative polynomial R_k.

    Returns a list of (s_power, delta_power, integer_coefficient) with
    s_power = n-k+i-1 and delta_power = i-1 for i = 1..k+1.
    """
    if not 0 <= k <= n:
        raise ValueError("derivative order must be in 0..n")
    kf = math.factorial(k)
    terms = []
    for i in range(1, k + 2):
        coef = math.comb(n, k - i + 1) * (kf // math.factorial(i - 1))
        if coef:
            terms.append((n - k + i - 1, i - 1, coef))
    return terms


def rk_poly(n, k, delta):
    """R_k as a polynomial in s for a fixed delay value."""
    if delta < 0:
        raise ValueError("delay must be nonnegative")
    coeffs = [0.0] * (n + 1)
    for s_pow, d_pow, coef in rk_terms(n, k):
        coeffs[s_pow] += coef * delta ** d_pow
    return RealPolynomial(tuple(coeffs))


def sigma_star(n):
    """Rightmost root of q, the only multiplicity-(n+1) assignment that is
    also dominant."""
    return rightmost_root(q_poly(n))


def gain_star(n):
    """Closed-form gains placing an (n+1)-fold dominant root at sigma_star.

    The double sum has alternating terms as large as 4**n that cancel down
    to O(1); summing them in floating point destroys the gains beyond
    n around 25. The coefficients of each power of the root are therefore
    collected exactly in big-integer arithmetic. With the root written as
    num/den, each gain is one integer over one integer, and Python rounds
    that quotient correctly, so the only rounding left is the root itself,
    that division and the product with exp(root).
    """
    if not 1 <= n <= MAX_GAIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_GAIN_DIMENSION)
    sig = sigma_star(n)
    num, den = sig.as_integer_ratio()
    esig = math.exp(sig)
    nf = math.factorial(n - 1)
    # the coefficient of sig**(i-1) has denominator (i-1)!, here scaled to nf
    weights = [nf // math.factorial(i - 1) for i in range(1, n + 1)]
    binom_n = [math.comb(n, m) for m in range(n + 1)]
    num_pow = [num ** m for m in range(2 * n)]
    den_pow = [den ** m for m in range(2 * n)]
    gains = []
    for k in range(1, n + 1):
        binom_k = [math.comb(j - 1, n - k) if j else 0 for j in range(n + 1)]
        total = 0
        for i in range(1, n + 1):
            # coefficient of sig**(i-1), times (i-1)!: signed binomials
            acc = 0
            for j in range(max(n - k + 1, i), n + 1):
                term = binom_n[j - i] * binom_k[j]
                acc += -term if (n + j + k) % 2 else term
            # sig**(i-1+k) over the common denominator nf * den**(n-1+k)
            total += acc * weights[i - 1] * num_pow[i - 1 + k] * den_pow[n - i]
        gains.append(total / (nf * den_pow[n - 1 + k]) * esig)
    return GainVector(l=tuple(gains), n=n, sigma_star=sig)


def _rk_value(n, k, s, delta):
    total = 0.0 + 0.0j
    scale = 0.0
    for s_pow, d_pow, coef in rk_terms(n, k):
        term = coef * s ** s_pow * delta ** d_pow
        total += term
        scale = max(scale, abs(term))
    return total, scale


def gain_from_derivative_system(n):
    """Solve the derivative conditions directly for the gains.

    The unit-delay conditions are linear in the reversed gain vector with an
    upper-triangular coefficient matrix whose diagonal entry in row i is
    (i-1)!, so back-substitution is exact up to rounding. This is the
    authoritative cross-check for gain_star.
    """
    if not 1 <= n <= MAX_GAIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_GAIN_DIMENSION)
    sig = sigma_star(n)
    esig = math.exp(sig)
    m = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m[i - 1, j - 1] = math.factorial(j - 1) / math.factorial(j - i) * sig ** (j - i)
    rhs = np.zeros(n)
    for i in range(1, n + 1):
        value, _ = _rk_value(n, i - 1, sig, 1.0)
        rhs[i - 1] = -value.real * esig
    y = np.zeros(n)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] - m[i, i + 1 :] @ y[i + 1 :]) / m[i, i]
    gains = tuple(reversed(y.tolist()))
    return GainVector(l=gains, n=n, sigma_star=sig)


def scale_gain(gain, delta):
    """Rescale gains for a physical delay: component k becomes l_k/delta**k.

    Run at delay delta, the rescaled loop has its (n+1)-fold dominant root
    at sigma_star/delta.
    """
    if delta <= 0:
        raise ValueError("delay scale must be positive")
    scaled = tuple(v / delta ** (k + 1) for k, v in enumerate(gain.l))
    return GainVector(l=scaled, n=gain.n, sigma_star=gain.sigma_star)


def multiplicity_at(gain, delta, s0, rel_tol=1e-8):
    """Largest m <= n+1 with the first m derivative conditions satisfied at s0.

    Conditions are evaluated in the exp(+delta*s)-multiplied form, which for
    roots in the left half-plane keeps every term at coefficient scale.
    Tolerances are relative to the largest term magnitude per condition.
    """
    if delta < 0:
        raise ValueError("delay must be nonnegative")
    n = gain.n
    s0 = complex(s0)
    eds = cmath.exp(delta * s0)
    count = 0
    for k in range(n + 1):
        rk_val, rk_scale = _rk_value(n, k, s0, delta)
        value = rk_val * eds
        scale = rk_scale * abs(eds)
        if k < n:
            inj_val, inj_scale = _injection_derivative(gain, s0, k)
            value += inj_val
            scale = max(scale, inj_scale)
        if abs(value) <= rel_tol * max(scale, 1e-300):
            count += 1
        else:
            break
    return min(count, n + 1)


def delay_free_poly(gain):
    """The zero-delay limit polynomial s**n + l1*s**(n-1) + ... + ln."""
    coeffs = list(reversed(gain.l)) + [1.0]
    return RealPolynomial(tuple(coeffs))

"""Gain synthesis that assigns a dominant characteristic root of maximal
multiplicity to the delayed output-injection loop.

The delay-normalized characteristic function is
``s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)``. Forcing a root of
multiplicity n+1 pins every gain: the root must be a zero of a fixed
polynomial q (degree n, all roots real, negative, distinct), and the gains
follow from the derivative conditions in closed form (gain_star).
Quasipolynomial holds D's data, and _kth_derivs is the one sum of the terms
of D^(k); multiplicity_at checks the conditions D^(k)(s0) = 0 at any point
s0 with it, each against the largest term magnitude of D^(k). design_chain
sizes the sub-predictor cascade from a gain margin. Everything here is
exact or scalar float arithmetic and never imports numpy; only an array
passed to _argument (by _kth_derivs or spectrum) loads it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from numbers import Number

from .polynomials import rightmost_root

__all__ = [
    "GainVector",
    "Quasipolynomial",
    "ChainDesign",
    "q_coefficients",
    "sigma_star",
    "gain_star",
    "scale_gain",
    "multiplicity_at",
    "delay_free_poly",
    "check_lipschitz",
    "design_chain",
]

MAX_Q_DIMENSION = 60
# the delay-axis sweep needs gains up to the largest dimension whose
# crossing-frequency pattern is characterized (five frequencies at n = 46)
MAX_GAIN_DIMENSION = 46
MULTIPLICITY_REL_TOL = 1e-8


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
        if self.n < 1:
            raise ValueError("dimension n must be at least 1, got %r" % (self.n,))
        if len(self.l) != self.n:
            raise ValueError("gain vector length must equal the dimension")
        if self.l[-1] == 0.0:
            raise ValueError("trailing gain must be nonzero (s=0 must not be a root)")
        if not all(math.isfinite(v) for v in self.l):
            raise ValueError("gains must be finite")


@dataclass(frozen=True)
class Quasipolynomial:
    """Characteristic function data: dimension, gains l1..ln, delay >= 0.
    The gains are checked as a GainVector's."""

    n: int
    l: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "l", GainVector(self.l, self.n).l)
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delay must be finite and nonnegative")


@dataclass(frozen=True)
class ChainDesign:
    """Cascade sizing: threshold gain, stage count, per-stage gain."""

    gamma_phi: float
    h: float
    lambda_star: float
    N: int
    lam: float
    sigma_star_per_t: float


def _injection_value(gain, s):
    """L(s) = l1*s**(n-1)+...+ln by Horner; gain is anything with gains l."""
    acc = gain.l[0]
    for coef in gain.l[1:]:
        acc = acc * s + coef
    return acc


def _argument(s):
    """(s, exp, maximum): a Python complex with cmath.exp and max, or for an
    array a complex numpy array with np.exp and np.maximum. numpy is
    imported only for an argument that is not a number."""
    if not isinstance(s, Number):
        import numpy as np

        if np.ndim(s):
            return np.asarray(s, dtype=complex), np.exp, np.maximum
    return complex(s), cmath.exp, max


def _kth_derivs(qp, s, first=0, scaled=True):
    """D^(k)(s) for k = first, first + 1, ..., each with its largest term magnitude.

    D^(k)(s) = perm(n,k) s**(n-k) + exp(-delta*s) sum_j C(k,j) (-delta)**(k-j) L^(j)(s)
    for the injection polynomial L(s) = l1*s**(n-1)+...+ln, each L^(j) summed
    term by term once and reused for every later k. The scale is the larger
    of |perm(n,k) s**(n-k)| and the largest |C(k,j) delta**(k-j)| times the
    largest term of L^(j), times |exp(-delta*s)|; it is None when scaled is
    false. At k = 0 the value is the Horner sum s**n + L(s) exp(-delta*s),
    spectrum.qp_eval's. s is a scalar or a numpy array. A scalar s whose
    exp(-delta*s) overflows raises ValueError.
    """
    s, exp, maximum = _argument(s)
    n = qp.n
    powers = [s ** m for m in range(n)]
    try:
        decay = exp(-qp.delta * s)
    except OverflowError:
        raise ValueError(
            "e^(-delta*s0) overflows at delta*Re s0 = %.6g, below -709.78" % (qp.delta * s.real)
        ) from None
    sums = []  # (L^(j)(s), its largest term) for j = 0..k
    for k in itertools.count():
        value, scale = 0.0 + 0.0j, 0.0
        for power, coef in zip(range(n - 1, k - 1, -1), qp.l):
            term = coef * math.perm(power, k) * powers[power - k]
            value += term
            if scaled:
                scale = maximum(scale, abs(term))
        sums.append((value, scale))
        if k < first:
            continue
        head = math.perm(n, k) * s ** (n - k) if k <= n else 0.0
        tail = 0.0 + 0.0j
        tail_scale = 0.0
        for j, (lj, lj_scale) in enumerate(sums):
            weight = math.comb(k, j) * (-qp.delta) ** (k - j)
            tail += weight * lj
            if scaled:
                tail_scale = maximum(tail_scale, abs(weight) * lj_scale)
        value = s ** n + _injection_value(qp, s) * decay if k == 0 else head + tail * decay
        yield value, maximum(abs(head), tail_scale * abs(decay)) if scaled else None


def q_coefficients(n):
    """Exact integer coefficients of q, ascending: coeff(j) = C(n,j)*n!/j!."""
    if not 1 <= n <= MAX_Q_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_Q_DIMENSION)
    nf = math.factorial(n)
    return [math.comb(n, j) * nf // math.factorial(j) for j in range(n + 1)]


def sigma_star(n):
    """Rightmost root of q, the only multiplicity-(n+1) assignment that is
    also dominant."""
    return rightmost_root(q_coefficients(n))


def gain_star(n):
    """Closed-form gains placing an (n+1)-fold dominant root at sigma_star.

    At unit delay the root condition reads L(s) = -exp(s) s**n for the
    injection polynomial L(s) = l1 s**(n-1) + ... + ln, and the n + 1 fold
    root pins L to minus the degree-(n-1) Taylor polynomial of
    f(s) = exp(s) s**n at sigma (the n-th condition is q(sigma) = 0):

        L(s) = -exp(sigma) * sum_m f^(m)(sigma) exp(-sigma) / m! * (s - sigma)**m.

    With sigma written as N/D, f^(m)(sigma) exp(-sigma) is G_m / D**n for
    the integer G_m = sum_p C(m,p) n!/(n-p)! N**(n-p) D**p, so

        L(s) = -exp(sigma) / ((n-1)! D**(2n-1))
               * sum_m G_m (n-1)!/m! D**(n-1-m) (D s - N)**m,

    and the sum is expanded by an integer Horner scheme in D s - N: O(n**2)
    big-integer operations in all. Each gain is then one integer over one
    integer, which Python rounds correctly, so the only rounding left is
    the root itself, that division and the product with exp(sigma).
    """
    if not 1 <= n <= MAX_GAIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_GAIN_DIMENSION)
    sig = sigma_star(n)
    num, den = sig.as_integer_ratio()
    # the p-th derivative of s**n at num/den, times den**n
    deriv = [math.perm(n, p) * num ** (n - p) * den ** p for p in range(n)]
    nf = math.factorial(n - 1)
    poly = []
    for m in range(n - 1, -1, -1):
        # poly <- poly * (den s - num) + G_m (n-1)!/m! den**(n-1-m)
        poly = [den * c - num * d for c, d in zip([0] + poly, poly + [0])]
        g = sum(math.comb(m, p) * deriv[p] for p in range(m + 1))
        poly[0] += g * (nf // math.factorial(m)) * den ** (n - 1 - m)
    esig = math.exp(sig)
    scale = nf * den ** (2 * n - 1)
    gains = tuple(-poly[n - k] / scale * esig for k in range(1, n + 1))
    return GainVector(l=gains, n=n, sigma_star=sig)


def scale_gain(gain, delta):
    """Rescale gains for a physical delay: component k becomes l_k/delta**k.

    Run at delay delta, the rescaled loop has its (n+1)-fold dominant root
    at sigma_star/delta. ValueError: delta is not positive, or a power of
    it, or a rescaled gain, leaves the float range (a nonzero gain turned 0).
    """
    if delta <= 0:
        raise ValueError("delay scale must be positive")
    try:
        scaled = tuple(v / delta ** (k + 1) for k, v in enumerate(gain.l))
    except (OverflowError, ZeroDivisionError):
        scaled = (math.inf,)
    if not all(math.isfinite(s) and (s != 0) == (v != 0) for s, v in zip(scaled, gain.l)):
        raise ValueError("delay scale %g takes the rescaled gains past the float range" % delta)
    return GainVector(l=scaled, n=gain.n, sigma_star=gain.sigma_star)


def multiplicity_at(gain, delta, s0):
    """Largest m <= n+1 with D^(k)(s0) = 0 for k = 0..m-1.

    D is the characteristic function of gain at delay delta. A condition
    holds when |D^(k)(s0)| is at most MULTIPLICITY_REL_TOL times the largest
    term magnitude in it; a NaN value holds none. ValueError: delta is not
    finite and nonnegative, or e^(-delta*s0) overflows (delta*Re s0 below
    -709.78).
    """
    qp = Quasipolynomial(gain.n, gain.l, delta)
    count = 0
    for value, scale in itertools.islice(_kth_derivs(qp, s0), gain.n + 1):
        if not abs(value) <= MULTIPLICITY_REL_TOL * max(scale, 1e-300):
            break
        count += 1
    return count


def delay_free_poly(gain):
    """Ascending coefficients of the zero-delay limit s**n + l1*s**(n-1) + ... + ln."""
    return tuple(reversed(gain.l)) + (1.0,)


def check_lipschitz(gamma_phi):
    """ValueError unless the Lipschitz constant gamma_phi is finite and nonnegative."""
    if not 0 <= gamma_phi < math.inf:
        raise ValueError("Lipschitz constant must be finite and nonnegative")


def design_chain(n, gamma_phi, h, gamma_m):
    """Size the sub-predictor cascade from the margin and the nonlinearity.

    Threshold gain max(gamma_phi/gamma_m, 1); stage count the integer
    ceiling of threshold times delay (at least one stage); per-stage scalar
    gain N/h, which puts every stage exactly at the unit normalized delay
    the gains were designed for. Past 2**53 stages consecutive floats are
    more than one stage apart, so a larger threshold times delay raises
    ValueError.
    """
    if not 0 < gamma_m < math.inf:
        raise ValueError("gain margin must be finite and positive")
    check_lipschitz(gamma_phi)
    if not 0 < h < math.inf:
        raise ValueError("delay must be finite and positive")
    lambda_star = max(gamma_phi / gamma_m, 1.0)
    if not math.isfinite(lambda_star * h):
        raise ValueError(
            "threshold gain %.3g times delay %.3g is past the float range" % (lambda_star, h)
        )
    if lambda_star * h > 2 ** 53:
        raise ValueError(
            "threshold gain %.3g times delay %.3g is %.6g stages, past 2**53"
            % (lambda_star, h, lambda_star * h)
        )
    stages = max(1, math.ceil(lambda_star * h))
    lam = stages / h
    return ChainDesign(
        gamma_phi=float(gamma_phi),
        h=float(h),
        lambda_star=lambda_star,
        N=stages,
        lam=lam,
        sigma_star_per_t=gain_star(n).sigma_star * lam,
    )

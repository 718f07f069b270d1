"""Gain synthesis that assigns a dominant characteristic root of maximal
multiplicity to the delayed output-injection loop.

The delay-normalized characteristic function is
``s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)``. Forcing a root of
multiplicity n+1 pins every gain: the root must be a zero of a fixed
polynomial q (degree n, all roots real, negative, distinct), and the gains
follow from the derivative conditions in closed form (gain_star).
multiplicity_at checks the conditions D^(k)(s0) = 0 at any point s0, each
against the largest term magnitude of D^(k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .polynomials import rightmost_root
from .spectrum import Quasipolynomial, _kth_derivs

__all__ = [
    "GainVector",
    "q_coefficients",
    "sigma_star",
    "gain_star",
    "scale_gain",
    "multiplicity_at",
    "delay_free_poly",
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

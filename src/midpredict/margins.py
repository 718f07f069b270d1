"""Delay-axis stability decomposition for the delayed-injection loop.

Imaginary-axis roots of ``s**n + L(s)*exp(-delta*s)`` can only occur at
frequencies where ``|L(j*w)| = w**n``; squaring turns that into a degree-n
integer polynomial in w**2 whose positive roots are isolated exactly, by a
bisection certified with Descartes' rule of signs. Each frequency generates
an arithmetic progression of delays where a conjugate root pair crosses the
axis, and the crossing direction (independent of which delay in the
progression) tells whether the unstable root count steps up or down by two.
Walking the sorted crossing delays from the delay-free count partitions the
axis into intervals of constant unstable-root count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import (
    RealPolynomial,
    _primitive,
    _to_int_poly,
    sign_at,
    sign_variations,
    squarefree_part,
    taylor_shift,
    unstable_root_count,
)
from .spectrum import Quasipolynomial, qp_eval, qp_kth_deriv
from .synthesis import GainVector, delay_free_poly, gain_star

__all__ = [
    "Crossing",
    "CrossingSet",
    "StabilityPartition",
    "DegenerateCrossingError",
    "crossing_frequencies",
    "crossing_points",
    "crossing_direction",
    "stability_partition",
    "partition_for_gain",
    "hurwitz_check",
]


# crossing delays crossing_points may walk before it refuses a delta_max
MAX_CROSSING_POINTS = 10_000


class DegenerateCrossingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Crossing:
    frequency: float
    argument: float  # Arg G(j*w) in [0, 2*pi)
    direction: int  # +1 moves roots rightward as the delay grows


@dataclass(frozen=True)
class CrossingSet:
    """Crossing frequencies sorted descending, with arguments and directions."""

    crossings: tuple

    @property
    def frequencies(self):
        return tuple(c.frequency for c in self.crossings)

    def __len__(self):
        return len(self.crossings)


@dataclass(frozen=True)
class StabilityPartition:
    """Intervals of constant unstable-root count along the delay axis.

    crossing_points starts with 0; interval k spans
    (crossing_points[k], crossing_points[k+1]) and the final interval runs
    to delta_max. unstable_counts has one entry per interval; crossings is
    the CrossingSet the partition was built from.
    """

    n: int
    gain: GainVector
    crossing_points: tuple
    unstable_counts: tuple
    delta_max: float
    crossings: CrossingSet

    @property
    def intervals(self):
        uppers = self.crossing_points[1:] + (self.delta_max,)
        return tuple(zip(self.crossing_points, uppers))

    @property
    def stable_intervals(self):
        return tuple(
            iv for iv, c in zip(self.intervals, self.unstable_counts) if c == 0
        )

    def count_at(self, delta):
        for (lo, hi), c in zip(self.intervals, self.unstable_counts):
            if lo < delta < hi:
                return c
        raise ValueError("delta is a crossing point or outside the partition")


def _square(p):
    out = [0] * (2 * len(p) - 1)
    for i, pi in enumerate(p):
        for j, pj in enumerate(p):
            out[i + j] += pi * pj
    return out


def _magnitude_squared_poly(gain):
    """|L(j*w)|**2 as an exact polynomial in x = w**2.

    Exactness matters: the crossing-frequency counts are certified over the
    rationals of these float products. Every gain is an integer over one
    power-of-two denominator 2**e, so L(j*w) = A(x) + j*w*B(x) with integer
    A and B over 2**e, and |L|**2 = A**2 + x*B**2 over 4**e.
    """
    ratios = [v.as_integer_ratio() for v in reversed(gain.l)]  # s**m at index m
    e = max(den.bit_length() for _, den in ratios) - 1
    c = [num << (e + 1 - den.bit_length()) for num, den in ratios]
    a = [v if k % 2 == 0 else -v for k, v in enumerate(c[0::2])]
    b = [v if k % 2 == 0 else -v for k, v in enumerate(c[1::2])]
    total = _square(a)
    if b:
        total += [0] * (len(b) * 2 - len(total))
        for i, v in enumerate(_square(b)):
            total[i + 1] += v
    den = 1 << (2 * e)
    return [Fraction(v, den) for v in total]


def crossing_polynomial(gain):
    """x**n - |L(j*sqrt(x))|**2 with exact rational coefficients."""
    n = gain.n
    coeffs = [-v for v in _magnitude_squared_poly(gain)]
    coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
    coeffs[n] += 1
    return coeffs


def _isolate_positive_roots(coeffs):
    """Disjoint rational intervals (lo, hi], one distinct positive root each.

    The bisection of (0, bound] is decided by Descartes' rule of signs on
    the squarefree part (Collins & Akritas, 1976): a node whose open
    interval shows 0 sign variations holds no root there, one with 1 holds
    exactly one, which exact signs at the midpoints then narrow. Each root
    gets the node a Sturm bisection of the same dyadic tree stops at: the
    largest one on the root's path that holds no other root and is
    narrower than max(1, hi)/1000. Intervals come ascending.
    """
    p = _primitive(_to_int_poly(coeffs))
    if len(p) == 1 or sign_variations(p) == 0:
        return []
    bound = max(Fraction(2 * max(abs(c) for c in p), abs(p[-1])), Fraction(1))
    bn, bd = bound.numerator, bound.denominator
    p = squarefree_part(p)
    d = len(p) - 1
    # node (k, a) is the interval bound*(a/2**k, (a+1)/2**k]; its polynomial
    # is a positive multiple of p(bound*(a + t)/2**k), t in (0, 1]
    top = [c * bn ** i * bd ** (d - i) for i, c in enumerate(p)]
    if sign_variations(taylor_shift(top)) != 0:
        raise RuntimeError("positive root bound failed")

    def narrow(k, a):
        return 1000 * bn < max(bd << k, bn * (a + 1))

    leaves = []
    stack = [(0, 0, top, None)]
    while stack:
        k, a, q, first = stack.pop()
        if q is None:
            # a narrow node whose subtree held one root is that root's leaf
            if len(leaves) == first + 1:
                leaves[first] = (k, a)
            continue
        value = sum(q)
        s_hi = (value > 0) - (value < 0)
        # sign changes of (1 + t)**d q(1/(1 + t)): Descartes on the open node
        inside = sign_variations(taylor_shift(q[::-1]))
        if inside <= 1 and inside + (s_hi == 0) == 1:
            # one root: on the open node, or at hi when s_hi == 0
            while not narrow(k, a):
                if s_hi == 0:
                    a = 2 * a + 1
                else:
                    s_mid = sign_at(top, 2 * a + 1, 2 << k)
                    if s_mid == -s_hi:
                        a = 2 * a + 1
                    else:
                        a, s_hi = 2 * a, s_mid
                k += 1
            leaves.append((k, a))
        elif inside:
            if narrow(k, a):
                stack.append((k, a, None, len(leaves)))
            left = [c << (d - i) for i, c in enumerate(q)]
            stack.append((k + 1, 2 * a + 1, taylor_shift(left), None))
            stack.append((k + 1, 2 * a, left, None))
    return [(bound * a / (1 << k), bound * (a + 1) / (1 << k)) for k, a in leaves]


def _polish_root(poly, lo, hi):
    x = 0.5 * (lo + hi)
    dp = poly.derivative()
    for _ in range(100):
        fx = poly(x)
        dfx = dp(x)
        if dfx == 0:
            break
        step = fx / dfx
        x_new = x - step
        if not lo - (hi - lo) <= x_new <= hi + (hi - lo):
            x_new = 0.5 * (lo + hi)
            lo_s, hi_s = lo, hi
            for _ in range(80):
                mid = 0.5 * (lo_s + hi_s)
                if poly(lo_s) * poly(mid) <= 0:
                    hi_s = mid
                else:
                    lo_s = mid
            return 0.5 * (lo_s + hi_s)
        x = x_new
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def _arg_g(gain, w):
    """Argument of G(j*w) = -L(j*w)/(j*w)**n in [0, 2*pi)."""
    s = 1j * w
    num = 0.0 + 0.0j
    for coef in gain.l:
        num = num * s + coef
    g = -num / s ** gain.n
    angle = math.atan2(g.imag, g.real)
    return angle % (2 * math.pi)


def crossing_direction(gain, w_c, delta_k):
    """Sign of the real-part velocity of the root at j*w_c as delay grows.

    Implicit differentiation of D(s, delta) = 0 gives
    ds/ddelta = -(dD/ddelta)/(dD/ds); +1 is destabilizing.
    """
    qp = Quasipolynomial(gain.n, gain.l, delta_k)
    s = 1j * w_c
    num = 0.0 + 0.0j
    mag = 0.0
    for coef in gain.l:
        num = num * s + coef
        mag = mag * abs(s) + abs(coef)
    d_delta = -s * num * cmath.exp(-delta_k * s)
    d_s = qp_kth_deriv(qp, s, 1)
    ds_scale = gain.n * abs(s) ** (gain.n - 1) + (1.0 + delta_k) * max(mag, 1e-300)
    if abs(d_s) < 1e-12 * ds_scale:
        raise DegenerateCrossingError(
            "dD/ds vanishes at the crossing; perturb the delay and retry"
        )
    velocity = -d_delta / d_s
    return 1 if velocity.real > 0 else -1


def crossing_frequencies(gain):
    """All positive frequencies where an axis crossing is possible.

    The count is exact (Descartes certificates on the squared-magnitude
    polynomial); locations are polished in floating point afterwards.
    """
    coeffs = crossing_polynomial(gain)
    poly = RealPolynomial(tuple(float(c) for c in coeffs))
    freqs = []
    for lo, hi in _isolate_positive_roots(coeffs):
        x = _polish_root(poly, float(lo), float(hi))
        freqs.append(math.sqrt(x))
    freqs.sort(reverse=True)
    crossings = []
    for w in freqs:
        arg = _arg_g(gain, w)
        delta_first = arg / w if arg > 0 else (2 * math.pi) / w
        direction = crossing_direction(gain, w, delta_first)
        crossings.append(Crossing(frequency=w, argument=arg, direction=direction))
    return CrossingSet(crossings=tuple(crossings))


def crossing_points(crossing_set, delta_max):
    """All delays up to delta_max where some root pair sits on the axis.

    Returns (delta, frequency) pairs merged across frequencies, ascending.
    Raises ValueError for a delta_max that is not finite and positive, or
    one that reaches more than MAX_CROSSING_POINTS crossing delays.
    """
    if not (math.isfinite(delta_max) and delta_max > 0):
        raise ValueError("delta_max must be finite and positive")
    starts = [c.argument if c.argument > 0 else 2 * math.pi for c in crossing_set.crossings]
    total = sum(
        max(0, math.floor((delta_max * c.frequency - start) / (2 * math.pi)) + 1)
        for c, start in zip(crossing_set.crossings, starts)
    )
    if total > MAX_CROSSING_POINTS:
        raise ValueError(
            "delta_max %g reaches about %d crossing delays (budget %d)"
            % (delta_max, total, MAX_CROSSING_POINTS)
        )
    out = []
    for c, start in zip(crossing_set.crossings, starts):
        k = 0
        while True:
            delta = (start + 2 * math.pi * k) / c.frequency
            if delta > delta_max:
                break
            out.append((delta, c.frequency))
            k += 1
    out.sort()
    return out


def partition_for_gain(gain, delta_max=None):
    """Stability partition of the delay axis for an arbitrary gain vector."""
    cs = crossing_frequencies(gain)
    if delta_max is None:
        if len(cs) == 0:
            delta_max = 10.0
        else:
            delta_max = 3.0 * (2 * math.pi) / min(cs.frequencies)
    points = crossing_points(cs, delta_max)
    direction_of = {c.frequency: c.direction for c in cs.crossings}
    # merge numerically coincident crossing delays; their jumps add
    merged = []
    for delta, freq in points:
        if merged and abs(delta - merged[-1][0]) < 1e-9 * max(1.0, delta):
            merged[-1][1].append(freq)
        else:
            merged.append((delta, [freq]))
    count = unstable_root_count(delay_free_poly(gain))
    counts = [count]
    boundaries = [0.0]
    for delta, freqs in merged:
        jump = sum(2 * direction_of[f] for f in freqs)
        count += jump
        if count < 0:
            raise RuntimeError("negative unstable-root count; crossing bookkeeping broken")
        boundaries.append(delta)
        counts.append(count)
    return StabilityPartition(
        n=gain.n,
        gain=gain,
        crossing_points=tuple(boundaries),
        unstable_counts=tuple(counts),
        delta_max=float(delta_max),
        crossings=cs,
    )


def stability_partition(n, delta_max=None):
    """Partition for the multiplicity-designed gain at dimension n."""
    if not 1 <= n <= 46:
        raise ValueError("dimension must be in 1..46")
    return partition_for_gain(gain_star(n), delta_max)


def hurwitz_check(p):
    """True iff every root of p lies strictly in the open left half-plane.

    Exact Routh count over the rationals. A Hurwitz polynomial never meets a
    zero pivot, so one means p is not Hurwitz.
    """
    if p.coeffs[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    try:
        return unstable_root_count(p) == 0
    except ValueError:
        return False

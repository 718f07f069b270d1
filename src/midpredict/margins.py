"""Delay-axis stability decomposition for the delayed-injection loop.

Imaginary-axis roots of ``s**n + L(s)*exp(-delta*s)`` can only occur at
frequencies where ``|L(j*w)| = w**n``; squaring gives the degree-n integer
crossing polynomial F(x) = x**n - |L(j*sqrt(x))|**2, whose positive roots
are isolated exactly by a bisection certified with Descartes' rule of signs.
Each frequency generates an arithmetic progression of delays where a
conjugate root pair crosses the axis, rightward as the delay grows exactly
when F increases through w**2 (Cooke & van den Driessche, "On zeroes of some
transcendental equations", Funkcialaj Ekvacioj 29, 1986). So the count steps
by +-2 by an exact sign of F; a repeated root of F touches the axis with no
direction. Walking the sorted crossing delays from the delay-free count
partitions the axis into intervals of constant unstable-root count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomials import bisect_root, isolate_positive_roots, sign_at, unstable_root_count
from .spectrum import _injection_value
from .synthesis import GainVector, delay_free_poly, gain_star

__all__ = [
    "Crossing",
    "CrossingSet",
    "StabilityPartition",
    "DegenerateCrossingError",
    "crossing_frequencies",
    "crossing_points",
    "stability_partition",
    "partition_for_gain",
    "hurwitz_check",
]


# crossing delays crossing_points may walk before it refuses a delta_max
MAX_CROSSING_POINTS = 10_000


class DegenerateCrossingError(RuntimeError):
    """A crossing at a repeated root of the crossing polynomial: a tangential
    touch of the imaginary axis, which has no direction."""


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


def _crossing_numerators(gain):
    """The crossing polynomial as primitive integers f over one denominator.

    Exactness matters: the crossing-frequency counts and directions are
    certified over the rationals of these float products. Every gain is an
    integer over one power-of-two denominator 2**e, so L(j*w) = A(x) +
    j*w*B(x) with integer A and B over 2**e, and |L|**2 = A**2 + x*B**2
    over 4**e. Returns (f, den) with x**n - |L|**2 = f/den.
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
    f = [-v for v in total] + [0] * (gain.n + 1 - len(total))
    f[gain.n] += den
    content = math.gcd(*f)
    return [v // content for v in f], den // content


def _polish_root(f, den, lo, hi):
    """Newton on F = f/den, with coefficients rounded to floats, from the
    middle of (lo, hi).

    Newton evaluates F and F' by float Horner and reads the float ends a, b;
    a step that lands outside (a, b) widened by its width on both sides
    hands over to bisect_root, which halves the exact (lo, hi] on the exact
    signs of F's integers f.
    """

    def horner(coeffs, x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    poly = [v / den for v in f]
    dp = [k * c for k, c in enumerate(poly) if k > 0]
    a, b = float(lo), float(hi)
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = horner(poly, x)
        dfx = horner(dp, x)
        if dfx == 0:
            break
        step = fx / dfx
        x_new = x - step
        if not a - (b - a) <= x_new <= b + (b - a):
            return bisect_root(f, lo, hi)
        x = x_new
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def _arg_g(gain, w):
    """Argument of G(j*w) = -L(j*w)/(j*w)**n in [0, 2*pi)."""
    s = 1j * w
    g = -_injection_value(gain, s) / s ** gain.n
    angle = math.atan2(g.imag, g.real)
    return angle % (2 * math.pi)


def crossing_frequencies(gain):
    """All positive frequencies where an axis crossing is possible.

    The count is exact (Descartes certificates on the crossing polynomial
    F); locations are polished in floating point afterwards. Each direction
    is the exact sign of F at the upper end hi of the root's isolating
    interval, or of F' when the root is hi: +1 where F increases through
    the root. A repeated root of F raises DegenerateCrossingError.
    """
    f, den = _crossing_numerators(gain)
    df = [k * v for k, v in enumerate(f) if k > 0]
    intervals, repeated = isolate_positive_roots(f)
    if repeated:
        raise DegenerateCrossingError(
            "the crossing polynomial has a repeated root at some w in (%.6g, %.6g]: "
            "roots touch the imaginary axis there without crossing it"
            % tuple(math.sqrt(x) for x in repeated[0])
        )
    found = []
    for lo, hi in intervals:
        at_hi = (hi.numerator, hi.denominator)
        direction = sign_at(f, *at_hi) or sign_at(df, *at_hi)
        found.append((math.sqrt(_polish_root(f, den, lo, hi)), direction))
    found.sort(reverse=True)
    crossings = tuple(
        Crossing(frequency=w, argument=_arg_g(gain, w), direction=direction)
        for w, direction in found
    )
    return CrossingSet(crossings=crossings)


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
    return partition_for_gain(gain_star(n), delta_max)


def hurwitz_check(p):
    """True iff every root of p lies strictly in the open left half-plane.

    p is a sequence of real coefficients, ascending by degree, read as given:
    the last one is the leading coefficient. Exact Routh count over the
    rationals. A Hurwitz polynomial never meets a zero pivot, so one means p
    is not Hurwitz. ValueError: a coefficient is not finite, or the last one
    is not positive (a zero there is not trimmed).
    """
    if not (all(map(math.isfinite, p)) and p[-1] > 0):
        raise ValueError("coefficients must be finite and the leading one positive")
    try:
        return unstable_root_count(p) == 0
    except ValueError:
        return False

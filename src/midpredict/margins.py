"""Delay-axis stability decomposition for the delayed-injection loop.

Imaginary-axis roots of ``s**n + L(s)*exp(-delta*s)`` can only occur at
frequencies where ``|L(j*w)| = w**n``; squaring gives the degree-n integer
crossing polynomial F(x) = x**n - |L(j*sqrt(x))|**2, whose positive roots
are isolated exactly by a bisection certified with Descartes' rule of signs.
Each frequency generates an arithmetic progression of delays where a
conjugate root pair crosses the axis, rightward as the delay grows exactly
when F increases through w**2 (Cooke & van den Driessche, "On zeroes of some
transcendental equations", Funkcialaj Ekvacioj 29, 1986). A repeated root of
F, where roots touch the axis with no direction, is refused by the isolation
with ValueError. Every root left is simple and F is monic, so F increases
through its largest root and the directions alternate downward: the count
steps by +-2 by a root's rank. Walking the sorted crossing delays from the
delay-free count partitions the axis into intervals of constant
unstable-root count; two delays too close for floats to order are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomials import isolate_positive_roots, refine_root, unstable_root_count
from .synthesis import _injection_value, delay_free_poly, gain_star

__all__ = [
    "Crossing",
    "StabilityPartition",
    "crossing_frequencies",
    "crossing_points",
    "stability_partition",
    "partition_for_gain",
]


# crossing delays crossing_points may walk before it refuses a delta_max
MAX_CROSSING_POINTS = 10_000


@dataclass(frozen=True)
class Crossing:
    frequency: float
    argument: float  # Arg G(j*w) in [0, 2*pi)
    direction: int  # +1 moves roots rightward as the delay grows


@dataclass(frozen=True)
class StabilityPartition:
    """Intervals of constant unstable-root count along the delay axis.

    crossing_points starts with 0; interval k spans
    (crossing_points[k], crossing_points[k+1]) and the final interval runs
    to delta_max. unstable_counts has one entry per interval; crossings is
    the tuple of Crossing the partition was built from.
    """

    n: int
    crossing_points: tuple
    unstable_counts: tuple
    delta_max: float
    crossings: tuple

    @property
    def intervals(self):
        uppers = self.crossing_points[1:] + (self.delta_max,)
        return tuple(zip(self.crossing_points, uppers))


def _square(p):
    out = [0] * (2 * len(p) - 1)
    for i, pi in enumerate(p):
        for j, pj in enumerate(p):
            out[i + j] += pi * pj
    return out


def _crossing_numerators(gain):
    """The crossing polynomial as primitive integers f.

    Exactness matters: the crossing-frequency counts and directions are
    certified over the rationals of these float products. Every gain is an
    integer over one power-of-two denominator 2**e, so L(j*w) = A(x) +
    j*w*B(x) with integer A and B over 2**e, and |L|**2 = A**2 + x*B**2
    over 4**e. Returns f with x**n - |L|**2 = f/f[-1]: F is monic, so its
    denominator is f's leading coefficient.
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
    f = [-v for v in total] + [0] * (gain.n + 1 - len(total))
    f[gain.n] += 1 << (2 * e)
    content = math.gcd(*f)
    return [v // content for v in f]


def _arg_g(gain, w):
    """Argument of G(j*w) = -L(j*w)/(j*w)**n in [0, 2*pi)."""
    s = 1j * w
    g = -_injection_value(gain, s) / s ** gain.n
    angle = math.atan2(g.imag, g.real)
    return angle % (2 * math.pi)


def crossing_frequencies(gain):
    """All positive frequencies where an axis crossing is possible: a tuple
    of Crossing, frequencies descending.

    The count is exact (Descartes certificates on the crossing polynomial
    F), and isolate_positive_roots proves every root simple or raises
    ValueError. So monic F changes sign at each root and is positive above
    the largest: the largest frequency has direction +1, and the directions
    alternate downward. refine_root walks F's exact signs over the root's
    interval, oriented by that direction, to the float x nearest the root,
    and the frequency is sqrt(x).
    """
    f = _crossing_numerators(gain)
    crossings = []
    direction = 1
    for lo, hi in reversed(isolate_positive_roots(f)):
        w = math.sqrt(refine_root(f, lo, hi, direction))
        crossings.append(Crossing(frequency=w, argument=_arg_g(gain, w), direction=direction))
        direction = -direction
    return tuple(crossings)


def crossing_points(crossings, delta_max):
    """All delays up to delta_max where some root pair sits on the axis.

    Returns (delta, Crossing) pairs across crossings, ascending in delta.
    Raises ValueError for a delta_max that is not finite and positive, or
    one that reaches more than MAX_CROSSING_POINTS crossing delays.
    """
    if not (math.isfinite(delta_max) and delta_max > 0):
        raise ValueError("delta_max must be finite and positive")
    starts = [c.argument if c.argument > 0 else 2 * math.pi for c in crossings]
    total = sum(
        max(0, math.floor((delta_max * c.frequency - start) / (2 * math.pi)) + 1)
        for c, start in zip(crossings, starts)
    )
    if total > MAX_CROSSING_POINTS:
        raise ValueError(
            "delta_max %g reaches about %.3g crossing delays (budget %d)"
            % (delta_max, total, MAX_CROSSING_POINTS)
        )
    out = []
    for c, start in zip(crossings, starts):
        k = 0
        while True:
            delta = (start + 2 * math.pi * k) / c.frequency
            if delta > delta_max:
                break
            out.append((delta, c))
            k += 1
    out.sort(key=lambda point: point[0])
    return out


def partition_for_gain(gain, delta_max=None):
    """Stability partition of the delay axis for an arbitrary gain vector.

    From the delay-free count at delay 0, each crossing delay adds twice
    its crossing's direction. A delay within 1e-9 * max(1, delta) of the
    one before it raises ValueError: floats cannot order the two, nor tell
    them from one delay where both crossings meet.
    """
    cs = crossing_frequencies(gain)
    if delta_max is None:
        delta_max = 3.0 * (2 * math.pi) / cs[-1].frequency if cs else 10.0
    count = unstable_root_count(delay_free_poly(gain))
    counts = [count]
    boundaries = [0.0]
    for delta, c in crossing_points(cs, delta_max):
        if len(boundaries) > 1 and delta - boundaries[-1] < 1e-9 * max(1.0, delta):
            raise ValueError(
                "crossing delays %.17g and %.17g are too close to order" % (boundaries[-1], delta)
            )
        count += 2 * c.direction
        if count < 0:
            raise RuntimeError("negative unstable-root count; crossing bookkeeping broken")
        boundaries.append(delta)
        counts.append(count)
    return StabilityPartition(
        n=gain.n,
        crossing_points=tuple(boundaries),
        unstable_counts=tuple(counts),
        delta_max=float(delta_max),
        crossings=cs,
    )


def stability_partition(n, delta_max=None):
    """Partition for the multiplicity-designed gain at dimension n."""
    return partition_for_gain(gain_star(n), delta_max)

"""Exact real-root work on dense real polynomials.

A polynomial is a plain sequence of coefficients, ascending by degree. Every
routine reads them as exact (ints, Fractions or floats, each the rational
it is), so a polynomial with integer coefficients beyond 2**53 is counted
as itself, never as its float rounding. Descartes' rule of signs bounds the
roots in (0, inf) by the sign variations of the coefficients, counted with
multiplicity, exactly when that bound is 0 or 1, and reaches any other
interval through a Taylor shift: isolate_positive_roots bisects on it
(Collins & Akritas, 1976), and bisect_root narrows one root on exact signs.
A node with one variation holds one simple root, so the bisection itself
proves each root it returns simple, and refuses with ValueError where the
rule alone cannot tell close roots from a repeated one. Signs at rationals
come from one homogeneous Horner sum on integers; unstable_root_count is an
exact Routh count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from math import gcd
from numbers import Integral

import numpy as np

__all__ = [
    "sign_at",
    "sign_variations",
    "taylor_shift",
    "isolate_positive_roots",
    "bisect_root",
    "rightmost_root",
    "unstable_root_count",
]


def _to_int_poly(coeffs):
    """Exact int, float or Fraction coefficients scaled by their least
    common denominator to an integer list."""
    ratios = [(int(c), 1) if isinstance(c, Integral) else c.as_integer_ratio() for c in coeffs]
    denom = math.lcm(*(d for _, d in ratios))
    ints = [c * (denom // d) for c, d in ratios]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return ints


def _primitive(p):
    content = 0
    for c in p:
        content = gcd(content, abs(c))
    if content > 1:
        p = [c // content for c in p]
    return p


def sign_at(p, num, den):
    """Sign (-1, 0 or 1) of the integer polynomial p at num/den, den > 0.

    The homogeneous Horner sum c_i num**i den**(d - i) is den**d times the
    value, so it has the value's sign and no Fraction is normalised.
    """
    acc = p[-1]
    scale = 1
    for c in reversed(p[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def sign_variations(values):
    """Sign changes along a sequence, zeros skipped.

    On the coefficients of p this is Descartes' bound on the positive roots
    of p counted with multiplicity: exact when it is 0 or 1, and of the same
    parity otherwise.
    """
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def taylor_shift(p, a=1):
    """Coefficients of p(x + a) for an integer polynomial p and integer a.

    Horner's scheme run d times on the descending coefficients; each pass is
    one running sum, so a shift by 1 is additions only.
    """
    desc = p[::-1]
    step = None if a == 1 else (lambda acc, c: acc * a + c)
    for m in range(len(desc), 1, -1):
        desc[:m] = accumulate(desc[:m], step)
    return desc[::-1]


def isolate_positive_roots(coeffs):
    """The positive roots of p, isolated: disjoint rational intervals (lo, hi],
    ascending, one root each.

    The bisection of (0, bound] is decided by Descartes' rule of signs on p
    (Collins & Akritas, 1976), which counts roots with multiplicity: a node
    whose open interval shows 0 sign variations holds no root there, and one
    with 1 holds exactly one root, counted once, hence simple; exact signs at
    the midpoints then narrow it. A root at a node's upper end hi is simple
    when p'(hi) != 0. A repeated root shows >= 2 variations on every node
    around it, so it can only be met as such an end with p'(hi) = 0, or as a
    node narrower than the leaf width that still shows >= 2 variations. Both
    raise ValueError naming the node: the rule alone cannot tell a repeated
    root there from close ones, real or a complex pair near the axis. Each
    root gets the node a Sturm bisection of the same dyadic tree stops at:
    the largest one on the root's path that holds no other root and is
    narrower than max(1, hi)/1000.
    """
    p = _primitive(_to_int_poly(coeffs))
    if len(p) == 1 or sign_variations(p) == 0:
        return []
    # bound >= 1 + max_{i<d} |c_i / c_d|, Cauchy's bound, so every root of p
    # is smaller in modulus. By Gauss-Lucas no derivative vanishes on
    # [bound, oo), so every Taylor coefficient at bound has the leading
    # coefficient's sign: no root lies outside (0, bound]
    bound = max(Fraction(2 * max(abs(c) for c in p), abs(p[-1])), Fraction(1))
    bn, bd = bound.numerator, bound.denominator

    def node(k, a):
        return bound * a / (1 << k), bound * (a + 1) / (1 << k)

    def narrow(k, a):
        return 1000 * bn < max(bd << k, bn * (a + 1))

    d = len(p) - 1
    dp = [k * c for k, c in enumerate(p) if k]
    # node (k, a) is the interval bound*(a/2**k, (a+1)/2**k]; its polynomial
    # is a positive multiple of p(bound*(a + t)/2**k), t in (0, 1]
    top = [c * bn ** i * bd ** (d - i) for i, c in enumerate(p)]
    leaves = []
    stack = [(0, 0, top)]
    while stack:
        k, a, q = stack.pop()
        value = sum(q)
        s_hi = (value > 0) - (value < 0)
        # sign changes of (1 + t)**d q(1/(1 + t)): Descartes on the open node
        inside = sign_variations(taylor_shift(q[::-1]))
        if inside <= 1 and inside + (s_hi == 0) == 1:
            # one root: simple on the open node, or at hi when s_hi == 0
            if s_hi == 0 and sign_at(dp, bn * (a + 1), bd << k) == 0:
                raise ValueError(
                    "repeated root at the upper end of (%.17g, %.17g]" % node(k, a)
                )
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
                raise ValueError(
                    "(%.17g, %.17g] is narrower than the leaf width and still shows two "
                    "or more sign variations: a repeated root or roots closer than "
                    "Descartes' rule can separate" % node(k, a)
                )
            left = [c << (d - i) for i, c in enumerate(q)]
            stack.append((k + 1, 2 * a + 1, taylor_shift(left)))
            stack.append((k + 1, 2 * a, left))
    return [node(k, a) for k, a in leaves]


def bisect_root(p, lo, hi):
    """The one root of p in (lo, hi], where p changes sign, within one ulp.

    p is an integer polynomial; lo and hi are exact, floats or Fractions.
    Each halving cuts at the float mid nearest the midpoint and keeps
    (mid, hi] where p's exact sign at mid is opposite to that at hi; lo,
    maybe the root of the interval below, is never evaluated. Stops at an
    exact root or at a mid no longer inside (lo, hi).
    """
    s_hi = sign_at(p, *hi.as_integer_ratio())
    while s_hi:
        mid = float(Fraction(lo) + Fraction(hi)) / 2
        if not lo < mid < hi:
            return mid
        s_mid = sign_at(p, *mid.as_integer_ratio())
        if s_mid == -s_hi:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return float(hi)


def rightmost_root(coeffs):
    """Largest real root of the polynomial with exact ascending coeffs.

    coeffs are ascending and exact: ints, Fractions or floats, each read as
    the rational it is. The seed c is the largest near-real eigenvalue of
    the companion matrix of their float rounding (np.roots), so its last
    bits come from the LAPACK build numpy uses. It is returned as it is when
    the exact polynomial changes sign across [c - pad, c + pad], pad about
    1e-9 |c|, and Descartes' rule sees no root above c + pad: near the
    root, not the correctly rounded root. A seed that is not finite or
    fails that test raises ValueError, as a largest root of even
    multiplicity always does: p keeps its sign across it.
    """
    ints = _to_int_poly(coeffs)
    if len(ints) < 2:
        raise ValueError("no real roots")
    roots = np.roots([float(c) for c in reversed(coeffs)])
    real_parts = [z.real for z in roots if abs(z.imag) <= 1e-8 * (1.0 + abs(z))]
    seed = float(max(real_parts, default=math.nan))
    if not math.isfinite(seed):
        raise ValueError("no finite near-real companion eigenvalue to seed the largest root")
    pad = max(1e-9, 1e-9 * abs(seed))
    lo, hi = Fraction(seed - pad), Fraction(seed + pad)
    # den**d p((y + num)/den) for hi = num/den: its roots y > 0 are
    # the roots of p above hi
    d, num, den = len(ints) - 1, hi.numerator, hi.denominator
    above = taylor_shift([c * den ** (d - i) for i, c in enumerate(ints)], num)
    change = sign_at(ints, lo.numerator, lo.denominator) * sign_at(ints, num, den)
    if change < 0 and sign_variations(above) == 0:
        return seed
    raise ValueError(
        "the companion seed %r is not certified as the largest real root: no sign "
        "change across it, or a root above it" % seed
    )


def unstable_root_count(coeffs):
    """Roots with positive real part, counted with multiplicity, exact.

    Sign changes down the first column of the Routh array. The rows are kept
    as primitive integer vectors: each is a positive multiple of the
    rational Routh row, which leaves every sign unchanged. A zero pivot
    (always met when a root lies on the imaginary axis) leaves no count and
    raises ValueError.
    """
    desc = list(reversed(_to_int_poly(coeffs)))
    if len(desc) == 1:
        return 0
    width = (len(desc) + 1) // 2
    odd = desc[1::2]
    rows = [desc[0::2], odd + [0] * (width - len(odd))]
    for _ in range(len(desc) - 2):
        a, b = rows[-2], rows[-1]
        if b[0] == 0:
            break
        sign = 1 if b[0] > 0 else -1
        new = [sign * (b[0] * a[j + 1] - a[0] * b[j + 1]) for j in range(width - 1)]
        rows.append(_primitive(new + [0]))
    first = [row[0] for row in rows]
    if 0 in first:
        raise ValueError("zero pivot in the Routh array; no exact unstable-root count")
    return sum(1 for a, b in zip(first, first[1:]) if (a < 0) != (b < 0))

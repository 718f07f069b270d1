"""Exact real-root work on dense real polynomials.

A polynomial is a plain sequence of coefficients, ascending by degree. Every
routine reads them as exact (ints, Fractions or floats, each the rational
it is), so a polynomial with integer coefficients beyond 2**53 is counted
as itself, never as its float rounding. Descartes' rule of signs bounds the
roots in (0, inf) by the sign variations of the coefficients, exactly when
that bound is 0 or 1, and reaches any other interval through a Taylor
shift: isolate_positive_roots bisects on it (Collins & Akritas, 1976), and
bisect_root narrows one root on exact signs. A Sturm chain yields
gcd(p, p'). Signs at rationals come from one homogeneous Horner sum on
integers; unstable_root_count is an exact Routh count.
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
    "squarefree_part",
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


def _pseudo_rem(a, b):
    """Integer pseudo-remainder of a by b with the sign of the true remainder."""
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    r = list(a)
    steps = da - db + 1
    for _ in range(steps):
        dr = len(r) - 1
        if dr < db or all(c == 0 for c in r):
            r = [c * lc for c in r]
            continue
        factor = r[-1]
        r = [c * lc for c in r]
        shift = dr - db
        for i, c in enumerate(b):
            r[i + shift] -= factor * c
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    if lc < 0 and steps % 2 == 1:
        r = [-c for c in r]
    return r


def _exact_quotient(a, b):
    """a / b for integer polynomials when b divides a, made primitive; the
    rescaling is by a positive factor, so the quotient keeps its sign."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[k + j] -= quot[k] * c
    return _primitive(_to_int_poly(quot))


def _sturm_chain(coeffs):
    p = _primitive(_to_int_poly(coeffs))
    if len(p) == 1:
        return [p]
    dp = _primitive([k * c for k, c in enumerate(p) if k > 0])
    chain = [p, dp]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        rem = [-c for c in rem]
        if all(c == 0 for c in rem):
            break
        chain.append(_primitive(rem))
    return chain


# the integers modulo a prime form a field, where Euclid's gcd runs on
# numbers of 127 bits; a squarefree p fails the certificate only when this
# prime divides the resultant of p and p'
SQUAREFREE_PRIME = 2 ** 127 - 1


def _rem_mod(a, b, prime):
    """Remainder of a by b over the integers modulo prime; b[-1] != 0."""
    a = list(a)
    inv = pow(b[-1], -1, prime)
    head = b[:-1]
    while len(a) >= len(b):
        factor = a.pop() * inv % prime
        shift = len(a) - len(head)
        for i, c in enumerate(head):
            a[shift + i] = (a[shift + i] - factor * c) % prime
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_part(p):
    """A primitive integer polynomial with the distinct roots of p, each once.

    p is a nonconstant primitive integer polynomial. When gcd(p, p') is
    constant modulo SQUAREFREE_PRIME and neither leading coefficient
    vanishes there, the resultant of p and p' is nonzero modulo the prime,
    so it is nonzero, and p itself is squarefree. Otherwise p is divided by
    the end of its Sturm chain, a multiple of gcd(p, p'), and the quotient
    gets a positive leading coefficient. Correctness never depends on the
    prime.
    """
    a = [c % SQUAREFREE_PRIME for c in p]
    b = [k * c % SQUAREFREE_PRIME for k, c in enumerate(p) if k > 0]
    if b and a[-1] and b[-1]:
        while b:
            if len(b) == 1:
                return p
            a, b = b, _rem_mod(a, b, SQUAREFREE_PRIME)
    part = _exact_quotient(p, _sturm_chain(p)[-1])
    return part if part[-1] > 0 else [-c for c in part]


def isolate_positive_roots(coeffs):
    """The positive roots of p, isolated: returns (intervals, repeated).

    intervals are disjoint rational intervals (lo, hi], one distinct
    positive root each. The bisection of (0, bound] is decided by
    Descartes' rule of signs on the squarefree part (Collins & Akritas,
    1976): a node whose open interval shows 0 sign variations holds no root
    there, one with 1 holds exactly one, which exact signs at the midpoints
    then narrow. Each root gets the node a Sturm bisection of the same
    dyadic tree stops at: the largest one on the root's path that holds no
    other root and is narrower than max(1, hi)/1000. repeated isolates, the
    same way, the positive roots of the cofactor p / squarefree part, a
    multiple of gcd(p, p'): exactly the repeated positive roots of p. It is
    [] when p is squarefree. Both lists come ascending.
    """
    p = _primitive(_to_int_poly(coeffs))
    if len(p) == 1 or sign_variations(p) == 0:
        return [], []
    # bound >= 1 + max_{i<d} |c_i / c_d|, Cauchy's bound, so every root of p,
    # and of its squarefree part, is smaller in modulus. By Gauss-Lucas no
    # derivative vanishes on [bound, oo), so every Taylor coefficient at bound
    # has the leading coefficient's sign: no root lies outside (0, bound]
    bound = max(Fraction(2 * max(abs(c) for c in p), abs(p[-1])), Fraction(1))
    bn, bd = bound.numerator, bound.denominator
    part = squarefree_part(p)
    repeated = isolate_positive_roots(_exact_quotient(p, part))[0] if len(part) < len(p) else []
    p = part
    d = len(p) - 1
    # node (k, a) is the interval bound*(a/2**k, (a+1)/2**k]; its polynomial
    # is a positive multiple of p(bound*(a + t)/2**k), t in (0, 1]
    top = [c * bn ** i * bd ** (d - i) for i, c in enumerate(p)]

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
    return [(bound * a / (1 << k), bound * (a + 1) / (1 << k)) for k, a in leaves], repeated


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
    bits come from the LAPACK build numpy uses. It
    is returned as it is when the exact polynomial changes sign across
    [c - pad, c + pad], pad about 1e-9 |c|, and Descartes' rule sees no root
    above c + pad. Otherwise the largest root of the squarefree part, found
    among its positive roots, at 0 or among those of part(-x) negated, is
    isolated and bisect_root narrows it to one ulp. Either way the result is
    near the root, not the correctly rounded root.
    """
    ints = _to_int_poly(coeffs)
    if len(ints) < 2:
        raise ValueError("no real roots")
    roots = np.roots([float(c) for c in reversed(coeffs)])
    real_parts = [z.real for z in roots if abs(z.imag) <= 1e-8 * (1.0 + abs(z))]
    seed = float(max(real_parts, default=math.nan))
    if math.isfinite(seed):
        pad = max(1e-9, 1e-9 * abs(seed))
        lo, hi = Fraction(seed - pad), Fraction(seed + pad)
        # den**d p((y + num)/den) for hi = num/den: its roots y > 0 are
        # the roots of p above hi
        d, num, den = len(ints) - 1, hi.numerator, hi.denominator
        above = taylor_shift([c * den ** (d - i) for i, c in enumerate(ints)], num)
        change = sign_at(ints, lo.numerator, lo.denominator) * sign_at(ints, num, den)
        if change < 0 and sign_variations(above) == 0:
            return seed
    part = squarefree_part(_primitive(ints))
    intervals = isolate_positive_roots(part)[0]
    if intervals:
        return bisect_root(part, *intervals[-1])
    if part[0] == 0:
        return 0.0
    mirror = [-c if i % 2 else c for i, c in enumerate(part)]
    intervals = isolate_positive_roots(mirror)[0]
    if not intervals:
        raise ValueError("no real roots")
    return -bisect_root(mirror, *intervals[0])


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

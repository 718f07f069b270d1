"""Exact real-root work on dense real polynomials.

A polynomial is a plain sequence of coefficients, ascending by degree. Every
routine reads them as exact (ints, Fractions or floats, each the rational
it is), so a polynomial with integer coefficients beyond 2**53 is counted
as itself, never as its float rounding. Descartes' rule of signs bounds the
roots in (0, inf) by the sign variations of the coefficients, counted with
multiplicity, exactly when that bound is 0 or 1, and reaches any other
interval through a Taylor shift: isolate_positive_roots bisects on it
(Collins & Akritas, 1976). A node with one variation holds one simple root,
so the bisection itself proves each root it returns simple, and refuses
with ValueError where the rule alone cannot tell close roots from a
repeated one. One refiner turns a root into a float, correctly rounded and
the same on every host: a float Newton seeds an exact Newton step and an
exact walk over adjacent floats. refine_root runs it on an isolated root;
rightmost_root runs it on the largest real root, and the rule certifies
that no root lies above. Signs at rationals come from one homogeneous
Horner sum on integers; unstable_root_count is an exact Routh count.
Nothing here uses numpy.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd
from numbers import Integral

__all__ = [
    "sign_at",
    "sign_variations",
    "taylor_shift",
    "isolate_positive_roots",
    "refine_root",
    "rightmost_root",
    "unstable_root_count",
]

ROOT_NEWTON_STEPS = 100  # q takes <= 8 for n <= 60, crossing polynomials <= 9 for n <= 46
_DOUBLE, _BITS = struct.Struct("<d"), struct.Struct("<q")
_INF_KEY = 0x7FF0000000000000  # _key(inf): finite floats have |_key| below it
_LARGEST = Fraction(sys.float_info.max)


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


def _horner(p, num, den):
    """den**d p(num/den) for the integer polynomial p of degree d, den > 0:
    the homogeneous Horner sum of c_i num**i den**(d - i), exact with no
    Fraction normalised; a power-of-two den, as a float's, scales by shifts."""
    acc = p[-1]
    if den & (den - 1):
        scale = 1
        for c in reversed(p[:-1]):
            scale *= den
            acc = acc * num + c * scale
    else:
        e = shift = den.bit_length() - 1
        for c in reversed(p[:-1]):
            acc = acc * num + (c << shift)
            shift += e
    return acc


def sign_at(p, num, den):
    """Sign (-1, 0 or 1) of the integer polynomial p at num/den, den > 0."""
    acc = _horner(p, num, den)
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


def _key(x):
    """The float x as an integer in the order of the floats: adjacent floats
    differ by 1, and 0.0 and -0.0 both map to 0. The map is its own inverse
    on the bit pattern, so _key(_float(k)) == k."""
    i = _BITS.unpack(_DOUBLE.pack(x))[0]
    return i if i >= 0 else -(1 << 63) - i


def _float(k):
    """The float whose _key is k."""
    return _DOUBLE.unpack(_BITS.pack(k if k >= 0 else -(1 << 63) - k))[0]


def _newton_seed(p, x, lo=-math.inf, hi=math.inf):
    """Newton by Horner on p's float rounding, made monic, from x.

    At most ROOT_NEWTON_STEPS steps, stopping at a step of at most two ulps,
    at a vanishing derivative, before an iterate outside (lo, hi), or before
    a step of at most 1e-10 max(1, |x|) not shorter than half the one before
    (Newton converges faster: x has reached p's rounding noise). x comes
    back unchanged when a coefficient ratio overflows a float.
    """
    try:
        monic = [c / p[-1] for c in reversed(p)]
    except OverflowError:
        return x
    step = math.inf
    for _ in range(ROOT_NEWTON_STEPS):
        f = df = 0.0
        for c in monic:
            df = df * x + f
            f = f * x + c
        if not df:
            break
        last, step = abs(step), f / df
        if abs(step) <= 1e-10 * max(1.0, abs(x)) and abs(step) > last / 2:
            break
        if not lo < x - step < hi:
            break
        x -= step
        if abs(step) <= 2 * math.ulp(x):
            break
    return x


def _nearest_float(p, above, start, lo=-math.inf, hi=math.inf):
    """(root, point): the float nearest a root r of the integer polynomial
    p, where p crosses from -above to above, and the point above which
    rightmost_root certifies that p has no root.

    A float Newton from start, kept within (lo, hi) widened by its width at
    each end, gives x (start does if x is outside (lo, hi]); one exact
    Newton step, the Horner sums of p and p' at x and one correctly rounded
    int / int division, moves it. The walk steps 1, 2, 4, ... floats away
    from x's side of r until p's exact sign flips (not at all from an x
    outside (lo, hi], whose ends already bracket r), bisects down to
    adjacent floats a < b and takes the one nearer r by p's exact sign at
    their midpoint m (a tie takes the even one); point is b when b is
    taken or is a root, m otherwise. p is only evaluated in (lo, hi]:
    below lo the walk reads its sign as -above, above hi as above.
    ValueError: the walk leaves the float range, or two roots of p round to
    the float taken.
    """
    lo_f, hi_f = float(lo), float(hi)
    x = _newton_seed(p, start, 2 * lo_f - hi_f, 2 * hi_f - lo_f)
    if not lo_f < x <= hi_f:
        x = start
    dp = [k * c for k, c in enumerate(p) if k]
    num, den = x.as_integer_ratio()
    try:
        dv = _horner(dp, num, den)
        x = (num * dv - _horner(p, num, den)) / (den * dv)
    except (ZeroDivisionError, OverflowError):
        pass
    # the floats in (lo, hi] are those with keys in (first, last]
    first, last = (_key(c) - (c > t) for c, t in ((lo_f, lo), (hi_f, hi)))

    def side(k):
        # +1 at float k where p has the sign `above`, -1 opposite, 0 at a root
        if first < k <= last:
            return above * sign_at(p, *_float(k).as_integer_ratio())
        return -1 if k <= first else 1

    far = min(max(_key(x), first), last + 1)
    s = side(far)
    near, s_near, step = far, s, 1
    if not first < far <= last:  # x is outside (lo, hi]: bisect all of it
        near, s_near = (last + 1, 1) if far == first else (first, -1)
    # far stays on side s; near steps away from it until the sign flips
    while s_near == s != 0:
        near = min(max(far - s * step, first), last + 1)
        if not abs(near) < _INF_KEY:
            raise ValueError("the walk from %r meets no sign change of p within the "
                             "float range: the root is not certified" % x)
        s_near = side(near)
        if s_near == s:
            far, step = near, 2 * step
    while s_near and abs(near - far) > 1:
        mid = (near + far) // 2
        s_mid = side(mid)
        if s_mid == s:
            far = mid
        else:
            near, s_near = mid, s_mid
    k = near  # an exact float root unless s_near
    root = point = _float(k)
    if s_near:
        a, b = sorted((near, far))  # side -1 at a, +1 at b
        point = (Fraction(_float(a)) + Fraction(_float(b))) / 2
        s_mid = (-1 if a == first and point <= lo else 1 if b > last and point > hi
                 else above * sign_at(p, *point.as_integer_ratio()))
        if s_mid < 0:
            point = _float(b)
        k = b if s_mid < 0 or (not s_mid and a % 2) else a
        root = _float(k)
    if not first < k <= last and not sign_at(p, *root.as_integer_ratio()):
        raise ValueError("%r is the float nearest the root in (%.17g, %.17g] and a root of p "
                         "outside it: two roots round to it" % (root, lo, hi))
    return root, point


def refine_root(p, lo, hi, above):
    """The float nearest the one root of the integer polynomial p in (lo, hi]
    (exact ends), where p crosses from -above to above. The walk from the
    middle never evaluates p at lo, so an end that is itself a root of p,
    such as the root of the interval below, is never taken for this one.
    ValueError where two roots of p round to one float."""
    return _nearest_float(p, above, 0.5 * (float(lo) + float(hi)), lo, hi)[0]


def rightmost_root(coeffs):
    """The float nearest to the largest real root of p, where p changes sign.

    coeffs are ascending and exact: ints, Fractions or floats, each read as
    the rational it is. _nearest_float starts from 0 when Descartes' rule
    shows no positive root and from the positive-root bound of
    isolate_positive_roots otherwise, and the rule then certifies that no
    root lies above its point. At most 64 steps and 64 halvings of the
    walk, one exact Newton step and ROOT_NEWTON_STEPS float ones are taken.
    ValueError, "not certified": no sign change is met, or a root lies
    above (a root of even multiplicity, at which p keeps its sign, is never
    returned).
    """
    p = _primitive(_to_int_poly(coeffs))
    if len(p) < 2:
        raise ValueError("no real roots")
    start = 0.0
    if sign_variations(p):
        start = float(min(Fraction(2 * max(map(abs, p)), abs(p[-1])), _LARGEST))
    root, point = _nearest_float(p, 1 if p[-1] > 0 else -1, start)
    # den**d p((y + num)/den): its roots y > 0 are the roots of p above point,
    # and its lowest nonzero term the multiplicity of point as a root
    d, (num, den) = len(p) - 1, point.as_integer_ratio()
    above = taylor_shift([c * den ** (d - i) for i, c in enumerate(p)], num)
    multiplicity = next(i for i, c in enumerate(above) if c)
    if sign_variations(above) == 0 and (multiplicity % 2 or not multiplicity):
        return root
    raise ValueError(
        "%r is not certified as the float nearest the largest real root: a root above "
        "%.17g, or a root of even multiplicity there" % (root, float(point))
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

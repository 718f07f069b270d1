"""Dense real polynomials plus exact root counting.

Coefficients are stored ascending by degree. Counting runs in exact
rational arithmetic (the float coefficients convert to binary rationals
without error), so certificates like "this polynomial has exactly k distinct
negative real roots" are decisions, not estimates. A SturmChain is built
once per polynomial and counts sign variations at as many points as asked,
by integer Horner evaluation; unstable_root_count is an exact Routh count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

__all__ = [
    "RealPolynomial",
    "SturmChain",
    "sturm_root_certificate",
    "count_real_roots_below",
    "count_real_roots_above",
    "count_real_roots_between",
    "rightmost_root",
    "unstable_root_count",
]


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real coefficients, ascending degree order."""

    coeffs: tuple

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(float(c) for c in trimmed))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, s):
        acc = 0.0 * s + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + c
        return acc

    def derivative(self):
        if self.degree == 0:
            return RealPolynomial((0.0,))
        return RealPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def coeff_norm(self):
        return float(np.linalg.norm(self.coeffs))


def _to_int_poly(coeffs):
    """Exact conversion of float/Fraction coefficients to an integer list."""
    fracs = [Fraction(c) for c in coeffs]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
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


class SturmChain:
    """Sturm sequence of one polynomial, built once and counted at many points.

    Members are primitive integer polynomials. A member of degree d is
    evaluated at x = p/q (q > 0) as the integer sum c_i p**i q**(d - i),
    which is q**d times its value and so has its sign; no Fraction is
    normalised. Points are rationals (anything Fraction accepts) or +-inf.
    """

    def __init__(self, coeffs):
        chain = _sturm_chain(coeffs)
        last = chain[-1]
        # True iff gcd(p, p') is constant, read off the end of the chain
        self.squarefree = len(last) == 1 and last[0] != 0
        if len(last) > 1:
            # divide out gcd(p, p') so that a multiple root, where every
            # member vanishes, still counts once
            chain = [_exact_quotient(m, last) for m in chain]
        self.members = chain

    def variations(self, x):
        """Sign changes along the chain at x, zeros skipped."""
        if x == math.inf or x == -math.inf:
            # the leading term decides; at -inf it flips for odd degree
            signs = [m[-1] if x > 0 or len(m) % 2 else -m[-1] for m in self.members]
        else:
            x = Fraction(x)
            num, den = x.numerator, x.denominator
            den_pow = [1]
            for _ in range(len(self.members[0]) - 1):
                den_pow.append(den_pow[-1] * den)
            signs = []
            for m in self.members:
                acc = m[-1]
                for i, c in enumerate(reversed(m[:-1]), 1):
                    acc = acc * num + c * den_pow[i]
                signs.append(acc)
        signs = [v for v in signs if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))

    def count_between(self, a, b):
        """Distinct real roots in (a, b], exact."""
        return self.variations(a) - self.variations(b)


def count_real_roots_below(p, x):
    """Distinct real roots of p in (-inf, x], exact."""
    return SturmChain(p.coeffs).count_between(-math.inf, x)


def count_real_roots_above(p, x):
    """Distinct real roots of p in (x, +inf), exact."""
    return SturmChain(p.coeffs).count_between(x, math.inf)


def count_real_roots_between(p, a, b):
    """Distinct real roots of p in (a, b], exact."""
    return SturmChain(p.coeffs).count_between(a, b)


def sturm_root_certificate(p):
    """Exact count of distinct negative real roots plus a squarefree flag.

    Returns (count_negative, all_distinct).
    """
    if p.degree < 1:
        raise ValueError("certificate requires a nonconstant polynomial")
    chain = SturmChain(p.coeffs)
    return chain.count_between(-math.inf, 0), chain.squarefree


def _newton_refine(p, x0, tol):
    dp = p.derivative()
    x = x0
    for _ in range(100):
        fx = p(x)
        if abs(fx) < tol:
            break
        dfx = dp(x)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-17 * max(1.0, abs(x)):
            break
    return x


def rightmost_root(p):
    """Largest real root, companion-seeded Newton with an exact Sturm check."""
    if p.degree < 1:
        raise ValueError("no real roots")
    roots = np.roots(list(reversed(p.coeffs)))
    tol_imag = 1e-8
    real_parts = [z.real for z in roots if abs(z.imag) <= tol_imag * (1.0 + abs(z))]
    tol = 1e-13 * p.coeff_norm()
    chain = SturmChain(p.coeffs)
    if real_parts:
        candidate = _newton_refine(p, max(real_parts), tol)
        pad = max(1e-9, 1e-9 * abs(candidate))
        if (
            chain.count_between(candidate + pad, math.inf) == 0
            and chain.count_between(candidate - pad, math.inf) >= 1
        ):
            return float(candidate)
    # Sturm bisection fallback: bracket the largest real root exactly.
    if chain.count_between(-math.inf, math.inf) == 0:
        raise ValueError("no real roots")
    hi = Fraction(max(2.0, 2.0 * max(abs(c) for c in p.coeffs) / abs(p.coeffs[-1])))
    lo = -hi
    v_inf = chain.variations(math.inf)
    if chain.variations(hi) != v_inf:
        raise ValueError("root bound failed")
    while hi - lo > Fraction(1, 10 ** 15) * max(1, abs(hi), abs(lo)):
        mid = (lo + hi) / 2
        if chain.variations(mid) > v_inf:
            lo = mid
        else:
            hi = mid
    return float(_newton_refine(p, float((lo + hi) / 2), tol))


def unstable_root_count(p):
    """Roots with positive real part, counted with multiplicity, exact.

    Sign changes down the first column of the Routh array. The rows are kept
    as primitive integer vectors: each is a positive multiple of the
    rational Routh row, which leaves every sign unchanged. A zero pivot
    (always met when a root lies on the imaginary axis) leaves no count and
    raises ValueError.
    """
    desc = list(reversed(_to_int_poly(p.coeffs)))
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

"""Reference computations made apart from midpredict.

Nothing here imports the program. The gains come from the derivative
conditions of F(s) = s**n * exp(s) + L(s) solved in 50-digit arithmetic, the
delay-free unstable-root count from a Routh array over Fractions, crossing
frequencies from a scan of |L(jw)| / w**n, and the gain-margin matrix from the
descriptor-form Lyapunov-Krasovskii derivative written out term by term.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 50


def _exp_derivative_poly(n, k, s):
    """exp(-s) * d^k/ds^k (s**n * exp(s)) = sum_j C(k,j) n!/(n-j)! s**(n-j)."""
    return sum(
        math.comb(k, j) * (math.factorial(n) // math.factorial(n - j)) * s ** (n - j)
        for j in range(min(k, n) + 1)
    )


@functools.lru_cache(maxsize=None)
def gains(n):
    """(sigma_star, (l1, ..., ln)) as 50-digit mpf values.

    An (n+1)-fold root of F at sigma needs F^(k)(sigma) = 0 for k = 0..n.
    L has degree n-1, so order n pins sigma to a root of the polynomial
    above with k = n (the negated Laguerre polynomial, whose roots are real
    and negative); Newton from 0 decreases monotonically onto the rightmost
    one. Orders 0..n-1 then give the Taylor coefficients of L at sigma.
    """
    with mpmath.workdps(DIGITS):
        sig = mpmath.mpf(0)
        for _ in range(500):
            value = _exp_derivative_poly(n, n, sig)
            slope = sum(
                math.comb(n, j) * (math.factorial(n) // math.factorial(n - j)) * (n - j)
                * sig ** (n - j - 1)
                for j in range(n)
            )
            step = value / slope
            sig -= step
            if abs(step) < mpmath.mpf(10) ** (-DIGITS + 5):
                break
        else:
            raise ArithmeticError("Newton did not settle on sigma_star")
        taylor = [-mpmath.exp(sig) * _exp_derivative_poly(n, k, sig) for k in range(n)]
        coeff = [
            sum(
                taylor[k] / math.factorial(k) * math.comb(k, m) * (-sig) ** (k - m)
                for k in range(m, n)
            )
            for m in range(n)
        ]
        # l_i multiplies s**(n-i)
        return sig, tuple(coeff[n - i] for i in range(1, n + 1))


def float_gains(n):
    sig, ls = gains(n)
    return float(sig), tuple(float(v) for v in ls)


def derivative_residuals(n, sig, ls):
    """Relative residuals of F^(k)(sig) = 0, k = 0..n, for given gains."""
    with mpmath.workdps(DIGITS):
        s = mpmath.mpf(sig)
        es = mpmath.exp(s)
        out = []
        for k in range(n + 1):
            head = [
                math.comb(k, j) * (math.factorial(n) // math.factorial(n - j)) * s ** (n - j) * es
                for j in range(min(k, n) + 1)
            ]
            tail = [
                mpmath.mpf(l) * (math.factorial(n - i) // math.factorial(n - i - k)) * s ** (n - i - k)
                for i, l in enumerate(ls, start=1)
                if n - i >= k
            ]
            terms = head + tail
            scale = max(abs(t) for t in terms)
            out.append(float(abs(sum(terms)) / scale))
        return out


def injection(ls, s):
    """L(s) = l1 s**(n-1) + ... + ln and its derivative."""
    value, slope = 0j, 0j
    for coef in ls:
        slope = slope * s + value
        value = value * s + coef
    return value, slope


def char_value(ls, delta, s):
    """(D(s), term scale) for D(s) = s**n + L(s) exp(-delta s)."""
    n = len(ls)
    value, _ = injection(ls, s)
    mag = sum(abs(c) * abs(s) ** (n - i) for i, c in enumerate(ls, start=1))
    decay = cmath.exp(-delta * s)
    return s ** n + value * decay, abs(s) ** n + mag * abs(decay)


def routh_unstable_count(ls):
    """Roots of s**n + l1 s**(n-1) + ... + ln with positive real part, exact.

    Floats are binary rationals, so the Routh array over Fractions decides
    the count without rounding. A zero pivot raises instead of guessing.
    """
    coeffs = [Fraction(1)] + [Fraction(c) for c in ls]
    rows = [coeffs[0::2], coeffs[1::2]]
    width = len(rows[0])
    rows[1] = rows[1] + [Fraction(0)] * (width - len(rows[1]))
    first = [rows[0][0], rows[1][0]]
    for _ in range(len(coeffs) - 2):
        upper, lower = rows[-2], rows[-1]
        if lower[0] == 0:
            raise ArithmeticError("zero pivot in the Routh array")
        new = [
            (lower[0] * upper[j + 1] - upper[0] * lower[j + 1]) / lower[0]
            for j in range(width - 1)
        ] + [Fraction(0)]
        rows.append(new)
        first.append(new[0])
    if any(v == 0 for v in first):
        raise ArithmeticError("zero pivot in the Routh array")
    return sum(1 for a, b in zip(first, first[1:]) if (a > 0) != (b > 0))


def _log_gap(ls, w):
    """log|L(jw)| - n log w, vectorised over w."""
    n = len(ls)
    s = 1j * np.asarray(w, dtype=float)
    value = np.zeros_like(s)
    for coef in ls:
        value = value * s + coef
    return np.log(np.abs(value)) - n * np.log(np.abs(s))


@functools.lru_cache(maxsize=None)
def crossings(n):
    """Positive frequencies w with |L(jw)| = w**n, descending.

    For w >= max(1, sum|l|) the injection cannot reach w**n, so a fine log
    grid below that bound brackets every sign change, and bisection in
    floating point polishes each one.
    """
    _, ls = float_gains(n)
    hi = 1.01 * max(1.0, sum(abs(c) for c in ls))
    grid = np.geomspace(1e-3, hi, 20000)
    gap = _log_gap(ls, grid)
    if gap[0] <= 0 or gap[-1] >= 0:
        raise ArithmeticError("crossing scan does not bracket the crossings")
    out = []
    for i in np.nonzero(np.signbit(gap[:-1]) != np.signbit(gap[1:]))[0]:
        lo, up = float(grid[i]), float(grid[i + 1])
        for _ in range(200):
            mid = 0.5 * (lo + up)
            if mid in (lo, up):
                break
            if (_log_gap(ls, [mid])[0] > 0) == (gap[i] > 0):
                lo = mid
            else:
                up = mid
        out.append(0.5 * (lo + up))
    return tuple(sorted(out, reverse=True))


def crossing_direction(ls, w, delta):
    """Sign of d(Re s)/d(delta) for the root at jw, by implicit differentiation."""
    n = len(ls)
    s = 1j * w
    value, slope = injection(ls, s)
    decay = cmath.exp(-delta * s)
    d_delta = -s * value * decay
    d_s = n * s ** (n - 1) + (slope - delta * value) * decay
    return 1 if (-d_delta / d_s).real > 0 else -1


def crossing_delays(n, w, delta_max):
    """Delays in (0, delta_max] at which D(jw; delta) = 0."""
    _, ls = float_gains(n)
    value, _ = injection(ls, 1j * w)
    arg = cmath.phase(-value / (1j * w) ** n) % (2 * math.pi)
    start = arg if arg > 0 else 2 * math.pi
    out = []
    k = 0
    while (start + 2 * math.pi * k) / w <= delta_max:
        out.append((start + 2 * math.pi * k) / w)
        k += 1
    return out


def descriptor_W(gain_l, h, gamma, P, R, S, P2, P3, P4):
    """Derivative of the descriptor Lyapunov-Krasovskii functional as a
    quadratic form in (e, de, e(t-h), Delta) for de = A e + A1 e(t-h) + Delta,
    |Delta| <= gamma |e|:

      V = e'Pe + int_{t-h}^t e'Se + h int int de'R de,
      0 = 2 (P2 e + P3 de + P4 Delta)' (A e + A1 e(t-h) + Delta - de),
      0 <= gamma^2 e'e - Delta'Delta,

    with Jensen's bound on the double integral.
    """
    n = len(gain_l)
    eye = np.eye(n)
    sel = [np.zeros((n, 4 * n)) for _ in range(4)]
    for k, m in enumerate(sel):
        m[:, k * n : (k + 1) * n] = eye
    e, de, eh, dl = sel
    A = np.eye(n, k=1)
    A1 = np.zeros((n, n))
    A1[:, 0] = -np.asarray(gain_l)

    def he(x):
        return x + x.T

    mult = P2 @ e + P3 @ de + P4 @ dl
    loop = A @ e + A1 @ eh + dl - de
    return (
        he(e.T @ P @ de)
        + e.T @ S @ e
        - eh.T @ S @ eh
        + h ** 2 * de.T @ R @ de
        - (e - eh).T @ R @ (e - eh)
        + he(mult.T @ loop)
        + gamma ** 2 * e.T @ e
        - dl.T @ dl
    )


def fit_decay_rate(times, errors, n):
    """Rate r in |e(t)| ~ t**n exp(r t) (1 + c/t).

    An (n+1)-fold dominant root makes the error a degree-n polynomial times
    the exponential, so log|e| - n log t is fitted by a + r t + c/t.
    """
    t = np.asarray(times, dtype=float)
    y = np.log(np.asarray(errors, dtype=float)) - n * np.log(t)
    basis = np.column_stack([np.ones_like(t), t, 1.0 / t])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[1])

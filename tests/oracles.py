"""Reference implementations the tests compare the package against.

None of these is on a path any subcommand takes; each is the independent
route to a value that the package computes another way, or the definition a
property test states its property in. Not collected by pytest: the test
modules import it by name.
"""

import math
from fractions import Fraction

import numpy as np

from midpredict.expressions import Call, Neg, Num, Var
from midpredict.model import ModelError
from midpredict.polynomials import (
    _exact_quotient,
    _sturm_chain,
    _to_int_poly,
    sign_at,
    sign_variations,
)
from midpredict.synthesis import MAX_GAIN_DIMENSION, GainVector, sigma_star


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _node_prec(node):
    if isinstance(node, (Num, Var, Call)):
        return 5
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_source(node):
    """Render an AST back to text; re-parsing yields a structurally equal AST."""
    if isinstance(node, Num):
        # a literal past the float range parses to inf, which repr cannot give back
        return "1e999" if node.value == math.inf else repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return "%s(%s)" % (node.func, to_source(node.arg))
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _node_prec(node.operand) < _PREC["neg"]:
            inner = "(%s)" % inner
        return "-" + inner
    p = _PREC[node.op]
    left = to_source(node.left)
    right = to_source(node.right)
    if node.op == "^":
        # right associative, so the left operand needs parens at equal level
        if _node_prec(node.left) <= p:
            left = "(%s)" % left
        if _node_prec(node.right) < p:
            right = "(%s)" % right
    else:
        if _node_prec(node.left) < p:
            left = "(%s)" % left
        if _node_prec(node.right) <= p:
            right = "(%s)" % right
    return "%s %s %s" % (left, node.op, right)


def rk_terms(n, k):
    """Exact terms of the k-th derivative polynomial R_k.

    Returns a list of (s_power, delta_power, integer_coefficient) with
    s_power = n-k+i-1 and delta_power = i-1 for i = 1..k+1.
    """
    if not 0 <= k <= n:
        raise ValueError("derivative order must be in 0..n")
    kf = math.factorial(k)
    terms = []
    for i in range(1, k + 2):
        coef = math.comb(n, k - i + 1) * (kf // math.factorial(i - 1))
        if coef:
            terms.append((n - k + i - 1, i - 1, coef))
    return terms


def gain_from_derivative_system(n):
    """Solve the derivative conditions directly for the gains.

    The unit-delay conditions are linear in the reversed gain vector with an
    upper-triangular coefficient matrix whose diagonal entry in row i is
    (i-1)!, so back-substitution is exact up to rounding. This is the
    authoritative cross-check for gain_star.
    """
    if not 1 <= n <= MAX_GAIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_GAIN_DIMENSION)
    sig = sigma_star(n)
    esig = math.exp(sig)
    m = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m[i - 1, j - 1] = math.factorial(j - 1) / math.factorial(j - i) * sig ** (j - i)
    rhs = np.zeros(n)
    for i in range(1, n + 1):
        value = 0.0
        for s_pow, _, coef in rk_terms(n, i - 1):
            value += coef * sig ** s_pow
        rhs[i - 1] = -value * esig
    y = np.zeros(n)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] - m[i, i + 1 :] @ y[i + 1 :]) / m[i, i]
    gains = tuple(reversed(y.tolist()))
    return GainVector(l=gains, n=n, sigma_star=sig)


class SturmChain:
    """Sturm sequence of one polynomial, built once and counted at many points:
    the reference for the Descartes isolation, the repeated-root rule and
    sigma_star.

    Members are primitive integer polynomials, evaluated at a point by
    sign_at. Points are rationals (anything Fraction accepts) or +-inf.
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
            signs = [sign_at(m, x.numerator, x.denominator) for m in self.members]
        return sign_variations(signs)

    def count_between(self, a, b):
        """Distinct real roots in (a, b], exact."""
        return self.variations(a) - self.variations(b)


def sturm_root_certificate(coeffs):
    """Exact count of distinct negative real roots plus a squarefree flag.

    coeffs are ascending and exact: ints, Fractions or floats, each read as
    the rational it is, so the certificate speaks for that polynomial and
    not for a float rounding of it. Returns (count_negative, all_distinct).
    For p = x**m r with r(0) != 0, both read the Sturm chain of r: the count
    is its sign changes at -inf minus those at 0, and p is squarefree when
    the chain ends in a constant and m <= 1.
    """
    p = _to_int_poly(coeffs)
    if len(p) < 2:
        raise ValueError("certificate requires a nonconstant polynomial")
    m = next(i for i, c in enumerate(p) if c)
    chain = _sturm_chain(p[m:])
    # at -inf the leading term decides, flipped for odd degree
    at_minus_inf = sign_variations([c[-1] if len(c) % 2 else -c[-1] for c in chain])
    return at_minus_inf - sign_variations([c[0] for c in chain]), len(chain[-1]) == 1 and m <= 1


def canonical_weights(n):
    """Weight tuple (1, 2, ..., n) used throughout the design."""
    if n < 1:
        raise ModelError("dimension must be positive")
    return tuple(range(1, n + 1))


def dilate(r, lam, x):
    """Scale component i of x by lam**r[i]. Weights must be positive."""
    if lam <= 0:
        raise ModelError("dilation parameter must be positive")
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != x.shape:
        raise ModelError("weight and vector lengths differ")
    if np.any(r <= 0):
        raise ModelError("weights must be positive")
    return x * lam ** r


def shift_map(x):
    """Apply the up-shift A: (Ax)_i = x_{i+1}, (Ax)_n = 0."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    out[:-1] = x[1:]
    return out


def fit_decay_rate(trace, window):
    """Least-squares slope of log prediction-error norm over a time window."""
    t1, t2 = window
    mask = (trace.times >= t1) & (trace.times <= t2) & np.isfinite(trace.e_pred)
    if not np.any(mask):
        raise ValueError("window contains no prediction-error samples")
    errs = trace.e_pred[mask]
    if np.any(errs <= 0.0):
        raise ValueError("prediction error must be positive on the window")
    ts = trace.times[mask]
    slope, _ = np.polyfit(ts, np.log(errs), 1)
    return float(slope)


def ahmed_necessary(n, h, lam):
    """Necessary screen for the first recipe at dimension >= 2:
    h*lam**2 < 1/(sqrt(2)*n) and h <= 1/(4*sqrt(2)*n)."""
    if n < 2:
        raise ValueError("the necessary conditions assume dimension >= 2")
    return bool(h * lam ** 2 < 1.0 / (math.sqrt(2) * n) and h <= 1.0 / (4.0 * math.sqrt(2) * n))

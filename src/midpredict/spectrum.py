"""Root location for the delayed-injection characteristic function.

``D(s) = s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)`` is entire, so an
argument-principle count over a rectangle boundary is an exact root count
with multiplicity. The boundary is sampled and then refined level by level
until no step can hide a full turn of the argument; each level is one array
evaluation. Roots inside a rectangle are located by bisecting it on that
count (Delves & Lyness, Math. Comp. 21, 1967): boxes holding one root are
polished by a multiplicity-robust Newton iteration on D/D', and a cluster
that no cut can split is located as one multiple root through the
derivative of matching order. The count is the only route, so the roots
returned account for it exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quasipolynomial",
    "SpectrumResult",
    "SpectrumError",
    "RootOnContourError",
    "qp_eval",
    "qp_kth_deriv",
    "qp_scale",
    "count_roots_region",
    "roots_in_region",
    "default_certification_rect",
]

POLISH_REL_TOL = 1e-10
CONTOUR_REL_TOL = 1e-8
CUT_FRACTIONS = (0.5, 0.47, 0.53, 0.41, 0.59)
CONTOUR_FACTORS = (1.0, 1.7, 2.9, 4.3, 7.1)
MAX_CONTOUR_POINTS = 10**7


class SpectrumError(RuntimeError):
    pass


class RootOnContourError(SpectrumError):
    pass


@dataclass(frozen=True)
class Quasipolynomial:
    """Characteristic function data: dimension, gains l1..ln, delay >= 0."""

    n: int
    l: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(float(v) for v in self.l))
        if self.n < 1:
            raise ValueError("dimension n must be at least 1, got %r" % (self.n,))
        if len(self.l) != self.n:
            raise ValueError("gain list length must equal n")
        if not all(math.isfinite(v) for v in self.l):
            raise ValueError("gains must be finite")
        if self.l[-1] == 0.0:
            raise ValueError("trailing gain must be nonzero")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delay must be finite and nonnegative")


@dataclass(frozen=True)
class SpectrumResult:
    roots: tuple  # ((complex, multiplicity), ...) by (re, im); see _sorted_roots
    region: tuple  # (re_min, re_max, im_min, im_max)
    count_by_argument_principle: int
    dominant: complex


def _injection_value(gain, s):
    """L(s) = l1*s**(n-1)+...+ln by Horner; gain is anything with gains l."""
    acc = gain.l[0]
    for coef in gain.l[1:]:
        acc = acc * s + coef
    return acc


def _argument(s):
    """s as a complex array with np.exp, or as a Python complex with cmath.exp."""
    if np.ndim(s):
        return np.asarray(s, dtype=complex), np.exp
    return complex(s), cmath.exp


def qp_eval(qp, s):
    """Evaluate D(s); accepts scalars or numpy arrays."""
    s, exp = _argument(s)
    return s ** qp.n + _injection_value(qp, s) * exp(-qp.delta * s)


def _kth_derivs(qp, s, first=0, scaled=True):
    """D^(k)(s) for k = first, first + 1, ..., each with its largest term magnitude.

    D^(k)(s) = perm(n,k) s**(n-k) + exp(-delta*s) sum_j C(k,j) (-delta)**(k-j) L^(j)(s)
    for the injection polynomial L(s) = l1*s**(n-1)+...+ln, each L^(j) summed
    term by term once and reused for every later k. The scale is the larger
    of |perm(n,k) s**(n-k)| and the largest |C(k,j) delta**(k-j)| times the
    largest term of L^(j), times |exp(-delta*s)|; it is None when scaled is
    false. At k = 0 the value is qp_eval's Horner result. s is a scalar or a
    numpy array. A scalar s whose exp(-delta*s) overflows raises ValueError.
    """
    s, exp = _argument(s)
    maximum = max if isinstance(s, complex) else np.maximum
    n = qp.n
    powers = [s ** m for m in range(n)]
    try:
        decay = exp(-qp.delta * s)
    except OverflowError:
        raise ValueError(
            "e^(-delta*s0) overflows at delta*Re s0 = %.6g, below -709.78" % (qp.delta * s.real)
        ) from None
    sums = []  # (L^(j)(s), its largest term) for j = 0..k
    for k in itertools.count():
        value, scale = 0.0 + 0.0j, 0.0
        for power, coef in zip(range(n - 1, k - 1, -1), qp.l):
            term = coef * math.perm(power, k) * powers[power - k]
            value += term
            if scaled:
                scale = maximum(scale, abs(term))
        sums.append((value, scale))
        if k < first:
            continue
        head = math.perm(n, k) * s ** (n - k) if k <= n else 0.0
        tail = 0.0 + 0.0j
        tail_scale = 0.0
        for j, (lj, lj_scale) in enumerate(sums):
            weight = math.comb(k, j) * (-qp.delta) ** (k - j)
            tail += weight * lj
            if scaled:
                tail_scale = maximum(tail_scale, abs(weight) * lj_scale)
        value = qp_eval(qp, s) if k == 0 else head + tail * decay
        yield value, maximum(abs(head), tail_scale * abs(decay)) if scaled else None


def _kth_deriv(qp, s, k, scaled=True):
    """(D^(k)(s), its largest term magnitude or None); see _kth_derivs."""
    return next(_kth_derivs(qp, s, k, scaled))


def qp_kth_deriv(qp, s, k):
    """k-th derivative of D; accepts scalars or numpy arrays."""
    return _kth_deriv(qp, s, k, scaled=False)[0]


def qp_scale(qp, s):
    """Magnitude scale of D at s, used to make tolerances relative."""
    s = np.asarray(s, dtype=complex)
    mag = np.abs(s)
    acc = abs(qp.l[0]) * np.ones_like(mag)
    for coef in qp.l[1:]:
        acc = acc * mag + abs(coef)
    return mag ** qp.n + acc * np.exp(-qp.delta * s.real) + 1e-300


def _phase_sweep(qp, points, budget):
    """Total continuous argument change of D along a polyline of points.

    A step is halved when its wrapped phase jump exceeds 1 radian, and also
    when the walk passes close to a root relative to the step length
    (|D/D'| underestimates the distance to the nearest root, so this is the
    safe side). Fast full turns between samples would otherwise wrap
    invisibly and corrupt the winding number. Whether a step is halved
    depends on its two ends alone, so the polyline is refined level by
    level: each level tests all of its steps at once and evaluates all of
    its new midpoints in one call. A split needed at depth 60, or a sweep
    whose samples before its last split exceed budget, raises SpectrumError.
    D or its scale overflowing at a sample raises ValueError; midpoints lie
    on the sampled edges, between samples, so only the samples are checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = qp_eval(qp, points)
        scale = qp_scale(qp, points)
    if not (np.isfinite(values).all() and np.isfinite(scale).all()):
        raise ValueError(
            "the characteristic function overflows on the contour: delta*Re s falls to %.6g "
            "(e^(-delta*s) overflows below -709.78) and |s| reaches %.6g"
            % (qp.delta * points.real.min(), np.abs(points).max())
        )
    rel = np.abs(values) / scale
    if np.any(rel < CONTOUR_REL_TOL):
        raise RootOnContourError("characteristic value vanishes on the contour")
    ends = (points, values, rel, np.angle(values))
    first, last = [x[:-1] for x in ends], [x[1:] for x in ends]
    total = 0.0
    used = len(points)
    for depth in range(61):
        (a, w_a, rel_a, ang_a), (b, w_b, rel_b, ang_b) = first, last
        jump = (ang_b - ang_a + math.pi) % (2 * math.pi) - math.pi
        split = np.abs(jump) > 1.0
        near = ~split & (np.minimum(rel_a, rel_b) < 0.1)
        if near.any():
            at_a = rel_a[near] <= rel_b[near]
            w_small = np.where(at_a, w_a[near], w_b[near])
            dp = qp_kth_deriv(qp, np.where(at_a, a[near], b[near]), 1)
            dist_est = np.abs(w_small) / np.maximum(np.abs(dp), 1e-300)
            split[near] = np.abs(b[near] - a[near]) > 0.5 * dist_est
        total += jump[~split].sum()
        halved = np.flatnonzero(split)
        if not halved.size:
            return total
        used += halved.size
        if depth == 60 or used - 1 > budget:
            raise SpectrumError("contour refinement budget exceeded")
        mid = (a[halved] + b[halved]) / 2
        w = qp_eval(qp, mid)
        rel_m = np.abs(w) / qp_scale(qp, mid)
        if np.any(rel_m < CONTOUR_REL_TOL):
            raise RootOnContourError("characteristic value vanishes on the contour")
        middle = (mid, w, rel_m, np.angle(w))
        first = [np.concatenate((x[halved], m)) for x, m in zip(first, middle)]
        last = [np.concatenate((m, x[halved])) for x, m in zip(last, middle)]


def _rect_boundary(rect, samples_per_unit):
    """Closed polyline around the rectangle, as one complex array."""
    re0, re1, im0, im1 = rect
    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ]
    sides = []
    for a, b in zip(corners, corners[1:]):
        k = max(2, int(math.ceil(abs(b - a) * samples_per_unit)) + 1)
        sides.append(a + (b - a) * np.linspace(0.0, 1.0, k)[:-1])
    return np.concatenate(sides + [np.array([corners[-1]])])


def count_roots_region(qp, rect):
    """Exact root count (with multiplicity) inside a rectangle.

    The boundary is sampled at max(8, 4 delta) points per unit length, plus
    64; a contour of more than MAX_CONTOUR_POINTS such samples is refused
    with ValueError before any is made. Refinement past 64 times that many
    evaluations raises rather than returning a wrong count.
    """
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must have positive extent")
    perimeter = 2 * (re1 - re0) + 2 * (im1 - im0)
    samples = perimeter * max(8.0, 4.0 * qp.delta)
    if not samples + 64 <= MAX_CONTOUR_POINTS:
        raise ValueError(
            "the contour around %s needs %.3g samples, above the budget of %d"
            % (rect, samples + 64, MAX_CONTOUR_POINTS)
        )
    contour_points = int(samples) + 64
    points = _rect_boundary(rect, max(2.0, contour_points / perimeter))
    total = _phase_sweep(qp, points, budget=64 * contour_points)
    winding = total / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.05:
        raise SpectrumError("non-integral winding number")
    return int(nearest)


def _polish(qp, s0, rect):
    """Newton on D/D': quadratic convergence regardless of multiplicity.

    Both a residual test and a step-size test gate acceptance; near a
    multiple root the residual alone is satisfied on a whole ball, so a
    stalled iterate would otherwise masquerade as a separate root.
    """
    re0, re1, im0, im1 = rect
    span = max(re1 - re0, im1 - im0)
    s = complex(s0)
    last_step = math.inf
    for _ in range(80):
        d = qp_eval(qp, s)
        dp = qp_kth_deriv(qp, s, 1)
        if abs(dp) == 0.0:
            return None
        g = d / dp
        dpp = qp_kth_deriv(qp, s, 2)
        denom = 1.0 - (d * dpp) / (dp * dp)
        step = g / denom if abs(denom) > 1e-12 else g
        s_new = s - step
        if not (math.isfinite(s_new.real) and math.isfinite(s_new.imag)):
            return None
        if abs(s_new.real - (re0 + re1) / 2) > span or abs(s_new.imag - (im0 + im1) / 2) > span:
            return None
        s = s_new
        last_step = abs(step)
        if last_step < 1e-14 * max(1.0, abs(s)):
            break
    if not _is_root(qp, s) or last_step > 1e-10 * max(1.0, abs(s)):
        return None
    return s


def _is_root(qp, z):
    """The residual gate of a located root: |D(z)| within POLISH_REL_TOL of
    the scale of D at z."""
    return abs(qp_eval(qp, z)) <= POLISH_REL_TOL * float(qp_scale(qp, np.asarray(z)))


def _inside(s, box, slack=0.0):
    re0, re1, im0, im1 = box
    return re0 - slack <= s.real <= re1 + slack and im0 - slack <= s.imag <= im1 + slack


def _first_counted(qp, rects):
    """(rect, count) for the first of rects whose boundary meets no root,
    or None when every boundary meets one."""
    for rect in rects:
        try:
            return rect, count_roots_region(qp, rect)
        except RootOnContourError:
            continue
    return None


def _split(qp, box, count):
    """Halve a box of count roots along its longer side.

    The first cut in CUT_FRACTIONS whose half-box boundary meets no root
    wins; only that half is counted, since the two halves' counts add up to
    the box's. Returns ((half, count), (half, count)), or None when every
    cut meets a root.
    """
    re0, re1, im0, im1 = box
    wide = re1 - re0 >= im1 - im0
    if wide:
        firsts = ((re0, re0 + frac * (re1 - re0), im0, im1) for frac in CUT_FRACTIONS)
    else:
        firsts = ((re0, re1, im0, im0 + frac * (im1 - im0)) for frac in CUT_FRACTIONS)
    counted = _first_counted(qp, firsts)
    if counted is None:
        return None
    first, k = counted
    if not 0 <= k <= count:
        raise SpectrumError("half-box count %d exceeds the box count %d" % (k, count))
    second = (first[1], re1, im0, im1) if wide else (re0, re1, first[3], im1)
    return (first, k), (second, count - k)


def _cluster_root(qp, box, mult):
    """Locate mult roots that no cut can separate as one multiple root.

    A multiplicity-m root of D is a simple, well-conditioned root of
    D^(m-1); Newton there from the box centre recovers the location far
    below the noise floor that direct evaluation of D allows. The point
    must lie in the box and pass _is_root.
    """
    re0, re1, im0, im1 = box
    z = complex((re0 + re1) / 2, (im0 + im1) / 2)
    for _ in range(60):
        f = qp_kth_deriv(qp, z, mult - 1)
        fp = qp_kth_deriv(qp, z, mult)
        if abs(fp) == 0.0:
            break
        step = f / fp
        z -= step
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    if not (_inside(z, box) and _is_root(qp, z)):
        raise SpectrumError("cannot locate the %d-fold root cluster in %s" % (mult, box))
    return z


def roots_in_region(qp, rect):
    """All roots in the closed rectangle, each with a certified multiplicity.

    The counting contour is pushed slightly outside the requested rectangle
    so roots sitting exactly on an edge (real roots with im_min at 0, for
    instance) are still resolved. At delay delta < 1 the spectrum is spread
    by 1/delta, so when every margin of the ladder meets a root the ladder
    is tried again scaled by 1/delta. The expanded box is then bisected on
    its argument-principle count: a one-root box is done when _polish converges
    inside it, and a box of k >= 2 roots that no cut can pass without
    meeting a root is one root of multiplicity k. Every root comes from a
    counted box, so together they account exactly for the boundary count.
    Only roots lying in the closed requested rectangle are returned, and the
    reported count is the sum of their multiplicities.
    """
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must have positive extent")
    base = min(0.02, 0.1 * min(re1 - re0, im1 - im0))
    factors = CONTOUR_FACTORS
    if 0 < qp.delta < 1:
        factors += tuple(f / qp.delta for f in CONTOUR_FACTORS)
    counted = _first_counted(
        qp, ((re0 - base * f, re1 + base * f, im0 - base * f, im1 + base * f) for f in factors)
    )
    if counted is None:
        raise RootOnContourError("roots crowd every candidate contour around the rectangle")
    ext, target = counted
    found = []
    pending = [(ext, target)] if target else []
    max_boxes = 64 * (target + 1)
    boxes = 0
    while pending:
        boxes += 1
        if boxes > max_boxes:
            raise SpectrumError("root isolation exceeded its budget of %d boxes" % max_boxes)
        box, count = pending.pop()
        if count == 1:
            s = _polish(qp, complex((box[0] + box[1]) / 2, (box[2] + box[3]) / 2), box)
            if s is not None and _inside(s, box):
                found.append((s, 1))
                continue
        halves = _split(qp, box, count)
        if halves is not None:
            pending.extend(half for half in halves if half[1])
        elif count == 1:
            raise SpectrumError("no cut isolates the root in %s" % (box,))
        else:
            found.append((_cluster_root(qp, box, count), count))
    kept = []
    for s, m in found:
        if abs(s.imag) < 1e-8 * max(1.0, abs(s)):
            s = complex(s.real, 0.0)
        if _inside(s, rect, 1e-9):
            kept.append((s, m))
    kept = _sorted_roots(kept)
    dominant = max((s for s, _ in kept), key=lambda z: z.real, default=None)
    return SpectrumResult(tuple(kept), tuple(rect), sum(m for _, m in kept), dominant)


def _sorted_roots(roots):
    """Order (root, multiplicity) items by (re, im). Conjugate partners share
    the smaller real part as key, so the last bit of either cannot swap them:
    the partner with negative imaginary part always comes first."""
    keys = [s.real for s, _ in roots]
    for i, (s, m) in enumerate(roots):
        for j, (z, k) in enumerate(roots):
            if s.imag < 0 < z.imag and k == m and abs(z - s.conjugate()) <= 1e-8 * abs(z):
                keys[i] = keys[j] = min(s.real, z.real)
    return [r for _, r in sorted(zip(keys, roots), key=lambda kr: (kr[0], kr[1][0].imag))]


def default_certification_rect(sigma_st, delta):
    """Upper-half certification window; the lower half follows by conjugacy."""
    return (sigma_st - 8.0, 1.0, 0.0, max(50.0, 6 * math.pi / max(delta, 0.1)))

"""Root location for the delayed-injection characteristic function.

``D(s) = s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)`` is entire, so an
argument-principle count over a rectangle boundary is an exact root count
with multiplicity. The boundary is sampled and then refined level by level
until no step can hide a full turn of the argument; each level is one array
evaluation. The same sweep sums the first moment of log D along the
boundary, which over 2*pi*i approximates the sum of the roots inside. Roots
inside a rectangle are located by bisecting it on that count (Delves &
Lyness, Math. Comp. 21, 1967). Each counted box of k roots is first
settled by one rule: Newton on D^(k-1) from the roots' mean (moment / k)
proposes one k-fold root z, which is a simple root of D^(k-1). One root
is certified by the box's count. k >= 2 roots are taken as one when the
box of a few radii around z, inside which |D| is too small for any cut to
separate them, holds all k. A box that is not settled is halved. The count
is the only route, so the roots returned account for it exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .synthesis import _argument, _injection_value, _kth_derivs

__all__ = [
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

ROOT_REL_TOL = 1e-10
CONTOUR_REL_TOL = 1e-8
CUT_FRACTIONS = (0.5, 0.47, 0.53, 0.41, 0.59)
CONTOUR_FACTORS = (1.0, 1.7, 2.9, 4.3, 7.1)
MAX_CONTOUR_POINTS = 10**7
NEWTON_STEPS = 16
CLUSTER_RADII = 3.0  # half-width, in radii, of the box that must hold a k-fold root's cluster


class SpectrumError(RuntimeError):
    pass


class RootOnContourError(SpectrumError):
    pass


@dataclass(frozen=True)
class SpectrumResult:
    roots: tuple  # ((complex, multiplicity), ...) by (re, im); see _sorted_roots
    region: tuple  # (re_min, re_max, im_min, im_max)
    count_by_argument_principle: int
    dominant: complex


def qp_eval(qp, s):
    """Evaluate D(s); accepts scalars or numpy arrays."""
    s, exp, _ = _argument(s)
    return s ** qp.n + _injection_value(qp, s) * exp(-qp.delta * s)


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
    """Total continuous argument change of D along a polyline of points, and
    the first moment of log D along it.

    A step is halved when its wrapped phase jump exceeds 1 radian, and also
    when the walk passes close to a root relative to the step length: when
    the step is longer than half of |D/D'| at its end nearer to a root. That
    second rule is a heuristic, not a bound: |D/D'| can exceed the distance
    to the nearest root, so a fast full turn between two samples, which
    would wrap invisibly and corrupt the winding number, is made unlikely
    but not impossible. Whether a step is halved depends on its two ends
    alone, so the polyline is refined level by level: each level tests all
    of its steps at once and evaluates all of its new midpoints in one
    call. A split needed at depth 60, or a sweep whose samples before its
    last split exceed budget, raises SpectrumError.
    D or its scale overflowing at a sample raises ValueError; midpoints lie
    on the sampled edges, between samples, so only the samples are checked.

    The moment sums (a + b)/2 * (log D(b) - log D(a)) over the steps kept,
    with the continuous argument; on a closed polyline that is the
    trapezoid rule for the integral of s d(log D) after integration by parts.
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
    mag = np.abs(values)
    rel = mag / scale
    if np.any(rel < CONTOUR_REL_TOL):
        raise RootOnContourError("characteristic value vanishes on the contour")
    ends = (points, values, rel, np.angle(values), np.log(mag))
    first, last = [x[:-1] for x in ends], [x[1:] for x in ends]
    total = 0.0
    moment = 0.0
    used = len(points)
    for depth in range(61):
        (a, w_a, rel_a, ang_a, log_a), (b, w_b, rel_b, ang_b, log_b) = first, last
        jump = (ang_b - ang_a + math.pi) % (2 * math.pi) - math.pi
        split = np.abs(jump) > 1.0
        near = ~split & (np.minimum(rel_a, rel_b) < 0.1)
        if near.any():
            at_a = rel_a[near] <= rel_b[near]
            w_small = np.where(at_a, w_a[near], w_b[near])
            dp = qp_kth_deriv(qp, np.where(at_a, a[near], b[near]), 1)
            dist_est = np.abs(w_small) / np.maximum(np.abs(dp), 1e-300)
            split[near] = np.abs(b[near] - a[near]) > 0.5 * dist_est
        kept = ~split
        total += jump[kept].sum()
        moment += ((a[kept] + b[kept]) * (log_b[kept] - log_a[kept] + 1j * jump[kept])).sum()
        halved = np.flatnonzero(split)
        if not halved.size:
            return total, moment / 2
        used += halved.size
        if depth == 60 or used - 1 > budget:
            raise SpectrumError("contour refinement budget exceeded")
        mid = (a[halved] + b[halved]) / 2
        w = qp_eval(qp, mid)
        mag = np.abs(w)
        rel_m = mag / qp_scale(qp, mid)
        if np.any(rel_m < CONTOUR_REL_TOL):
            raise RootOnContourError("characteristic value vanishes on the contour")
        middle = (mid, w, rel_m, np.angle(w), np.log(mag))
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
    """Exact root count (with multiplicity) inside a rectangle, and the
    first moment: the integral of s d(log D) around it over 2*pi*i, which
    approximates the sum of those roots.

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
    total, moment = _phase_sweep(qp, points, budget=64 * contour_points)
    winding = total / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.05:
        raise SpectrumError("non-integral winding number")
    return int(nearest), moment / (2j * math.pi)


def _derivs(qp, s, first, count):
    """D^(first), ..., D^(first + count - 1) at a scalar s, from one _kth_derivs pass."""
    return [value for value, _ in itertools.islice(_kth_derivs(qp, s, first, False), count)]


def _is_root(qp, z):
    """The residual gate of a located root: |D(z)| within ROOT_REL_TOL of
    the scale of D at z."""
    return abs(qp_eval(qp, z)) <= ROOT_REL_TOL * float(qp_scale(qp, np.asarray(z)))


def _inside(s, box, slack=0.0):
    re0, re1, im0, im1 = box
    return re0 - slack <= s.real <= re1 + slack and im0 - slack <= s.imag <= im1 + slack


def _first_counted(qp, rects):
    """(rect, count, moment) for the first of rects whose boundary meets no
    root, or None when every boundary meets one."""
    for rect in rects:
        try:
            return (rect, *count_roots_region(qp, rect))
        except RootOnContourError:
            continue
    return None


def _split(qp, box, count, moment):
    """Halve a box of count roots along its longer side.

    The first cut in CUT_FRACTIONS whose half-box boundary meets no root
    wins; only that half is counted, since the two halves' counts, and
    their moments, add up to the box's. Returns ((half, count, moment),
    (half, count, moment)), or None when every cut meets a root.
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
    first, k, first_moment = counted
    if not 0 <= k <= count:
        raise SpectrumError("half-box count %d exceeds the box count %d" % (k, count))
    second = (first[1], re1, im0, im1) if wide else (re0, re1, first[3], im1)
    return counted, (second, count - k, moment - first_moment)


def _derivative_newton(qp, z, order, box):
    """Newton on D^(order) from z, for at most NEWTON_STEPS steps or until a
    step falls below 1e-16 |z|.

    A step of at most 1e-10 max(1, |z|) that is not shorter than half the
    one before is not taken: Newton converges faster than that, so the
    iterate has reached the rounding noise of D^(order), where further
    steps hop between floats a few ulps apart (n = 6 at delay 0.25 hops
    2 ulps to and fro until the budget ends).
    Returns (z, D^(order+1) at the last iterate evaluated) once the last
    step is at most 1e-10 max(1, |z|): near a multiple root of D the
    residual of D is small on a whole ball, so a stalled iterate would
    otherwise pass for a root. Returns None when it is not, when
    D^(order+1) vanishes, or once an iterate leaves the box: outside a
    counted box e^(-delta*s) may overflow.
    """
    step = math.inf
    for _ in range(NEWTON_STEPS):
        if not _inside(z, box):
            return None
        f, fp = _derivs(qp, z, order, 2)
        if abs(fp) == 0.0:
            return None
        last, step = abs(step), f / fp
        if abs(step) <= 1e-10 * max(1.0, abs(z)) and abs(step) > last / 2:
            break
        z -= step
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    if abs(step) > 1e-10 * max(1.0, abs(z)) or not _inside(z, box):
        return None
    return z, fp


def _settle(qp, box, count, moment):
    """The one root of multiplicity count that a box of count roots holds,
    or None.

    A count-fold root is a simple root z of D^(count-1), which Newton from
    the roots' mean, moment / count, finds when the roots are one cluster;
    z must stay in box and pass _is_root. One root is certified by the
    box's own count. For count >= 2, |D| near z is about
    |D^(count)(z)| r**count / count! at distance r, which falls below
    CONTOUR_REL_TOL of the scale within rho, so no contour can separate
    roots closer to z than that. The cluster box of half-width
    CLUSTER_RADII * rho around z, clipped to box (whose edges are clear of
    roots), must then be box itself or be counted to hold all count roots.
    """
    landed = _derivative_newton(qp, moment / count, count - 1, box)
    if landed is None or not _is_root(qp, landed[0]):
        return None
    z, dk = landed
    if count == 1:
        return z
    scale = float(qp_scale(qp, np.asarray(z)))
    rho = (CONTOUR_REL_TOL * scale * math.factorial(count) / abs(dk)) ** (1.0 / count)
    half = CLUSTER_RADII * rho
    re0, re1, im0, im1 = box
    small = (max(re0, z.real - half), min(re1, z.real + half),
             max(im0, z.imag - half), min(im1, z.imag + half))
    if small == box:
        return z
    counted = _first_counted(qp, (small,))
    return z if counted is not None and counted[1] == count else None


def roots_in_region(qp, rect):
    """All roots in the closed rectangle, each with a certified multiplicity.

    The counting contour is pushed slightly outside the requested rectangle
    so roots sitting exactly on an edge (real roots with im_min at 0, for
    instance) are still resolved. At delay delta < 1 the spectrum is spread
    by 1/delta, so when every margin of the ladder meets a root the ladder
    is tried again scaled by 1/delta. The expanded box is then bisected on
    its argument-principle count. A box of k roots, k at most 2n (the
    largest multiplicity D can have, Polya & Szego: the degrees n and n - 1
    of its two terms, plus one), is first offered to _settle, which takes
    it as one k-fold root at the point Newton on D^(k-1) reaches from the
    roots' mean. A box _settle does not take is halved; a box that no cut
    can halve raises SpectrumError. Every root comes from a counted box, so together
    they account exactly for the boundary count.
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
    target = counted[1]
    found = []
    pending = [counted] if target else []  # (box, count, moment)
    max_boxes = 64 * (target + 1)
    boxes = 0
    while pending:
        boxes += 1
        if boxes > max_boxes:
            raise SpectrumError("root isolation exceeded its budget of %d boxes" % max_boxes)
        box, count, moment = pending.pop()
        if count <= 2 * qp.n:
            s = _settle(qp, box, count, moment)
            if s is not None:
                found.append((s, count))
                continue
        halves = _split(qp, box, count, moment)
        if halves is None:
            raise SpectrumError("no cut splits the %d roots in %s" % (count, box))
        pending.extend(half for half in halves if half[1])
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

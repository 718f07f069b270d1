"""Root location for the delayed-injection characteristic function.

``D(s) = s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)`` is entire, so an
argument-principle count over a rectangle boundary is an exact root count
with multiplicity. Roots inside a rectangle are located by bisecting it on
that count (Delves & Lyness, Math. Comp. 21, 1967): boxes holding one root
are polished by a multiplicity-robust Newton iteration on D/D', and a
cluster that no cut can split is located as one multiple root through the
derivative of matching order. The count is the only route, so the roots
returned account for it exactly.
"""

from __future__ import annotations

import cmath
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
    "rightmost_in_region",
    "default_certification_rect",
]

POLISH_REL_TOL = 1e-10
CONTOUR_REL_TOL = 1e-8
CUT_FRACTIONS = (0.5, 0.47, 0.53, 0.41, 0.59)


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


def _injection_value(qp, s):
    acc = qp.l[0]
    for coef in qp.l[1:]:
        acc = acc * s + coef
    return acc


def qp_eval(qp, s):
    """Evaluate D(s); accepts scalars or numpy arrays."""
    s = np.asarray(s, dtype=complex) if not np.isscalar(s) else complex(s)
    poly = _injection_value(qp, s)
    if np.ndim(s):
        return s ** qp.n + poly * np.exp(-qp.delta * s)
    return s ** qp.n + poly * cmath.exp(-qp.delta * s)


def _injection_derivative(gain, s, k):
    """k-th derivative of l1*s**(n-1)+...+ln at s, with the largest term magnitude.

    gain is anything with gains l and dimension n: a Quasipolynomial or a
    synthesis GainVector.
    """
    n = gain.n
    total = 0.0 + 0.0j
    scale = 0.0
    for idx, coef in enumerate(gain.l):
        power = n - 1 - idx
        if power < k:
            continue
        term = coef * math.perm(power, k) * s ** (power - k)
        total += term
        scale = max(scale, abs(term))
    return total, scale


def qp_kth_deriv(qp, s, k):
    """k-th derivative of D at a scalar point."""
    s = complex(s)
    if k == 0:
        return qp_eval(qp, s)
    head = math.perm(qp.n, k) * s ** (qp.n - k) if k <= qp.n else 0.0
    tail = 0.0 + 0.0j
    for j in range(k + 1):
        tail += math.comb(k, j) * (-qp.delta) ** (k - j) * _injection_derivative(qp, s, j)[0]
    return head + tail * cmath.exp(-qp.delta * s)


def qp_scale(qp, s):
    """Magnitude scale of D at s, used to make tolerances relative."""
    s = np.asarray(s, dtype=complex)
    mag = np.abs(s)
    acc = abs(qp.l[0]) * np.ones_like(mag)
    for coef in qp.l[1:]:
        acc = acc * mag + abs(coef)
    return mag ** qp.n + acc * np.exp(-qp.delta * s.real) + 1e-300


def _wrap_angle(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def _phase_sweep(qp, points, budget, vanish_tol=CONTOUR_REL_TOL):
    """Total continuous argument change of D along a polyline of points.

    A step is subdivided when its wrapped phase jump exceeds 1 radian, and
    also whenever the walk passes close to a root relative to the step
    length (|D/D'| underestimates the distance to the nearest root, so this
    is the safe side). Fast full turns between samples would otherwise wrap
    invisibly and corrupt the winding number.
    """
    pts = np.asarray(points, dtype=complex)
    values = qp_eval(qp, pts)
    scales = qp_scale(qp, pts)
    rel = np.abs(values) / scales
    if np.any(rel < vanish_tol):
        raise RootOnContourError("characteristic value vanishes on the contour")
    angles = np.angle(values)
    total = 0.0
    used = [len(points)]

    def needs_split(a, b, w_a, w_b, rel_a, rel_b, jump):
        if abs(jump) > 1.0:
            return True
        rel_min = min(rel_a, rel_b)
        if rel_min >= 0.1:
            return False
        w_small, at = (w_a, a) if rel_a <= rel_b else (w_b, b)
        dp = qp_kth_deriv(qp, at, 1)
        dist_est = abs(w_small) / max(abs(dp), 1e-300)
        return abs(b - a) > 0.5 * dist_est

    def refine(a, b, w_a, w_b, rel_a, rel_b, ang_a, ang_b, depth):
        jump = _wrap_angle(ang_b - ang_a)
        if not needs_split(a, b, w_a, w_b, rel_a, rel_b, jump):
            return jump
        if depth >= 60 or used[0] > budget:
            raise SpectrumError("contour refinement budget exceeded; enlarge contour_points")
        mid = (a + b) / 2
        w = qp_eval(qp, mid)
        scale_m = float(qp_scale(qp, np.asarray(mid)))
        rel_m = abs(w) / scale_m
        if rel_m < vanish_tol:
            raise RootOnContourError("characteristic value vanishes on the contour")
        used[0] += 1
        ang_m = cmath.phase(w)
        return refine(a, mid, w_a, w, rel_a, rel_m, ang_a, ang_m, depth + 1) + refine(
            mid, b, w, w_b, rel_m, rel_b, ang_m, ang_b, depth + 1
        )

    for i in range(len(points) - 1):
        total += refine(
            pts[i],
            pts[i + 1],
            values[i],
            values[i + 1],
            rel[i],
            rel[i + 1],
            angles[i],
            angles[i + 1],
            0,
        )
    return total


def _rect_boundary(rect, samples_per_unit):
    re0, re1, im0, im1 = rect
    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ]
    pts = []
    for a, b in zip(corners, corners[1:]):
        length = abs(b - a)
        k = max(2, int(math.ceil(length * samples_per_unit)) + 1)
        seg = a + (b - a) * np.linspace(0.0, 1.0, k)
        pts.extend(seg[:-1].tolist())
    pts.append(corners[-1])
    return pts


def count_roots_region(qp, rect, contour_points=None):
    """Exact root count (with multiplicity) inside a rectangle.

    contour_points bounds the total boundary evaluations; refinement past
    that budget raises rather than returning a wrong count.
    """
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must have positive extent")
    perimeter = 2 * (re1 - re0) + 2 * (im1 - im0)
    if contour_points is None:
        per_unit = max(8.0, 4.0 * qp.delta)
        contour_points = int(perimeter * per_unit) + 64
    points = _rect_boundary(rect, max(2.0, contour_points / perimeter))
    total = _phase_sweep(qp, points, budget=64 * contour_points)
    winding = total / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.05:
        raise SpectrumError("non-integral winding number; refine contour_points")
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
    d = qp_eval(qp, s)
    scale = float(qp_scale(qp, np.asarray(s)))
    if abs(d) > POLISH_REL_TOL * scale or last_step > 1e-10 * max(1.0, abs(s)):
        return None
    return s


def _inside(s, box, slack=0.0):
    re0, re1, im0, im1 = box
    return re0 - slack <= s.real <= re1 + slack and im0 - slack <= s.imag <= im1 + slack


def _split(qp, box, count):
    """Halve a box of count roots along its longer side.

    The first cut in CUT_FRACTIONS whose half-box boundary meets no root
    wins; only that half is counted, since the two halves' counts add up to
    the box's. Returns ((half, count), (half, count)), or None when every
    cut meets a root.
    """
    re0, re1, im0, im1 = box
    for frac in CUT_FRACTIONS:
        if re1 - re0 >= im1 - im0:
            cut = re0 + frac * (re1 - re0)
            first, second = (re0, cut, im0, im1), (cut, re1, im0, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            first, second = (re0, re1, im0, cut), (re0, re1, cut, im1)
        try:
            k = count_roots_region(qp, first)
        except RootOnContourError:
            continue
        if not 0 <= k <= count:
            raise SpectrumError("half-box count %d exceeds the box count %d" % (k, count))
        return (first, k), (second, count - k)
    return None


def _cluster_root(qp, box, mult):
    """Locate mult roots that no cut can separate as one multiple root.

    A multiplicity-m root of D is a simple, well-conditioned root of
    D^(m-1); Newton there from the box centre recovers the location far
    below the noise floor that direct evaluation of D allows. The point
    must lie in the box and pass the residual gate of _polish.
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
    scale = float(qp_scale(qp, np.asarray(z)))
    if not (_inside(z, box) and abs(qp_eval(qp, z)) <= POLISH_REL_TOL * scale):
        raise SpectrumError("cannot locate the %d-fold root cluster in %s" % (mult, box))
    return z


def roots_in_region(qp, rect):
    """All roots in the closed rectangle, each with a certified multiplicity.

    The counting contour is pushed slightly outside the requested rectangle
    so roots sitting exactly on an edge (real roots with im_min at 0, for
    instance) are still resolved. The expanded box is then bisected on its
    argument-principle count: a one-root box is done when _polish converges
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
    ext = None
    for factor in (1.0, 1.7, 2.9, 4.3, 7.1):
        trial = (re0 - base * factor, re1 + base * factor, im0 - base * factor, im1 + base * factor)
        try:
            target = count_roots_region(qp, trial)
        except RootOnContourError:
            continue
        ext = trial
        break
    if ext is None:
        raise RootOnContourError("roots crowd every candidate contour around the rectangle")
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


def rightmost_in_region(qp, rect):
    """Root of maximal real part in the rectangle."""
    result = roots_in_region(qp, rect)
    if not result.roots:
        raise SpectrumError("empty spectrum in region")
    return result.dominant


def default_certification_rect(sigma_st, delta):
    """Upper-half certification window; the lower half follows by conjugacy."""
    return (sigma_st - 8.0, 1.0, 0.0, max(50.0, 6 * math.pi / max(delta, 0.1)))

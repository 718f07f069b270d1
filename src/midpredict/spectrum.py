"""Root location for the delayed-injection characteristic function.

``D(s) = s**n + (l1*s**(n-1) + ... + ln) * exp(-delta*s)`` is entire, so an
argument-principle count over a rectangle boundary is an exact root count
with multiplicity. Roots inside a rectangle are located by scanning a grid
for simultaneous sign changes of Re D and Im D, polishing candidates with a
multiplicity-robust Newton iteration on D/D', and estimating multiplicities
by small-circle winding numbers. The two routes must agree before a result
is returned.
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

MERGE_RADIUS = 1e-4
MULTIPLICITY_RADIUS = 1e-3
POLISH_REL_TOL = 1e-10
CONTOUR_REL_TOL = 1e-8


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
    roots: tuple  # ((complex, multiplicity), ...) sorted by (re, im)
    region: tuple  # (re_min, re_max, im_min, im_max)
    count_by_argument_principle: int
    dominant: complex


def _injection_value(qp, s):
    acc = qp.l[0] * np.ones_like(s)
    for coef in qp.l[1:]:
        acc = acc * s + coef
    return acc


def qp_eval(qp, s):
    """Evaluate D(s); accepts scalars or numpy arrays."""
    s = np.asarray(s, dtype=complex) if not np.isscalar(s) else complex(s)
    poly = _injection_value(qp, s) if np.ndim(s) else _injection_scalar(qp, s)
    if np.ndim(s):
        return s ** qp.n + poly * np.exp(-qp.delta * s)
    return s ** qp.n + poly * cmath.exp(-qp.delta * s)


def _injection_scalar(qp, s):
    acc = qp.l[0]
    for coef in qp.l[1:]:
        acc = acc * s + coef
    return acc


def _injection_deriv_scalar(qp, s, order=1):
    n = qp.n
    acc = 0.0 + 0.0j
    for idx, coef in enumerate(qp.l):
        power = n - 1 - idx
        if power < order:
            continue
        acc += coef * math.perm(power, order) * s ** (power - order)
    return acc


def qp_kth_deriv(qp, s, k):
    """k-th derivative of D at a scalar point."""
    s = complex(s)
    if k == 0:
        return qp_eval(qp, s)
    head = math.perm(qp.n, k) * s ** (qp.n - k) if k <= qp.n else 0.0
    tail = 0.0 + 0.0j
    for j in range(k + 1):
        tail += math.comb(k, j) * (-qp.delta) ** (k - j) * _injection_deriv_scalar(qp, s, j)
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


def _candidate_cells(qp, rect, density):
    re0, re1, im0, im1 = rect
    nx = max(4, int(math.ceil((re1 - re0) * density)) + 1)
    ny = max(4, int(math.ceil((im1 - im0) * density)) + 1)
    xs = np.linspace(re0, re1, nx)
    ys = np.linspace(im0, im1, ny)
    grid = xs[None, :] + 1j * ys[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        w = qp_eval(qp, grid)
    sr = np.signbit(w.real)
    si = np.signbit(w.imag)

    def changes(sign):
        c = np.zeros((ny - 1, nx - 1), dtype=bool)
        c |= sign[:-1, :-1] != sign[:-1, 1:]
        c |= sign[:-1, :-1] != sign[1:, :-1]
        c |= sign[:-1, :-1] != sign[1:, 1:]
        return c

    both = changes(sr) & changes(si)
    rows, cols = np.nonzero(both)
    centers = (xs[cols] + xs[cols + 1]) / 2 + 1j * (ys[rows] + ys[rows + 1]) / 2
    return centers.tolist()


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


def _merge_clusters(points, radius):
    merged = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        for i, (q, cnt) in enumerate(merged):
            if abs(p - q) <= radius:
                merged[i] = ((q * cnt + p) / (cnt + 1), cnt + 1)
                break
        else:
            merged.append((p, 1))
    return [q for q, _ in merged]


def _multiplicity(qp, root, neighbors):
    """Winding number of D on a small circle around a polished root.

    On a radius-r circle around a multiplicity-m root, |D| shrinks like
    r**m, so the vanish guard is relaxed to just above evaluation noise and
    the radius grows if values sink into that noise.
    """
    base = MULTIPLICITY_RADIUS
    gap = min((abs(root - q) for q in neighbors if q != root), default=None)
    if gap is not None:
        base = min(base, 0.4 * gap)
    for factor in (1.0, 2.0, 0.5, 4.0, 0.25, 8.0):
        radius = base * factor
        if gap is not None and radius > 0.45 * gap:
            continue
        theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=True)
        circle = root + radius * np.exp(1j * theta)
        try:
            total = _phase_sweep(qp, circle.tolist(), budget=70000, vanish_tol=1e-13)
        except RootOnContourError:
            continue
        winding = total / (2 * math.pi)
        if abs(winding - round(winding)) < 0.05 and round(winding) >= 1:
            return int(round(winding))
    raise SpectrumError("could not certify multiplicity near %s" % root)


def _refine_multiple(qp, s, mult):
    """Relocate a multiple root through the (mult-1)-th derivative.

    A multiplicity-m root of D is a simple, well-conditioned root of
    D^(m-1); plain Newton there recovers the location far below the noise
    floor that direct evaluation of D allows. Near-real results snap onto
    the axis, which is exact for real coefficients and isolated roots.
    """
    if mult > 1:
        z = complex(s)
        for _ in range(60):
            f = qp_kth_deriv(qp, z, mult - 1)
            fp = qp_kth_deriv(qp, z, mult)
            if abs(fp) == 0.0:
                break
            step = f / fp
            z -= step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        if abs(z - s) <= 2 * MERGE_RADIUS:
            s = z
    if abs(s.imag) < 1e-8 * max(1.0, abs(s)):
        s = complex(s.real, 0.0)
    return s


def roots_in_region(qp, rect, grid_density=32):
    """All roots in the closed rectangle, each with a certified multiplicity.

    The integration contour is pushed slightly outside the requested
    rectangle so roots sitting exactly on an edge (real roots with im_min at
    0, for instance) are still resolved. Every root found inside the
    expanded contour must be accounted for by the boundary winding number;
    only roots lying in the closed requested rectangle are returned, and the
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
    density = max(8, int(grid_density))
    found_total = 0
    for attempt in range(3):
        candidates = _candidate_cells(qp, ext, density)
        polished = [s for s in (_polish(qp, c, ext) for c in candidates) if s is not None]
        roots = _merge_clusters(polished, MERGE_RADIUS)
        if target == 0 and not roots:
            return SpectrumResult((), tuple(rect), 0, None)
        try:
            with_mult = [(s, _multiplicity(qp, s, roots)) for s in roots]
        except SpectrumError:
            density *= 2
            continue
        with_mult = [(_refine_multiple(qp, s, m), m) for s, m in with_mult]
        found_total = sum(m for _, m in with_mult)
        if found_total == target:
            kept = [
                (s, m)
                for s, m in with_mult
                if re0 - 1e-9 <= s.real <= re1 + 1e-9 and im0 - 1e-9 <= s.imag <= im1 + 1e-9
            ]
            kept.sort(key=lambda item: (item[0].real, item[0].imag))
            dominant = max((s for s, _ in kept), key=lambda z: z.real, default=None)
            return SpectrumResult(tuple(kept), tuple(rect), sum(m for _, m in kept), dominant)
        density *= 2
    raise SpectrumError(
        "grid scan accounted for %d roots but the boundary count is %d" % (found_total, target)
    )


def rightmost_in_region(qp, rect, grid_density=64):
    """Root of maximal real part in the rectangle."""
    result = roots_in_region(qp, rect, grid_density)
    if not result.roots:
        raise SpectrumError("empty spectrum in region")
    return result.dominant


def default_certification_rect(sigma_st, delta):
    """Upper-half certification window; the lower half follows by conjugacy."""
    return (sigma_st - 8.0, 1.0, 0.0, max(50.0, 6 * math.pi / max(delta, 0.1)))

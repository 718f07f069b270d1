import cmath
import math
import warnings

import numpy as np
import pytest

from midpredict.spectrum import (
    RootOnContourError,
    SpectrumError,
    _kth_deriv,
    _inside,
    _phase_sweep,
    _rect_boundary,
    count_roots_region,
    default_certification_rect,
    qp_eval,
    qp_kth_deriv,
    qp_scale,
    roots_in_region,
)
from midpredict.margins import partition_for_gain, stability_partition
from midpredict.synthesis import GainVector, Quasipolynomial, gain_star, scale_gain

G2 = gain_star(2)
QP2 = Quasipolynomial(2, G2.l, 1.0)
QP1 = Quasipolynomial(1, (math.exp(-1.0),), 1.0)


def test_invariants_of_quasipolynomial():
    with pytest.raises(ValueError):
        Quasipolynomial(2, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        Quasipolynomial(2, (1.0, 1.0), -0.5)


def test_quasipolynomial_refuses_dimension_below_one():
    with pytest.raises(ValueError, match="dimension"):
        Quasipolynomial(0, (), 1.0)


def test_qp_eval_at_zero_is_trailing_gain():
    assert qp_eval(QP2, 0.0) == pytest.approx(G2.l[1], abs=1e-15)


def test_qp_eval_designed_root():
    assert abs(qp_eval(QP2, G2.sigma_star)) < 1e-10


def test_qp_eval_classic_double_root():
    assert abs(qp_eval(QP1, -1.0)) < 1e-15


def _per_k_kth_deriv(qp, s, k):
    """_kth_deriv's former form, kept as a reference: every L^(j), j <= k,
    rebuilt for this k alone."""
    scalar = not np.ndim(s)
    s = complex(s) if scalar else np.asarray(s, dtype=complex)
    exp, maximum = (cmath.exp, max) if scalar else (np.exp, np.maximum)
    n = qp.n
    powers = [s ** m for m in range(n)]
    head = math.perm(n, k) * s ** (n - k) if k <= n else 0.0
    tail = 0.0 + 0.0j
    tail_scale = 0.0
    for j in range(k + 1):
        weight = math.comb(k, j) * (-qp.delta) ** (k - j)
        value, scale = 0.0 + 0.0j, 0.0
        for power, coef in zip(range(n - 1, j - 1, -1), qp.l):
            term = coef * math.perm(power, j) * powers[power - j]
            value += term
            scale = maximum(scale, abs(term))
        tail += weight * value
        tail_scale = maximum(tail_scale, abs(weight) * scale)
    decay = exp(-qp.delta * s)
    value = qp_eval(qp, s) if k == 0 else head + tail * decay
    return value, maximum(abs(head), tail_scale * abs(decay))


def _same_bits(a, b):
    a, b = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (a, b))
    return np.array_equal(a.view(np.float64), b.view(np.float64), equal_nan=True)


def test_kth_deriv_matches_the_per_k_rebuild_bitwise():
    # the sums L^(j) are built once per call and reused for every k; values
    # and scales must equal the former per-k rebuild bit for bit, on the
    # designed roots and on seeded random points, scalar and array alike
    rng = np.random.default_rng(19)
    cases = []
    for n in (*range(1, 13), 20, 30, 46):
        g = gain_star(n)
        for delta in (0.25, 1.0, 4.0):
            cases.append((Quasipolynomial(n, scale_gain(g, delta).l, delta), g.sigma_star / delta))
    for _ in range(60):
        n = int(rng.integers(1, 13))
        delta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        cases.append((Quasipolynomial(n, rng.uniform(1.0, 7.0, n), delta),
                      complex(*rng.normal(0.0, 3.0, 2))))
    for qp, s0 in cases:
        for k in range(qp.n + 2):
            value, scale = _kth_deriv(qp, s0, k)
            ref_value, ref_scale = _per_k_kth_deriv(qp, s0, k)
            assert _same_bits(value, ref_value) and _same_bits(scale, ref_scale), (qp, s0, k)
            assert _same_bits(qp_kth_deriv(qp, s0, k), ref_value)
    for qp, s0 in cases[-60:]:
        points = s0 + rng.normal(0.0, 0.5, 5) + 1j * rng.normal(0.0, 0.5, 5)
        for k in range(qp.n + 2):
            assert _same_bits(qp_kth_deriv(qp, points, k), _per_k_kth_deriv(qp, points, k)[0])


def test_qp_eval_array_matches_scalar():
    z = np.array([0.3 + 0.2j, -1.0 + 0.0j, -0.5 + 2.0j])
    for k in (0, 1, 2):
        vec = qp_eval(QP2, z) if k == 0 else qp_kth_deriv(QP2, z, k)
        assert vec.shape == z.shape
        for zi, vi in zip(z, vec):
            assert vi == pytest.approx(qp_kth_deriv(QP2, complex(zi), k), rel=1e-14)


def test_qp_derivatives_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = complex(rng.uniform(-2, 1), rng.uniform(-3, 3))
        step = 1e-6
        fd = (qp_eval(QP2, s + step) - qp_eval(QP2, s - step)) / (2 * step)
        assert qp_kth_deriv(QP2, s, 1) == pytest.approx(fd, rel=1e-7, abs=1e-9)
        fd2 = (qp_kth_deriv(QP2, s + step, 1) - qp_kth_deriv(QP2, s - step, 1)) / (2 * step)
        assert qp_kth_deriv(QP2, s, 2) == pytest.approx(fd2, rel=1e-6, abs=1e-8)


def test_count_double_root_region():
    assert count_roots_region(QP1, (-2.0, 0.0, -1.0, 1.0))[0] == 2


def test_count_triple_root_region():
    assert count_roots_region(QP2, (-3.0, 0.5, -5.0, 5.0))[0] == 3


def test_count_right_half_plane_stable():
    assert count_roots_region(QP2, (0.1, 2.0, -3.0, 3.0))[0] == 0


def test_count_root_on_contour_raises():
    with pytest.raises(RootOnContourError):
        count_roots_region(QP1, (-1.0, 0.0, -1.0, 1.0))


def test_count_overflow_raises_one_error():
    # e^(-delta*s) overflows left of delta*Re s = -709.78: one ValueError
    # that says so, and no numpy warning ahead of it
    qp = Quasipolynomial(2, G2.l, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflows .* delta\*Re s falls to -1200"):
            count_roots_region(qp, (-60.0, 1.0, 0.0, 10.0))


def _recursive_sweep(qp, points, budget):
    """The depth-first scalar sweep that _phase_sweep replaced, kept as its
    reference; it sums the first moment of log D over the same steps."""
    pts = np.asarray(points, dtype=complex)
    values = qp_eval(qp, pts)
    rel = np.abs(values) / qp_scale(qp, pts)
    if np.any(rel < 1e-8):
        raise RootOnContourError("characteristic value vanishes on the contour")
    angles = np.angle(values)
    used = [len(points)]

    def refine(a, b, w_a, w_b, rel_a, rel_b, ang_a, ang_b, depth):
        jump = (ang_b - ang_a + math.pi) % (2 * math.pi) - math.pi
        split = abs(jump) > 1.0
        if not split and not min(rel_a, rel_b) >= 0.1:
            w_small, at = (w_a, a) if rel_a <= rel_b else (w_b, b)
            dist_est = abs(w_small) / max(abs(qp_kth_deriv(qp, at, 1)), 1e-300)
            split = abs(b - a) > 0.5 * dist_est
        if not split:
            dlog = math.log(abs(w_b)) - math.log(abs(w_a)) + 1j * jump
            return jump, (a + b) / 2 * dlog
        if depth >= 60 or used[0] > budget:
            raise SpectrumError("contour refinement budget exceeded")
        mid = (a + b) / 2
        w = qp_eval(qp, mid)
        rel_m = abs(w) / float(qp_scale(qp, np.asarray(mid)))
        if rel_m < 1e-8:
            raise RootOnContourError("characteristic value vanishes on the contour")
        used[0] += 1
        ang_m = cmath.phase(w)
        left = refine(a, mid, w_a, w, rel_a, rel_m, ang_a, ang_m, depth + 1)
        right = refine(mid, b, w, w_b, rel_m, rel_b, ang_m, ang_b, depth + 1)
        return left[0] + right[0], left[1] + right[1]

    steps = [
        refine(pts[i], pts[i + 1], values[i], values[i + 1], rel[i], rel[i + 1],
               angles[i], angles[i + 1], 0)
        for i in range(len(points) - 1)
    ]
    return sum(t for t, _ in steps), sum(m for _, m in steps)


def _sweep_outcome(sweep, qp, points, budget):
    """(winding number, first moment / 2 pi i), or the SpectrumError type raised."""
    try:
        total, moment = sweep(qp, points, budget)
    except SpectrumError as exc:
        return type(exc)
    return total / (2 * math.pi), moment / (2j * math.pi)


def test_level_sweep_matches_recursive_sweep():
    # coarse samples and tight budgets make the refinement, and its budget,
    # decide most of these cases
    rng = np.random.default_rng(13)
    outcomes = []
    for _ in range(300):
        n = int(rng.integers(1, 7))
        gains = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 3.0)
        gains[-1] = math.copysign(max(abs(gains[-1]), 1e-3), gains[-1])
        qp = Quasipolynomial(n, tuple(gains), float(rng.uniform(0.0, 40.0)))
        re0, im0 = rng.uniform(-4.0, 1.0), rng.uniform(-6.0, 6.0)
        rect = (re0, re0 + rng.uniform(0.1, 4.0), im0, im0 + rng.uniform(0.1, 8.0))
        points = _rect_boundary(rect, rng.uniform(0.5, 8.0))
        budget = int(len(points) * 2.0 ** rng.uniform(0.0, 6.0))
        level = _sweep_outcome(_phase_sweep, qp, points, budget)
        recursive = _sweep_outcome(_recursive_sweep, qp, points, budget)
        if isinstance(level, type):
            assert level is recursive
        else:
            assert level[0] == pytest.approx(recursive[0], abs=1e-6)
            reach = np.abs(points).max()
            assert level[1] == pytest.approx(recursive[1], abs=1e-13 * reach * len(points))
        outcomes.append(level)
    assert sum(o is SpectrumError for o in outcomes) >= 30
    assert sum(not isinstance(o, type) and round(o[0]) != 0 for o in outcomes) >= 30
    # the smallest budget with which the recursion finishes, and one less
    points = _rect_boundary((-3.0, 0.5, -5.0, 5.0), 0.5)
    lo, hi = len(points), 64 * len(points)
    while lo < hi:
        mid = (lo + hi) // 2
        if _sweep_outcome(_recursive_sweep, QP2, points, mid) is SpectrumError:
            lo = mid + 1
        else:
            hi = mid
    assert len(points) < lo < 64 * len(points)
    assert _sweep_outcome(_phase_sweep, QP2, points, lo - 1) is SpectrumError
    assert _sweep_outcome(_phase_sweep, QP2, points, lo)[0] == pytest.approx(3.0, abs=1e-6)
    # a root at a corner sample, and a root at the first midpoint of a step
    for points in (_rect_boundary((-1.0, 0.0, 0.0, 1.0), 4.0), np.array([-1.5, -0.5 + 0j])):
        for sweep in (_phase_sweep, _recursive_sweep):
            with pytest.raises(RootOnContourError):
                sweep(QP1, points, 64 * len(points))


def test_roots_in_region_designed_loop():
    res = roots_in_region(QP2, (-6.0, 1.0, 0.0, 30.0))
    dominant = res.dominant
    assert dominant == pytest.approx(G2.sigma_star, abs=1e-9)
    mults = {m for s, m in res.roots if abs(s - G2.sigma_star) < 1e-6}
    assert mults == {3}
    for s, m in res.roots:
        if abs(s - G2.sigma_star) > 1e-6:
            assert s.real < G2.sigma_star
            assert m == 1
    assert sum(m for _, m in res.roots) == res.count_by_argument_principle


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_roots_in_region_designed_loop_higher_order(n):
    gain = gain_star(n)
    qp = Quasipolynomial(n, gain.l, 1.0)
    res = roots_in_region(qp, default_certification_rect(gain.sigma_star, 1.0))
    assert res.dominant == pytest.approx(gain.sigma_star, rel=1e-12)
    assert dict(res.roots)[res.dominant] == n + 1
    for s, m in res.roots:
        if s != res.dominant:
            assert s.real < gain.sigma_star
    assert sum(m for _, m in res.roots) == res.count_by_argument_principle


def test_roots_in_region_rescaled_gain_wide_contour():
    # at delta = 0.25 the (n+1)-fold root sits so flat that every contour of
    # the unscaled ladder passes within CONTOUR_REL_TOL of it
    n, delta = 7, 0.25
    gain = gain_star(n)
    qp = Quasipolynomial(n, scale_gain(gain, delta).l, delta)
    res = roots_in_region(qp, default_certification_rect(gain.sigma_star / delta, delta))
    assert res.dominant == pytest.approx(gain.sigma_star / delta, rel=1e-12)
    assert dict(res.roots)[res.dominant] == n + 1
    assert sum(m for _, m in res.roots) == res.count_by_argument_principle


def test_roots_in_region_classic_double():
    res = roots_in_region(QP1, (-2.0, 0.0, -1.0, 1.0))
    assert len(res.roots) == 1
    s, m = res.roots[0]
    assert s == pytest.approx(-1.0, abs=1e-9)
    assert m == 2


def test_roots_in_region_beyond_delay_margin():
    qp = Quasipolynomial(2, G2.l, 3.0)
    res = roots_in_region(qp, (-0.5, 1.0, 0.0, 2.0))
    assert any(s.real > 0 for s, _ in res.roots)


def test_roots_delay_free_quadratic():
    qp0 = Quasipolynomial(2, G2.l, 0.0)
    res = roots_in_region(qp0, (-1.0, 0.5, -1.0, 1.0))
    expected = np.roots([1.0, G2.l[0], G2.l[1]])
    found = sorted((s for s, _ in res.roots), key=lambda z: z.imag)
    for f, e in zip(found, sorted(expected, key=lambda z: z.imag)):
        assert f == pytest.approx(e, abs=1e-9)


def test_rightmost_in_region():
    assert roots_in_region(QP2, (-6.0, 1.0, 0.0, 30.0)).dominant == pytest.approx(
        G2.sigma_star, abs=1e-9
    )
    scaled = scale_gain(G2, 0.25)
    qph = Quasipolynomial(2, scaled.l, 0.25)
    assert roots_in_region(qph, (-12.0, 1.0, 0.0, 40.0)).dominant == pytest.approx(
        G2.sigma_star / 0.25, abs=1e-8
    )


def test_conjugate_symmetry():
    qp = Quasipolynomial(2, G2.l, 2.0)
    res = roots_in_region(qp, (-3.0, 0.5, -8.0, 8.0))
    complex_roots = [s for s, _ in res.roots if abs(s.imag) > 1e-9]
    for s in complex_roots:
        partner = min(complex_roots, key=lambda z: abs(z - s.conjugate()))
        assert partner == pytest.approx(s.conjugate(), abs=1e-9)


def test_argument_principle_consistency_randomized():
    rng = np.random.default_rng(11)
    done = 0
    attempts = 0
    while done < 30 and attempts < 200:
        attempts += 1
        n = int(rng.integers(1, 5))
        gains = rng.standard_normal(n)
        gains[-1] = math.copysign(max(abs(gains[-1]), 0.1), gains[-1])
        delta = float(rng.uniform(0.0, 3.0))
        qp = Quasipolynomial(n, tuple(gains), delta)
        re0 = float(rng.uniform(-3.0, -0.5))
        re1 = re0 + float(rng.uniform(1.0, 3.0))
        im0 = float(rng.uniform(-3.0, 0.0))
        im1 = im0 + float(rng.uniform(1.0, 3.0))
        try:
            res = roots_in_region(qp, (re0, re1, im0, im1))
            inner, _ = count_roots_region(qp, (re0, re1, im0, im1))
        except RootOnContourError:
            continue
        # the region count uses the closed-rectangle convention, so only
        # compare when no root hugs the boundary
        if any(
            min(abs(s.real - re0), abs(s.real - re1), abs(s.imag - im0), abs(s.imag - im1))
            < 1e-6
            for s, _ in res.roots
        ):
            continue
        assert sum(m for _, m in res.roots) == inner
        done += 1
    assert done == 30


def test_scaling_law_of_roots():
    # rescaled gains at the matching delay reproduce the unit-delay
    # spectrum divided by the delay
    base = roots_in_region(QP2, (-4.0, 1.0, 0.0, 10.0))
    for delta in (0.5, 2.0):
        scaled = scale_gain(G2, delta)
        qp = Quasipolynomial(2, scaled.l, delta)
        rect = (-4.0 / delta, 1.0 / delta, 0.0, 10.0 / delta)
        res = roots_in_region(qp, rect)
        assert len(res.roots) == len(base.roots)
        for (s, m), (bs, bm) in zip(res.roots, base.roots):
            assert m == bm
            assert s == pytest.approx(bs / delta, abs=1e-7)


def test_high_frequency_dominance_bound():
    # on the certification boundary the delayed part stays strictly below
    # the polynomial part, so no roots hide beyond the searched strip
    delta = 1.0
    sig = G2.sigma_star
    for im in (200.0, 250.0, 400.0):
        for re in np.linspace(sig, 2.0, 20):
            s = complex(re, im)
            delayed = abs((G2.l[0] * s + G2.l[1]) * cmath.exp(-delta * s))
            assert delayed < abs(s ** 2)


def test_default_certification_rect():
    rect = default_certification_rect(-0.5857, 1.0)
    assert rect[0] == pytest.approx(-8.5857)
    assert rect[1] == 1.0
    assert rect[2] == 0.0
    assert rect[3] == 50.0
    rect_small = default_certification_rect(-0.5, 0.05)
    assert rect_small[3] == pytest.approx(6 * math.pi / 0.1)


def test_conjugate_pair_order_ignores_last_bit_of_real_part():
    from midpredict.spectrum import _sorted_roots

    re, up = -0.75, math.nextafter(-0.75, 1.0)
    for a, b in ((re, up), (up, re)):
        roots = [(complex(0.5, 1.0), 2), (complex(a, 3.0), 1), (complex(-2.0, 0.0), 1),
                 (complex(b, -3.0), 1)]
        assert [s.imag for s, _ in _sorted_roots(roots)] == [0.0, -3.0, 3.0, 1.0]
    # a located spectrum over a window symmetric about the real axis
    roots = roots_in_region(QP2, (-3.0, 1.0, -20.0, 20.0)).roots
    complex_roots = [s for s, _ in roots if s.imag != 0.0]
    assert complex_roots
    for neg, pos in zip(complex_roots[::2], complex_roots[1::2]):
        assert neg.imag < 0 < pos.imag
        assert abs(neg - pos.conjugate()) <= 1e-8 * abs(pos)


def test_count_moment_is_the_sum_of_the_roots_inside():
    # moment / k is the mean of the k roots a counted box holds, to the
    # trapezoid rule's accuracy on the sampled boundary
    for n, delta, scaled in ((1, 1.0, False), (2, 1.0, False), (3, 1.0, False),
                             (2, 0.25, True), (2, 2.0, False), (5, 1.0, False)):
        gain = gain_star(n)
        qp = Quasipolynomial(n, scale_gain(gain, delta).l if scaled else gain.l, delta)
        outer = (-9.0, 1.0, -40.0, 40.0)
        roots = roots_in_region(qp, outer).roots
        for rect in (outer, (-9.0, 1.0, -0.5, 40.0), (-3.0, 1.0, -1.0, 1.0),
                     (-6.0, 0.0, 5.0, 25.0), (-9.0, 1.0, -0.3, 0.3)):
            k, moment = count_roots_region(qp, rect)
            inside = [(s, m) for s, m in roots if _inside(s, rect)]
            assert k == sum(m for _, m in inside)
            if k:
                mean = sum(s * m for s, m in inside) / k
                side = max(rect[1] - rect[0], rect[3] - rect[2])
                assert abs(moment / k - mean) <= 1e-4 * side, (n, delta, rect)


def test_derivative_newton_stays_inside_its_box():
    # unguarded, Newton on D' from 0.3+1.7i walks to Re s near -1.3e4 in
    # three steps, where e^(-delta*s) overflows and _kth_derivs raises
    # ValueError; the guard gives up at the box edge instead
    from midpredict.spectrum import _derivative_newton

    qp = Quasipolynomial(1, gain_star(1).l, 1.0)
    assert _derivative_newton(qp, complex(0.3, 1.7), 1, (0.2, 0.4, 1.6, 1.8)) is None


def test_double_root_in_a_rect_inside_its_zoom_radius():
    # the requested rect is narrower than the cluster box of CLUSTER_RADII
    # radii around the double root at -2, so that box, clipped to the counted
    # box, is the counted box itself, and the root is taken without a further
    # count
    gain = scale_gain(gain_star(1), 0.5)
    qp = Quasipolynomial(1, gain.l, 0.5)
    rect = (-2.0003205017936576, -1.9997269043367547, -0.0001816024483796666,
            0.0003512133370038433)
    assert roots_in_region(qp, rect).roots == ((-2 + 0j, 2),)


@pytest.mark.xfail(strict=True, reason="the sampled sweep misses one turn of the argument "
                   "(ROADMAP item 5: certified counts)")
def test_count_of_a_tall_n7_box_at_delay_2():
    # a 2.4 M-point np.unwrap sweep of this boundary winds 24.0000 times;
    # the sweep counts 23, and roots_in_region over the slightly smaller
    # rect refuses with "half-box count 8 exceeds the box count 7"
    qp = Quasipolynomial(7, scale_gain(gain_star(7), 2.0).l, 2.0)
    rect = (-6.65329925731942, 0.030932465482121235, -26.39082626609756, 27.40339006109552)
    assert count_roots_region(qp, rect)[0] == 24


def _counts_of_roots_in_region(monkeypatch, qp, rect):
    import midpredict.spectrum as spectrum

    calls = []
    count = spectrum.count_roots_region
    monkeypatch.setattr(spectrum, "count_roots_region", lambda *a: calls.append(a) or count(*a))
    roots_in_region(qp, rect)
    monkeypatch.setattr(spectrum, "count_roots_region", count)
    return len(calls)


def test_designed_spectra_take_few_counts(monkeypatch):
    # Newton on D^(k-1) from the moment settles each counted box of k roots,
    # so the (n+1)-fold root costs at most one count, of the small box
    # around it: 9 counts for n = 1..4 at unit delay and 2 for the rescaled
    # n = 2 spectrum at delay 0.25
    for n in range(1, 5):
        gain = gain_star(n)
        qp = Quasipolynomial(n, gain.l, 1.0)
        rect = default_certification_rect(gain.sigma_star, 1.0)
        assert _counts_of_roots_in_region(monkeypatch, qp, rect) <= 9, n
    qp = Quasipolynomial(2, scale_gain(G2, 0.25).l, 0.25)
    rect = default_certification_rect(G2.sigma_star / 0.25, 0.25)
    assert _counts_of_roots_in_region(monkeypatch, qp, rect) <= 2


def _exact_derivative_root(qp, order, s0):
    """The root of D^(order) near s0, with D's float gains and delay taken
    as exact binary values, at 200 bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        gains = [mpmath.mpf(v) for v in qp.l]
        delta = mpmath.mpf(qp.delta)

        def derivative(s):
            tail = 0
            for j in range(order + 1):
                lj = sum(c * math.perm(p, j) * s ** (p - j)
                         for p, c in zip(range(qp.n - 1, j - 1, -1), gains))
                tail += math.comb(order, j) * (-delta) ** (order - j) * lj
            return math.perm(qp.n, order) * s ** (qp.n - order) + tail * mpmath.exp(-delta * s)

        return mpmath.findroot(derivative, mpmath.mpf(s0)), mpmath


@pytest.mark.parametrize("n", range(1, 9))
def test_located_multiple_roots_within_few_ulp(n):
    # each (n+1)-fold root lies within 3 ulp of the exact root of D^(n), and
    # within 2 ulp for the spectra of n = 2 and 3. Float evaluation of D^(n)
    # near its root is exact only to a few ulp, so Newton's last bit there
    # depends on where it starts; the worst case is n = 6 at unit delay,
    # 2.54 ulp (at delay 0.25, Newton hopping 2 ulps to and fro at the noise
    # floor once ended 3.54 ulp away)
    gain = gain_star(n)
    for delta, gains in ((1.0, gain.l), (0.25, scale_gain(gain, 0.25).l)):
        qp = Quasipolynomial(n, gains, delta)
        rect = default_certification_rect(gain.sigma_star / delta, delta)
        (root, mult), = [(s, m) for s, m in roots_in_region(qp, rect).roots if m > 1]
        assert mult == n + 1 and root.imag == 0.0
        exact, mpmath = _exact_derivative_root(qp, n, root.real)
        ulps = (2 if n in (2, 3) else 3) * math.ulp(root.real)
        with mpmath.workprec(200):
            assert abs(mpmath.mpf(root.real) - exact) <= ulps, (n, delta)


def _disagreements(part, gain):
    """Partition intervals whose midpoint count of spectrum roots with
    Re s > 0 differs from margins' exact unstable count, as (delay, spectrum
    count, margins count); a count refused for a root on the contour is
    skipped. The box [0, B] x [-B, B], B = 1.01 max(1, sum |l_k|), holds
    every root with Re s >= 0: there |s|^n <= |L(s)| (Cauchy's bound)."""
    bound = 1.01 * max(1.0, sum(map(abs, gain.l)))
    wrong = []
    for (lo, hi), expected in zip(part.intervals, part.unstable_counts):
        delay = 0.5 * (lo + hi)
        try:
            count, _ = count_roots_region(Quasipolynomial(gain.n, gain.l, delay),
                                          (0.0, bound, -bound, bound))
        except RootOnContourError:
            continue
        if count != expected:
            wrong.append((delay, count, expected))
    return wrong


def test_spectrum_counts_the_unstable_roots_that_margins_proves():
    # two engines, one verdict: a sampled winding number against the exact
    # delay partition, at the middle of every interval of gain_star(1..16)
    checked = 0
    for n in range(1, 17):
        part = stability_partition(n)
        assert _disagreements(part, gain_star(n)) == [], n
        checked += len(part.intervals)
    assert checked == 183


def _random_gains():
    """Gain vectors of n <= 6 with entries +-10^U(-3, 1): the decorator for
    a property that takes one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                      st.floats(-3.0, 1.0))
    gains = st.integers(1, 6).flatmap(
        lambda n: st.lists(entry, min_size=n, max_size=n).map(lambda l: GainVector(l, n)))

    def decorate(check):
        return hypothesis.settings(
            max_examples=16, derandomize=True, deadline=None, database=None,
            suppress_health_check=list(hypothesis.HealthCheck))(hypothesis.given(gains)(check))

    return decorate


@_random_gains()
def test_spectrum_and_margins_agree_on_random_gains(gain):
    import hypothesis

    try:
        part = partition_for_gain(gain, delta_max=20.0)
    except ValueError:
        # a repeated root or a zero Routh pivot: margins gives no verdict
        hypothesis.assume(False)
    assert _disagreements(part, gain) == []

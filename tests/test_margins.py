import math
from fractions import Fraction

import numpy as np
import pytest

from midpredict.margins import (
    _isolate_positive_roots,
    crossing_direction,
    crossing_frequencies,
    crossing_points,
    crossing_polynomial,
    hurwitz_check,
    partition_for_gain,
    stability_partition,
)
from midpredict.polynomials import (
    SQUAREFREE_PRIME,
    RealPolynomial,
    SturmChain,
    unstable_root_count,
)
from midpredict.spectrum import Quasipolynomial, count_roots_region, qp_eval
from midpredict.synthesis import GainVector, delay_free_poly, gain_star

G1 = gain_star(1)
G2 = gain_star(2)


def test_single_dimension_crossing_frequency():
    cs = crossing_frequencies(G1)
    assert cs.frequencies == pytest.approx((math.exp(-1.0),), abs=1e-12)


def test_two_dimensional_crossing_frequency():
    cs = crossing_frequencies(G2)
    l1, l2 = G2.l
    expected = math.sqrt((l1 ** 2 + math.sqrt(l1 ** 4 + 4 * l2 ** 2)) / 2)
    assert len(cs) == 1
    assert cs.frequencies[0] == pytest.approx(expected, abs=1e-12)
    # the crossing equation itself: |L(jw)| = w^n
    w = cs.frequencies[0]
    assert abs(complex(l2, l1 * w)) == pytest.approx(w ** 2, abs=1e-10)


def test_first_crossing_point_n1():
    cs = crossing_frequencies(G1)
    pts = crossing_points(cs, 20.0)
    assert pts[0][0] == pytest.approx(math.e * math.pi / 2.0, abs=1e-10)


def test_first_crossing_point_n2():
    cs = crossing_frequencies(G2)
    pts = crossing_points(cs, 16.0)
    w = cs.frequencies[0]
    expected = math.atan2(G2.l[0] * w, G2.l[1]) / w
    assert pts[0][0] == pytest.approx(expected, abs=1e-12)
    assert pts[0][0] == pytest.approx(2.5236, abs=1e-3)
    # spacing between consecutive points of one frequency
    assert pts[1][0] == pytest.approx(pts[0][0] + 2 * math.pi / w, abs=1e-9)
    assert pts[1][0] == pytest.approx(15.38, abs=2e-2)


def test_crossing_points_vanish_on_delayed_loop():
    for gain in (G1, G2, gain_star(3)):
        cs = crossing_frequencies(gain)
        for delta, w in crossing_points(cs, 25.0):
            qp = Quasipolynomial(gain.n, gain.l, delta)
            scale = max(1.0, max(abs(v) for v in gain.l))
            assert abs(qp_eval(qp, 1j * w)) < 1e-8 * scale


def test_crossing_direction_examples():
    cs2 = crossing_frequencies(G2)
    pts = crossing_points(cs2, 4.0)
    assert crossing_direction(G2, pts[0][1], pts[0][0]) == 1
    cs1 = crossing_frequencies(G1)
    pts1 = crossing_points(cs1, 5.0)
    assert crossing_direction(G1, pts1[0][1], pts1[0][0]) == 1


def test_crossing_direction_matches_root_tracking():
    # finite-difference continuation of the rightmost axis-adjacent root
    gain = gain_star(9)
    cs = crossing_frequencies(gain)
    assert len(cs) == 3
    c = cs.crossings[0]  # largest frequency
    delta_c = crossing_points(CrossingSetOnly(c), 50.0)[0][0]
    step = 1e-4
    root_lo = _root_near(gain, c.frequency, delta_c - step)
    root_hi = _root_near(gain, c.frequency, delta_c + step)
    drift = (root_hi.real - root_lo.real) / (2 * step)
    assert (1 if drift > 0 else -1) == c.direction


def CrossingSetOnly(c):
    from midpredict.margins import CrossingSet

    return CrossingSet(crossings=(c,))


def _root_near(gain, w, delta):
    from midpredict.spectrum import qp_kth_deriv

    qp = Quasipolynomial(gain.n, gain.l, delta)
    s = complex(0.0, w)
    for _ in range(60):
        d = qp_eval(qp, s)
        dp = qp_kth_deriv(qp, s, 1)
        step = d / dp
        s -= step
        if abs(step) < 1e-14:
            break
    return s


def test_partition_n2():
    part = stability_partition(2)
    assert part.crossing_points[0] == 0.0
    assert part.crossing_points[1] == pytest.approx(2.5236, abs=1e-3)
    assert part.unstable_counts[0] == 0
    assert part.unstable_counts[1] == 2
    assert part.stable_intervals[0][0] == 0.0
    assert part.count_at(1.0) == 0


def test_partition_counts_match_winding():
    # the declared count on each interval equals an independent
    # right-half-plane winding count at the interval midpoint
    for n in (1, 2, 3, 9, 23):
        gain = gain_star(n)
        part = stability_partition(n)
        cs = crossing_frequencies(gain)
        radius = max(2.0, 3.0 * max(cs.frequencies), 2.0 + max(abs(v) for v in gain.l))
        for (lo, hi), count in list(zip(part.intervals, part.unstable_counts))[:4]:
            mid = 0.5 * (lo + hi)
            qp = Quasipolynomial(n, gain.l, mid)
            got = count_roots_region(qp, (1e-9, radius, -radius, radius))
            assert got == count, (n, lo, hi)


def test_partition_initial_count_matches_tiny_delay():
    for n in (2, 23):
        gain = gain_star(n)
        part = stability_partition(n)
        cs = crossing_frequencies(gain)
        radius = max(2.0, 3.0 * max(cs.frequencies), 2.0 + max(abs(v) for v in gain.l))
        qp = Quasipolynomial(n, gain.l, 1e-3)
        got = count_roots_region(qp, (1e-9, radius, -radius, radius))
        assert got == part.unstable_counts[0]


def test_partition_delta_one_stable_through_dimension_eight():
    for n in range(1, 9):
        part = stability_partition(n)
        assert part.crossing_points[1] > 1.0
        assert part.count_at(1.0) == 0


def test_partition_n23_second_interval_contains_one():
    part = stability_partition(23)
    assert part.unstable_counts[0] > 0
    stable_idx = [i for i, c in enumerate(part.unstable_counts) if c == 0]
    assert stable_idx and stable_idx[0] == 1
    lo, hi = part.intervals[1]
    assert lo < 1.0 < hi


def test_crossing_frequency_count_bands():
    for n in (1, 4, 8):
        assert len(crossing_frequencies(gain_star(n))) == 1
    for n in (9, 17, 25):
        assert len(crossing_frequencies(gain_star(n))) == 3
    for n in (26, 36, 46):
        assert len(crossing_frequencies(gain_star(n))) == 5


def test_partition_for_custom_gain():
    gain = GainVector((2.0, 1.0), 2)
    part = partition_for_gain(gain, delta_max=3.0)
    # this comparison tuning loses stability near 0.647
    assert part.crossing_points[1] == pytest.approx(0.6474, abs=1e-3)
    assert part.unstable_counts[0] == 0
    assert part.unstable_counts[1] == 2


def test_hurwitz_basics():
    assert hurwitz_check(RealPolynomial((2.0, 4.0, 1.0))) is True
    assert hurwitz_check(RealPolynomial((1.0, -1.0, 1.0))) is False
    with pytest.raises(ValueError):
        hurwitz_check(RealPolynomial((1.0, 2.0, -1.0)))


def test_hurwitz_transition_at_dimension_23():
    assert hurwitz_check(delay_free_poly(gain_star(22))) is True
    assert hurwitz_check(delay_free_poly(gain_star(23))) is False


def test_hurwitz_agrees_with_eigenvalues_randomized():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        roots = rng.uniform(-2.0, 0.5, n)
        coeffs = np.poly(roots)[::-1]
        p = RealPolynomial(tuple(coeffs))
        assert hurwitz_check(p) == (unstable_root_count(p) == 0 and np.all(roots < 0))


def test_exact_unstable_count_beyond_dimension_26():
    # np.roots overcounts from n = 27; the exact Routh count stays at 2
    for n in range(27, 31):
        assert unstable_root_count(delay_free_poly(gain_star(n))) == 2, n
        assert stability_partition(n).count_at(1.0) == 0, n


def test_partition_keeps_its_crossing_set():
    part = stability_partition(9)
    assert part.crossings == crossing_frequencies(gain_star(9))


def test_hurwitz_zero_pivot_is_not_stable():
    # (s + 1)(s**2 + 1): an imaginary-axis pair empties a Routh row
    p = RealPolynomial((1.0, 1.0, 1.0, 1.0))
    assert hurwitz_check(p) is False
    with pytest.raises(ValueError):
        unstable_root_count(p)


def test_crossing_points_rejects_unbounded_delta_max():
    cs = crossing_frequencies(G2)
    # nan and inf run in a child process in the CLI tests, under a timeout
    for bad in (0.0, -1.0, 1e7):
        with pytest.raises(ValueError):
            crossing_points(cs, bad)


def _sturm_isolate(coeffs):
    """The isolation by Sturm bisection of (0, bound], kept as the reference."""
    chain = SturmChain(coeffs)
    v_zero, v_inf = chain.variations(0), chain.variations(math.inf)
    if v_zero == v_inf:
        return []
    bound = max(Fraction(2) * max(abs(c) for c in coeffs) / abs(coeffs[-1]), Fraction(1))
    v_bound = chain.variations(bound)
    assert v_bound == v_inf
    intervals = []
    stack = [(Fraction(0), bound, v_zero, v_bound)]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        k = v_lo - v_hi
        if k == 0:
            continue
        if k == 1 and (hi - lo) < Fraction(1, 1000) * max(1, hi):
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = chain.variations(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return sorted(intervals)


def _fraction_magnitude_squared(gain):
    """|L(j*w)|**2 in x = w**2 by Fraction products of the even and odd parts."""
    n = gain.n
    c = [Fraction(v) for v in reversed(gain.l)]
    a = [c[m] * (-1) ** (m // 2) if m % 2 == 0 else Fraction(0) for m in range(n)]
    b = [c[m] * (-1) ** (m // 2) if m % 2 else Fraction(0) for m in range(n)]
    total = [Fraction(0)] * (2 * n - 1)
    for part in (a, b):
        for i, pi in enumerate(part):
            for j, pj in enumerate(part):
                total[i + j] += pi * pj
    return [total[i] for i in range(0, len(total), 2)]


def test_crossing_polynomial_matches_fraction_products():
    for n in range(1, 47):
        expected = [-v for v in _fraction_magnitude_squared(gain_star(n))] + [Fraction(1)]
        got = crossing_polynomial(gain_star(n))
        assert got == expected, n
        assert all(type(v) is Fraction for v in got)


def test_isolation_matches_sturm_bisection_on_crossing_polynomials():
    # the reference alone takes 0.4 s at n = 46, so n > 30 is sampled
    for n in list(range(1, 31)) + [36, 46]:
        coeffs = crossing_polynomial(gain_star(n))
        assert _isolate_positive_roots(coeffs) == _sturm_isolate(coeffs), n


def _expand(roots, pairs, scale):
    p = [Fraction(scale)]
    factors = [[-r, Fraction(1)] for r in roots]
    factors += [[re * re + im2, -2 * re, Fraction(1)] for re, im2 in pairs]
    for f in factors:
        out = [Fraction(0)] * (len(p) + len(f) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(f):
                out[i + j] += x * y
        p = out
    return p


def test_isolation_matches_sturm_bisection_on_random_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dyadic = st.builds(lambda a, k: Fraction(a, 2 ** k), st.integers(-300, 300),
                       st.integers(0, 8))
    rational = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 60))
    unit = st.builds(lambda a: Fraction(a, 256), st.integers(-256, 256))
    # complex pairs re +- i*sqrt(im2), from 1/2 down to 2**-40 off the axis
    near_axis = st.builds(lambda k: Fraction(1, 4 ** k), st.integers(1, 40))

    @st.composite
    def polys(draw):
        # on the grid, every root lies within 1/degree of 0; then no
        # coefficient outgrows the leading one, the bound is 2, and each
        # dyadic root sits on a bisection midpoint
        on_grid = draw(st.booleans())
        roots = []
        for r in draw(st.lists(unit if on_grid else dyadic | rational, max_size=5)):
            roots += [r] * draw(st.sampled_from((1, 1, 2, 3)))
        pairs = draw(st.lists(st.tuples(unit if on_grid else dyadic, near_axis), max_size=2))
        if not roots and not pairs:
            roots = [Fraction(1)]
        if on_grid:
            shrink = 2 ** ((len(roots) + 2 * len(pairs)).bit_length() + 1)
            roots = [r / shrink for r in roots]
            pairs = [(re / shrink, im2 / shrink ** 2) for re, im2 in pairs]
        coeffs = _expand(roots, pairs, draw(st.sampled_from((1, -3, Fraction(5, 7)))))
        assert not on_grid or max(map(abs, coeffs)) == abs(coeffs[-1])
        return coeffs

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(polys())
    # x**2 - 1/4: the root 1/2 is the midpoint of (0, 1]
    @hypothesis.example([Fraction(-1, 4), Fraction(0), Fraction(1)])
    # (x - 1/2)**2 (x - 3/4)(x**2 + 1/16): repeated midpoint root, a pair
    @hypothesis.example(_expand([Fraction(1, 2)] * 2 + [Fraction(3, 4)], [(0, Fraction(1, 16))], 1))
    # x**5 - x**4 - x**3 - x**2 - x - 43/64 has bound 2 and a root in
    # (1000/512, 1001/512], a leaf only because its width is below hi/1000
    @hypothesis.example([Fraction(-43, 64)] + [Fraction(-1)] * 4 + [Fraction(1)])
    # a pair 2**-20 off the axis next to a simple root
    @hypothesis.example(_expand([Fraction(1, 3)], [(Fraction(5, 16), Fraction(1, 4 ** 20))], 1))
    def check(coeffs):
        assert _isolate_positive_roots(coeffs) == _sturm_isolate(coeffs)

    check()


def test_isolation_takes_exact_route_when_modular_gcd_is_nonconstant(chains_built):
    # (x - 1)(x - 1 - P) is squarefree, but (x - 1)**2 modulo P
    coeffs = [1 + SQUAREFREE_PRIME, -2 - SQUAREFREE_PRIME, 1]
    intervals = _isolate_positive_roots(coeffs)
    assert chains_built == [coeffs]
    assert intervals == _sturm_isolate(coeffs)
    assert [lo < r <= hi for (lo, hi), r in zip(intervals, (1, 1 + SQUAREFREE_PRIME))] == [True] * 2

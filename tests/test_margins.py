import math
from fractions import Fraction

import numpy as np
import pytest

from midpredict import margins
from midpredict.margins import (
    DegenerateCrossingError,
    _crossing_numerators,
    crossing_frequencies,
    crossing_points,
    hurwitz_check,
    partition_for_gain,
    stability_partition,
)
from midpredict.polynomials import (
    SQUAREFREE_PRIME,
    isolate_positive_roots,
    unstable_root_count,
)
from midpredict.spectrum import Quasipolynomial, count_roots_region, qp_eval
from midpredict.synthesis import GainVector, delay_free_poly, gain_star
from oracles import SturmChain

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
    # both designed loops lose stability at their first crossing
    assert [c.direction for c in crossing_frequencies(G2).crossings] == [1]
    assert [c.direction for c in crossing_frequencies(G1).crossings] == [1]


def test_crossing_direction_matches_root_tracking():
    # finite-difference continuation of the root through every crossing
    for n, crossings in ((2, 1), (9, 3), (23, 3), (26, 5)):
        gain = gain_star(n)
        cs = crossing_frequencies(gain)
        assert len(cs) == crossings
        for c in cs.crossings:
            delta_c = crossing_points(CrossingSetOnly(c), 50.0)[0][0]
            step = 1e-4
            root_lo = _root_near(gain, c.frequency, delta_c - step)
            root_hi = _root_near(gain, c.frequency, delta_c + step)
            assert abs(root_lo - 1j * c.frequency) < 1e-3, (n, c)
            assert abs(root_hi - 1j * c.frequency) < 1e-3, (n, c)
            drift = (root_hi.real - root_lo.real) / (2 * step)
            assert (1 if drift > 0 else -1) == c.direction, (n, c)


def test_tangential_touch_is_degenerate():
    # F(x) = x**3 - |3(j w)**2 + 4|**2 = (x - 4)**2 (x - 1): a double root at w = 2
    gain = GainVector((3.0, 0.0, 4.0), 3)
    assert _crossing_numerators(gain) == ([-16, 24, -9, 1], 1)
    with pytest.raises(DegenerateCrossingError):
        crossing_frequencies(gain)
    with pytest.raises(DegenerateCrossingError):
        partition_for_gain(gain, 10.0)


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
    # (2, 1) is the comparison tuning, which loses stability near 0.647; for
    # L = 1, F(x) = x - 1 has its root on an isolating interval's upper end,
    # where F' decides the direction
    for gain, first in ((GainVector((2.0, 1.0), 2), 0.6474), (GainVector((1.0,), 1), math.pi / 2)):
        part = partition_for_gain(gain, delta_max=3.0)
        assert part.crossing_points[1] == pytest.approx(first, abs=1e-3)
        assert part.unstable_counts[:2] == (0, 2)


def test_hurwitz_basics():
    assert hurwitz_check((2.0, 4.0, 1.0)) is True
    assert hurwitz_check((1.0, -1.0, 1.0)) is False
    # refused before the Routh count: not read as a zero pivot, no OverflowError
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            hurwitz_check((bad, 1.0, 1.0))
    with pytest.raises(ValueError):
        hurwitz_check((1.0, 2.0, -1.0))


def test_hurwitz_transition_at_dimension_23():
    assert hurwitz_check(delay_free_poly(gain_star(22))) is True
    assert hurwitz_check(delay_free_poly(gain_star(23))) is False


def test_hurwitz_agrees_with_eigenvalues_randomized():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        roots = rng.uniform(-2.0, 0.5, n)
        coeffs = np.poly(roots)[::-1]
        assert hurwitz_check(tuple(coeffs)) == (unstable_root_count(coeffs) == 0 and np.all(roots < 0))


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
    p = (1.0, 1.0, 1.0, 1.0)
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
        f, den = _crossing_numerators(gain_star(n))
        assert [Fraction(v, den) for v in f] == expected, n
        assert all(type(v) is int for v in f + [den])


def test_isolation_matches_sturm_bisection_on_crossing_polynomials():
    # the reference alone takes 0.4 s at n = 46, so n > 30 is sampled
    for n in list(range(1, 31)) + [36, 46]:
        coeffs = _crossing_numerators(gain_star(n))[0]
        assert isolate_positive_roots(coeffs) == (_sturm_isolate(coeffs), []), n


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _expand(roots, pairs, scale):
    p = [Fraction(scale)]
    factors = [[-r, Fraction(1)] for r in roots]
    factors += [[re * re + im2, -2 * re, Fraction(1)] for re, im2 in pairs]
    for f in factors:
        p = _mul(p, f)
    return p


def _touches(coeffs):
    """The Sturm chain of F**2 + F'**2, whose real roots are the repeated
    roots of F: the repeated-root rule before the isolation reported them,
    kept as the reference."""
    f = [Fraction(c) for c in coeffs]
    df = [k * c for k, c in enumerate(f) if k > 0]
    return SturmChain([u + v for u, v in zip(_mul(f, f), _mul(df, df) + [0, 0])])


def _random_polynomials():
    """Products of rational, dyadic and repeated real roots and of complex
    pairs close to the axis, plus hand-picked edge cases; the decorator for
    a property that takes the ascending coefficients."""
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

    examples = [
        # x**2 - 1/4: the root 1/2 is the midpoint of (0, 1]
        [Fraction(-1, 4), Fraction(0), Fraction(1)],
        # (x - 1/2)**2 (x - 3/4)(x**2 + 1/16): repeated midpoint root, a pair
        _expand([Fraction(1, 2)] * 2 + [Fraction(3, 4)], [(0, Fraction(1, 16))], 1),
        # x**5 - x**4 - x**3 - x**2 - x - 43/64 has bound 2 and a root in
        # (1000/512, 1001/512], a leaf only because its width is below hi/1000
        [Fraction(-43, 64)] + [Fraction(-1)] * 4 + [Fraction(1)],
        # a pair 2**-20 off the axis next to a simple root
        _expand([Fraction(1, 3)], [(Fraction(5, 16), Fraction(1, 4 ** 20))], 1),
        # (x - 2)**3 (x + 1)**2: a triple root above a repeated negative one
        _expand([Fraction(2)] * 3 + [Fraction(-1)] * 2, [], 1),
    ]

    def decorate(check):
        for coeffs in examples:
            check = hypothesis.example(coeffs)(check)
        check = hypothesis.given(polys())(check)
        return hypothesis.settings(
            max_examples=150, derandomize=True, deadline=None, database=None,
            suppress_health_check=list(hypothesis.HealthCheck))(check)

    return decorate


def test_isolation_matches_sturm_bisection_on_random_polynomials():
    @_random_polynomials()
    def check(coeffs):
        assert isolate_positive_roots(coeffs)[0] == _sturm_isolate(coeffs)

    check()


def test_repeated_roots_match_the_sturm_rule_on_random_polynomials():
    # the reference marks the isolating intervals where F**2 + F'**2 has a
    # root; repeated must hold one interval per marked one, around that root
    @_random_polynomials()
    def check(coeffs):
        intervals, repeated = isolate_positive_roots(coeffs)
        touches = _touches(coeffs)
        marked = [(lo, hi) for lo, hi in intervals if touches.count_between(lo, hi)]
        assert len(repeated) == len(marked)
        for (lo, hi), (a, b) in zip(marked, repeated):
            assert touches.count_between(max(lo, a), min(hi, b)) == 1

    check()


def test_crossing_frequencies_decides_squarefreeness_once(monkeypatch):
    from midpredict import margins, polynomials

    calls = []
    original = polynomials.squarefree_part

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(polynomials, "squarefree_part", counted)
    monkeypatch.setattr(margins, "squarefree_part", counted, raising=False)
    crossing_frequencies(gain_star(9))
    assert len(calls) == 1


def test_isolation_takes_exact_route_when_modular_gcd_is_nonconstant(chains_built):
    # (x - 1)(x - 1 - P) is squarefree, but (x - 1)**2 modulo P
    coeffs = [1 + SQUAREFREE_PRIME, -2 - SQUAREFREE_PRIME, 1]
    intervals, repeated = isolate_positive_roots(coeffs)
    assert chains_built == [coeffs]
    assert intervals == _sturm_isolate(coeffs)
    assert repeated == []
    assert [lo < r <= hi for (lo, hi), r in zip(intervals, (1, 1 + SQUAREFREE_PRIME))] == [True] * 2


def test_bisection_fallback_finds_the_crossing_root_to_one_ulp(monkeypatch):
    # at n = 27 a Newton step on the float rounding of F leaves the bracket
    # of F's smallest positive root, and the polish bisects the bracket on
    # F's exact signs instead; float signs had put x = w**2 90 ulps off
    polished = []
    polish = margins._polish_root

    def recording(*args):
        polished.append(polish(*args))
        return polished[-1]

    monkeypatch.setattr(margins, "_polish_root", recording)
    crossing_frequencies(gain_star(27))
    x = polished[0]
    coeffs = _crossing_numerators(gain_star(27))[0]
    lo, hi = isolate_positive_roots(coeffs)[0][0]

    def sign(t):
        value = sum(c * t ** i for i, c in enumerate(coeffs))
        return (value > 0) - (value < 0)

    s_hi = sign(hi)
    while hi - lo > Fraction(math.ulp(x)) / 16:
        mid = (lo + hi) / 2
        if sign(mid) == s_hi:
            hi = mid
        else:
            lo = mid
    assert abs(Fraction(x) - (lo + hi) / 2) <= Fraction(math.ulp(x))

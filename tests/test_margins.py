import math
from fractions import Fraction

import pytest

from midpredict import margins
from midpredict.margins import (
    _crossing_numerators,
    crossing_frequencies,
    Crossing,
    crossing_points,
    partition_for_gain,
    stability_partition,
)
from midpredict.polynomials import isolate_positive_roots, sign_at, unstable_root_count
from midpredict.spectrum import count_roots_region, qp_eval
from midpredict.synthesis import (
    MAX_GAIN_DIMENSION,
    GainVector,
    Quasipolynomial,
    delay_free_poly,
    gain_star,
)
from oracles import SturmChain
from test_polynomials import _refused_node, _value

G1 = gain_star(1)
G2 = gain_star(2)


def test_single_dimension_crossing_frequency():
    cs = crossing_frequencies(G1)
    assert [c.frequency for c in cs] == pytest.approx([math.exp(-1.0)], abs=1e-12)


def test_two_dimensional_crossing_frequency():
    cs = crossing_frequencies(G2)
    l1, l2 = G2.l
    expected = math.sqrt((l1 ** 2 + math.sqrt(l1 ** 4 + 4 * l2 ** 2)) / 2)
    assert len(cs) == 1
    assert cs[0].frequency == pytest.approx(expected, abs=1e-12)
    # the crossing equation itself: |L(jw)| = w^n
    w = cs[0].frequency
    assert abs(complex(l2, l1 * w)) == pytest.approx(w ** 2, abs=1e-10)


def test_first_crossing_point_n1():
    cs = crossing_frequencies(G1)
    pts = crossing_points(cs, 20.0)
    assert pts[0][0] == pytest.approx(math.e * math.pi / 2.0, abs=1e-10)


def test_first_crossing_point_n2():
    cs = crossing_frequencies(G2)
    pts = crossing_points(cs, 16.0)
    w = cs[0].frequency
    expected = math.atan2(G2.l[0] * w, G2.l[1]) / w
    assert pts[0][0] == pytest.approx(expected, abs=1e-12)
    assert pts[0][0] == pytest.approx(2.5236, abs=1e-3)
    # spacing between consecutive points of one frequency
    assert pts[1][0] == pytest.approx(pts[0][0] + 2 * math.pi / w, abs=1e-9)
    assert pts[1][0] == pytest.approx(15.38, abs=2e-2)


def test_crossing_points_vanish_on_delayed_loop():
    for gain in (G1, G2, gain_star(3)):
        cs = crossing_frequencies(gain)
        for delta, c in crossing_points(cs, 25.0):
            qp = Quasipolynomial(gain.n, gain.l, delta)
            scale = max(1.0, max(abs(v) for v in gain.l))
            assert abs(qp_eval(qp, 1j * c.frequency)) < 1e-8 * scale


def test_crossing_direction_examples():
    # both designed loops lose stability at their first crossing
    assert [c.direction for c in crossing_frequencies(G2)] == [1]
    assert [c.direction for c in crossing_frequencies(G1)] == [1]


def test_directions_by_rank_match_the_exact_sign_above_each_root():
    # the rule the rank replaced: F's exact sign at the upper end hi of the
    # root's isolating interval, or F''s sign where the root is hi itself
    for n in range(1, MAX_GAIN_DIMENSION + 1):
        f = _crossing_numerators(gain_star(n))
        df = [k * v for k, v in enumerate(f) if k > 0]
        expected = [
            sign_at(f, hi.numerator, hi.denominator) or sign_at(df, hi.numerator, hi.denominator)
            for _, hi in reversed(isolate_positive_roots(f))
        ]
        assert [c.direction for c in crossing_frequencies(gain_star(n))] == expected, n


def test_coincident_crossing_delays_are_refused(monkeypatch):
    # frequencies w and 2w with arguments t and 2t: the delays (t + 2 pi k)/w
    # and (t + pi m)/w meet at m = 2k, first at k = m = 0
    w, t = 0.7, 0.4
    pair = (Crossing(2 * w, 2 * t, 1), Crossing(w, t, -1))
    monkeypatch.setattr(margins, "crossing_frequencies", lambda gain: pair)
    with pytest.raises(ValueError, match="crossing delays 0.571428.* and 0.571428.* are too "
                       "close to order"):
        partition_for_gain(G2, delta_max=10.0)
    # a first delay near 0 is compared with no delay before it
    alone = (Crossing(1.0, 1e-12, 1),)
    monkeypatch.setattr(margins, "crossing_frequencies", lambda gain: alone)
    part = partition_for_gain(G2, delta_max=1.0)
    assert part.crossing_points == (0.0, 1e-12)
    assert part.unstable_counts == (0, 2)


def test_crossing_direction_matches_root_tracking():
    # finite-difference continuation of the root through every crossing
    for n, crossings in ((2, 1), (9, 3), (23, 3), (26, 5)):
        gain = gain_star(n)
        cs = crossing_frequencies(gain)
        assert len(cs) == crossings
        for c in cs:
            delta_c = crossing_points((c,), 50.0)[0][0]
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
    assert _crossing_numerators(gain) == [-16, 24, -9, 1]
    # the isolation refuses it, naming a node of x = w**2 around 4
    for refused in (lambda: crossing_frequencies(gain), lambda: partition_for_gain(gain, 10.0)):
        with pytest.raises(ValueError, match="repeated root") as refusal:
            refused()
        lo, hi = _refused_node(refusal)
        assert lo <= 4 <= hi


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


def _counts_at(part, delta):
    """The unstable-root counts of the intervals open around delta."""
    return [c for (lo, hi), c in zip(part.intervals, part.unstable_counts) if lo < delta < hi]


def test_partition_n2():
    part = stability_partition(2)
    assert part.crossing_points[0] == 0.0
    assert part.crossing_points[1] == pytest.approx(2.5236, abs=1e-3)
    assert part.unstable_counts[0] == 0
    assert part.unstable_counts[1] == 2
    assert part.intervals[0] == (0.0, part.crossing_points[1])
    assert _counts_at(part, 1.0) == [0]


def test_partition_counts_match_winding():
    # the declared count on each interval equals an independent
    # right-half-plane winding count at the interval midpoint
    for n in (1, 2, 3, 9, 23):
        gain = gain_star(n)
        part = stability_partition(n)
        cs = crossing_frequencies(gain)
        radius = max(2.0, 3.0 * cs[0].frequency, 2.0 + max(abs(v) for v in gain.l))
        for (lo, hi), count in list(zip(part.intervals, part.unstable_counts))[:4]:
            mid = 0.5 * (lo + hi)
            qp = Quasipolynomial(n, gain.l, mid)
            got, _ = count_roots_region(qp, (1e-9, radius, -radius, radius))
            assert got == count, (n, lo, hi)


def test_partition_initial_count_matches_tiny_delay():
    for n in (2, 23):
        gain = gain_star(n)
        part = stability_partition(n)
        cs = crossing_frequencies(gain)
        radius = max(2.0, 3.0 * cs[0].frequency, 2.0 + max(abs(v) for v in gain.l))
        qp = Quasipolynomial(n, gain.l, 1e-3)
        got, _ = count_roots_region(qp, (1e-9, radius, -radius, radius))
        assert got == part.unstable_counts[0]


def test_partition_delta_one_stable_through_dimension_eight():
    for n in range(1, 9):
        part = stability_partition(n)
        assert part.crossing_points[1] > 1.0
        assert _counts_at(part, 1.0) == [0]


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
    # L = 1, F(x) = x - 1 has its root on an isolating interval's upper end
    for gain, first in ((GainVector((2.0, 1.0), 2), 0.6474), (GainVector((1.0,), 1), math.pi / 2)):
        part = partition_for_gain(gain, delta_max=3.0)
        assert part.crossing_points[1] == pytest.approx(first, abs=1e-3)
        assert part.unstable_counts[:2] == (0, 2)


def test_hurwitz_transition_at_dimension_23():
    # the partition starts from the delay-free count, Hurwitz up to n = 22
    assert stability_partition(22).unstable_counts[0] == 0
    assert stability_partition(23).unstable_counts[0] == 2


def test_exact_unstable_count_beyond_dimension_26():
    # np.roots overcounts from n = 27; the exact Routh count stays at 2
    for n in range(27, 31):
        assert unstable_root_count(delay_free_poly(gain_star(n))) == 2, n
        assert _counts_at(stability_partition(n), 1.0) == [0], n


def test_partition_keeps_its_crossing_set():
    part = stability_partition(9)
    assert part.crossings == crossing_frequencies(gain_star(9))


def test_hurwitz_zero_pivot_is_not_stable():
    # (s + 1)(s**2 + 1): an imaginary-axis pair empties a Routh row, and
    # the partition refuses the gain rather than count it stable at delay 0
    p = (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        unstable_root_count(p)
    with pytest.raises(ValueError, match="zero pivot"):
        partition_for_gain(GainVector(p[1:], 3))


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
        f = _crossing_numerators(gain_star(n))
        assert [Fraction(v, f[-1]) for v in f] == expected, n
        assert all(type(v) is int for v in f)


def test_isolation_matches_sturm_bisection_on_crossing_polynomials():
    # the reference alone takes 0.4 s at n = 46, so n > 30 is sampled
    for n in list(range(1, 31)) + [36, 46]:
        coeffs = _crossing_numerators(gain_star(n))
        assert isolate_positive_roots(coeffs) == _sturm_isolate(coeffs), n


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
    # where the isolation returns, it returns the Sturm bisection's intervals
    @_random_polynomials()
    def check(coeffs):
        try:
            intervals = isolate_positive_roots(coeffs)
        except ValueError:
            return
        assert intervals == _sturm_isolate(coeffs)

    check()


def test_repeated_roots_match_the_sturm_rule_on_random_polynomials():
    # the reference marks the isolating intervals where F**2 + F'**2 has a
    # root; the isolation must refuse every polynomial with a marked one
    @_random_polynomials()
    def check(coeffs):
        touches = _touches(coeffs)
        if any(touches.count_between(lo, hi) for lo, hi in _sturm_isolate(coeffs)):
            with pytest.raises(ValueError):
                isolate_positive_roots(coeffs)

    check()


def test_crossing_frequencies_returns_for_every_designed_gain():
    # every root of F is alone on a node with one sign variation, so no
    # crossing polynomial of a designed gain meets the isolation's refusals
    for n in range(1, MAX_GAIN_DIMENSION + 1):
        assert len(crossing_frequencies(gain_star(n))) in (1, 3, 5), n


def test_isolation_of_two_far_simple_roots():
    # (x - 1)(x - 1 - P), P = 2**127 - 1: squarefree, but (x - 1)**2 modulo P
    prime = 2**127 - 1
    coeffs = [1 + prime, -2 - prime, 1]
    intervals = isolate_positive_roots(coeffs)
    assert intervals == _sturm_isolate(coeffs)
    assert [lo < r <= hi for (lo, hi), r in zip(intervals, (1, 1 + prime))] == [True] * 2


def test_isolation_refuses_two_close_simple_roots():
    # (x - r)(x - r - 1e-6)(x - 5), r = 23/14: a node narrower than the leaf
    # width still shows two variations, and Descartes' rule cannot tell the
    # two simple roots it holds from one double root
    r = Fraction(23, 14)
    coeffs = _expand([r, r + Fraction(1, 10**6), 5], [], 1)
    with pytest.raises(ValueError, match="narrower than the leaf width") as refusal:
        isolate_positive_roots(coeffs)
    lo, hi = _refused_node(refusal)
    assert lo < r < r + Fraction(1, 10**6) < hi
    assert len(_sturm_isolate(coeffs)) == 3


def _recorded(monkeypatch, module, name):
    """Run crossing_frequencies on gain_star(1..46), recording (args, result)
    of every call to module.name."""
    gains = [gain_star(n) for n in range(1, MAX_GAIN_DIMENSION + 1)]
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recording)
    for gain in gains:
        crossing_frequencies(gain)
    return calls


def test_every_crossing_root_is_the_nearest_float_inside_its_interval(monkeypatch):
    # F changes sign between the midpoints from x to its two neighbouring
    # floats, so F's one root in (lo, hi] lies within half an ulp of x
    calls = _recorded(monkeypatch, margins, "refine_root")
    assert len(calls) == 164
    for (f, lo, hi, _), x in calls:
        assert type(x) is float and lo < x <= hi, (lo, hi, x)
        below, above = ((Fraction(x) + Fraction(math.nextafter(x, end))) / 2
                        for end in (-math.inf, math.inf))
        assert lo < below and above <= hi, (lo, hi, x)
        assert _value(f, below) * _value(f, above) < 0, (lo, hi, x)


def test_no_crossing_root_costs_more_than_50_exact_signs(monkeypatch):
    # a seed outside the root's interval (lo, hi] bisects the interval at
    # once instead of galloping from a clamped end across about 2**46 floats
    # (8 roots of gain_star(1..46) took 92 to 98 signs that way)
    import midpredict.polynomials as polynomials

    calls = _recorded(monkeypatch, margins, "refine_root")
    signs = []
    sign_at = polynomials.sign_at
    monkeypatch.setattr(polynomials, "sign_at", lambda *args: signs.append(args) or sign_at(*args))
    for args, root in calls:
        signs.clear()
        assert polynomials.refine_root(*args) == root
        assert len(signs) <= 50, (args[1:], len(signs))


def test_newton_seed_ends_well_within_its_budget_on_every_crossing_root(monkeypatch):
    # the same seed from budgets 12 and 13 as from the full budget: Newton
    # stopped within 12 steps rather than hopping between floats
    import midpredict.polynomials as polynomials

    newton_seed = polynomials._newton_seed
    calls = _recorded(monkeypatch, polynomials, "_newton_seed")
    assert len(calls) == 164
    for budget in (12, 13):
        monkeypatch.setattr(polynomials, "ROOT_NEWTON_STEPS", budget)
        for args, seed in calls:
            assert newton_seed(*args) == seed, (budget, args)

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from midpredict.polynomials import (
    _primitive,
    _to_int_poly,
    isolate_positive_roots,
    refine_root,
    rightmost_root,
    sign_at,
    sign_variations,
    taylor_shift,
    unstable_root_count,
)
from midpredict.synthesis import (
    MAX_GAIN_DIMENSION,
    MAX_Q_DIMENSION,
    delay_free_poly,
    gain_star,
    q_coefficients,
)
from oracles import SturmChain, fraction_to_int_poly, sturm_root_certificate


def test_certificate_double_root():
    count, distinct = sturm_root_certificate((1, 2, 1))
    assert count == 1
    assert distinct is False


def test_certificate_complex_pair():
    count, distinct = sturm_root_certificate((1, 0, 1))
    assert count == 0
    assert distinct is True


def test_certificate_does_not_count_a_root_at_zero():
    # x and x (x + 1): the count is of negative roots, so 0 is left out
    assert sturm_root_certificate((0, 1)) == (0, True)
    assert sturm_root_certificate((0, 1, 1)) == (1, True)
    # x**2 (x + 1): not squarefree, and still one negative root
    assert sturm_root_certificate((0, 0, 1, 1)) == (1, False)


def test_certificate_rejects_constant():
    with pytest.raises(ValueError):
        sturm_root_certificate((3, 0))


def test_counting_intervals():
    # roots at 1, 2, 3
    chain = SturmChain((-6, 11, -6, 1))
    assert chain.count_between(0.0, math.inf) == 3
    assert chain.count_between(2.5, math.inf) == 1
    assert chain.count_between(0.5, 2.5) == 2
    assert chain.count_between(-math.inf, 1.5) == 1


def test_rightmost_root_simple():
    assert rightmost_root((-6, 11, -6, 1)) == pytest.approx(3.0, abs=1e-12)


def test_rightmost_root_quadratic_surd():
    assert rightmost_root((2, 4, 1)) == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-13)


def test_rightmost_root_no_real():
    with pytest.raises(ValueError):
        rightmost_root((1, 0, 1))


def test_rightmost_root_random_cross_check():
    rng = np.random.default_rng(7)
    for _ in range(50):
        roots = np.sort(rng.uniform(-3.0, 3.0, rng.integers(1, 6)))
        coeffs = np.poly(roots)[::-1]
        assert rightmost_root(tuple(coeffs)) == pytest.approx(roots[-1], abs=1e-8)


def test_unstable_root_count():
    # roots -1 and +2
    assert unstable_root_count((-2, -1, 1)) == 1
    assert unstable_root_count((2, 3, 1)) == 0
    # (s + 1)(s**2 + 1): the axis pair empties a Routh row, and no count is given
    with pytest.raises(ValueError, match="zero pivot"):
        unstable_root_count((1.0, 1.0, 1.0, 1.0))


def _reference_variations(members, x):
    """Sign changes along the chain by plain Fraction Horner evaluation."""
    signs = []
    for m in members:
        if x == math.inf:
            v = m[-1]
        elif x == -math.inf:
            v = m[-1] * (-1) ** (len(m) - 1)
        else:
            v = Fraction(0)
            for c in reversed(m):
                v = v * x + c
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_sturm_chain_matches_fraction_horner():
    rng = np.random.default_rng(11)
    for _ in range(60):
        # integer polynomial with some rational roots and a random cofactor
        roots = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                 for _ in range(int(rng.integers(1, 4)))]
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [-r * coeffs[0]] + [
                coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))
            ] + [coeffs[-1]]
        cofactor = [int(v) for v in rng.integers(-5, 6, int(rng.integers(1, 4)))] + [1]
        prod = [Fraction(0)] * (len(coeffs) + len(cofactor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(cofactor):
                prod[i + j] += a * b
        chain = SturmChain(prod)
        points = roots + [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
                          for _ in range(6)] + [math.inf, -math.inf, 0]
        for x in points:
            assert chain.variations(x) == _reference_variations(chain.members, x), (prod, x)


def _from_roots(roots):
    p = [Fraction(1)]
    for r in roots:
        p = [-r * p[0]] + [p[i - 1] - r * p[i] for i in range(1, len(p))] + [p[-1]]
    return p


def test_sturm_chain_counts_known_roots():
    # (x + 2)**2 (x - 1/3)(x - 5): distinct roots -2, 1/3, 5
    chain = SturmChain(_from_roots((-2, -2, Fraction(1, 3), 5)))
    assert chain.squarefree is False
    assert chain.count_between(-math.inf, math.inf) == 3
    # (a, b] at the simple roots; the double root is counted once
    assert chain.count_between(0, Fraction(1, 3)) == 1
    assert chain.count_between(Fraction(1, 3), 5) == 1
    assert chain.count_between(-3, 0) == 1
    # endpoints at the double root, where the undivided chain vanishes
    assert chain.count_between(-2, Fraction(1, 3)) == 1
    assert chain.count_between(Fraction(-5, 2), -2) == 1


def test_sturm_chain_endpoints_at_repeated_roots_randomized():
    rng = np.random.default_rng(17)
    for _ in range(40):
        distinct = sorted({Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                           for _ in range(int(rng.integers(1, 4)))})
        roots = [r for r in distinct for _ in range(int(rng.integers(1, 4)))]
        chain = SturmChain(_from_roots(roots))
        points = distinct + [distinct[0] - 1, distinct[-1] + 1]
        for a in points:
            for b in points:
                if a <= b:
                    expected = sum(1 for r in distinct if a < r <= b)
                    assert chain.count_between(a, b) == expected, (roots, a, b)


def test_unstable_root_count_exact_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        real = list(rng.uniform(-2.0, 2.0, int(rng.integers(0, 4))))
        pairs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
                 for _ in range(int(rng.integers(0, 3)))]
        roots = real + pairs + [z.conjugate() for z in pairs]
        if not roots or min(abs(z.real) for z in roots) < 1e-3:
            continue
        coeffs = np.real(np.poly(roots))[::-1]
        expected = sum(1 for z in roots if z.real > 0)
        assert unstable_root_count(tuple(coeffs)) == expected


def test_taylor_shift_matches_binomial_expansion():
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = [int(v) for v in rng.integers(-50, 51, int(rng.integers(1, 9)))]
        for a in (1, -1, 0, 3, -7, 2 ** 70 + 1):
            expected = [
                sum(c * math.comb(i, j) * a ** (i - j) for i, c in enumerate(p) if i >= j)
                for j in range(len(p))
            ]
            assert taylor_shift(p, a) == expected, (p, a)


def test_sign_at_and_sign_variations():
    p = [-6, 11, -6, 1]  # roots 1, 2, 3
    assert sign_variations(p) == 3
    assert sign_variations([0, 1, 0, 0, -2, 0]) == 1
    assert sign_variations([]) == 0
    # power-of-two denominators (a float's) are summed by shifts, others by products
    points = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3, Fraction(7, 2),
              Fraction(2**60 + 1, 2**60), Fraction(-7, 3), Fraction(2**54 + 3, 3 * 2**53),
              Fraction(3**30 - 1, 3**30), Fraction(2 * 3**30 + 1, 3**30)]
    for q in (p, [1, 0, -2**80, 3, 0, 5], [-5 * 2**70 + 1, 2**70 + 1]):
        for x in map(Fraction, points):
            value = sum(c * x ** i for i, c in enumerate(q))
            assert sign_at(q, x.numerator, x.denominator) == (value > 0) - (value < 0), (q, x)


def _refused_node(refusal):
    """The ends (lo, hi] a refusal of isolate_positive_roots names, as floats."""
    lo, hi = re.search(r"\(([^,]+), ([^\]]+)\]", str(refusal.value)).groups()
    return float(lo), float(hi)


P127 = 2**127 - 1


@pytest.mark.parametrize("coeffs, roots, repeated", [
    ([-3, 7, -5, 1], (1, 3), (1,)),  # (x - 1)**2 (x - 3)
    ([-2, -3, 0, 1], (2,), ()),  # (x + 1)**2 (x - 2): the double root is negative
    ([-2, 1, -4, 2, -2, 1], (2,), ()),  # (x**2 + 1)**2 (x - 2): complex double roots
    # (x - 2)**2 (x + 1): the double root is the upper end of the node (0, 2]
    # of the bound-8 tree, where p' vanishes too
    ([4, 0, -3, 1], (2,), (2,)),
    # (x - r)(x - r - 1e-6)(x - 5), r = 23/14: squarefree, but the two roots
    # share a node narrower than the leaf width, where the rule cannot tell
    # them from one double root, so both count as repeated
    (_from_roots((Fraction(23, 14), Fraction(23, 14) + Fraction(1, 10**6), 5)),
     (Fraction(23, 14), Fraction(23, 14) + Fraction(1, 10**6), 5),
     (Fraction(23, 14), Fraction(23, 14) + Fraction(1, 10**6))),
    ([2, -3, 0, 1], (1,), (1,)),  # (x - 1)**2 (x + 2)
    # x (x - P), P = 2**127 - 1: squarefree, but x**2 modulo P
    ([0, -P127, 1], (P127,), ()),
    # P x**2 - 1: squarefree, but its leading coefficient vanishes modulo P
    ([-1, 0, P127], (1 / math.sqrt(P127),), ()),
    ([-2, 1, 1], (1,), ()),  # (x - 1)(x + 2): the root 1 is the upper end of (0, 1]
])
def test_isolation_reports_repeated_positive_roots(coeffs, roots, repeated):
    # a repeated positive root is refused with the node that holds it named;
    # without one, each positive root gets its own interval
    if repeated:
        with pytest.raises(ValueError) as refusal:
            isolate_positive_roots(coeffs)
        lo, hi = _refused_node(refusal)
        assert all(lo <= r <= hi for r in repeated), (lo, hi)
        return
    intervals = isolate_positive_roots(coeffs)
    assert len(intervals) == len(roots)
    assert all(lo < r <= hi for (lo, hi), r in zip(intervals, roots))


def test_root_bound_of_the_isolation_leaves_no_sign_variation_above_it():
    # isolate_positive_roots bisects (0, bound], bound = max(2 max|c| / |c_d|, 1),
    # on the primitive p without checking the bound: every coefficient of
    # p(bound (1 + t)) has one sign, so no root lies at or above it
    rng = np.random.default_rng(3000)
    for _ in range(3000):
        d = int(rng.integers(1, 13))
        p = [int(rng.integers(-9, 10)) * 10 ** int(rng.integers(0, 31)) for _ in range(d + 1)]
        p[-1] = p[-1] or 1
        if rng.integers(2):
            # times (x + r)**2: a repeated root the bound must clear too
            r = int(rng.integers(-20, 21))
            square = (r * r, 2 * r, 1)
            p = [sum(c * square[k - i] for i, c in enumerate(p) if 0 <= k - i <= 2)
                 for k in range(len(p) + 2)]
        bound = max(Fraction(2 * max(abs(c) for c in p), abs(p[-1])), Fraction(1))
        q = _primitive(p)
        bn, bd, deg = bound.numerator, bound.denominator, len(q) - 1
        top = [c * bn ** i * bd ** (deg - i) for i, c in enumerate(q)]
        assert sign_variations(taylor_shift(top)) == 0, p


def test_rightmost_root_refuses_a_double_largest_root():
    # (x - 1)**2 (x + 2): p keeps its sign across the double root 1, so the
    # walk down from the Newton seed near 1 first meets a sign change at -2,
    # above which Descartes' rule sees roots. x**2 is 0 at its seed 0, a root
    # of even multiplicity; (x - 1)**2 never changes sign
    for p in ((2, -3, 0, 1), (0, 0, 1), (1, -2, 1)):
        with pytest.raises(ValueError, match="not certified"):
            rightmost_root(p)
    # p keeps its sign across a largest root of multiplicity 2, whatever the seed
    rng = np.random.default_rng(23)
    for _ in range(200):
        roots = [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
                 for _ in range(int(rng.integers(1, 5)))]
        top = max(roots)
        below = [r for r in roots if r != top]
        with pytest.raises(ValueError):
            rightmost_root(_from_roots(below + [top, top]))


def test_refine_root_never_takes_the_root_at_its_lower_end(monkeypatch):
    # lo is the root below, where the sign is 0, so the walk must never
    # evaluate p there: (2x - 1)(x**2 - 2) on (1/2, 2], and (2x - 1)(2**60 x
    # - 2**59 - 65) on (1/2, 1], whose root above 1/2 lies 65/128 of an ulp
    # from it, so the walk ends next to lo
    import midpredict.polynomials as polynomials

    cases = [([2, -4, -1, 2], 2, math.sqrt(2.0)),
             ([2**59 + 65, -(2**61) - 130, 2**61], 1, math.nextafter(0.5, 1.0))]
    points = []

    def recording(q, num, den):
        points.append(Fraction(num, den))
        return sign_at(q, num, den)

    monkeypatch.setattr(polynomials, "sign_at", recording)
    for p, top, root in cases:
        for lo, hi in ((Fraction(1, 2), Fraction(top)), (0.5, float(top))):
            points.clear()
            assert refine_root(p, lo, hi, 1) == root, (p, lo, hi)
            assert points and all(lo < t <= hi for t in points), (p, lo, hi)
    # 3x + 8 with its root -8/3 as the exact upper end
    assert refine_root([8, 3], Fraction(-3), Fraction(-8, 3), 1) == float(Fraction(-8, 3))
    # (2x - 1)(2**60 x - 2**59 - 1): the root 1/2 + 2**-60 rounds to 0.5, the
    # root below, so the two roots cannot be told apart by their floats
    p = [2**59 + 1, -(2**61) - 2, 2**61]
    with pytest.raises(ValueError, match="two roots round to it"):
        refine_root(p, Fraction(1, 2), Fraction(1), 1)


def _value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def test_rightmost_root_is_correctly_rounded_at_every_design_dimension():
    # q(s) = n! L_n(-s), with L_n the Laguerre polynomial, has real, negative
    # and simple roots. q changes sign between the midpoints from sigma_star
    # to its two neighbouring floats, so a root lies within half an ulp of
    # it, and the Sturm chain sees no root above
    for n in range(1, MAX_Q_DIMENSION + 1):
        q = q_coefficients(n)
        root = rightmost_root(q)
        assert type(root) is float, n
        below, above = ((Fraction(root) + Fraction(math.nextafter(root, end))) / 2
                        for end in (-math.inf, math.inf))
        assert _value(q, below) * _value(q, above) < 0, n
        if n <= 20:
            assert SturmChain(q).count_between(above, math.inf) == 0, n


def test_rightmost_root_refuses_within_its_budget(monkeypatch):
    # at most 64 steps and 64 halvings of the walk, plus the seed's sign and
    # the midpoint's, whether or not a root is found
    import midpredict.polynomials as polynomials

    signs = []

    def counting(p, num, den):
        signs.append(num)
        return sign_at(p, num, den)

    monkeypatch.setattr(polynomials, "sign_at", counting)
    # no real root, (x - 1)**2 (x + 2), x**2, (x - 1)**2 and x**4 + 1
    for p in ((1, 0, 1), (2, -3, 0, 1), (0, 0, 1), (1, -2, 1), (1, 0, 0, 0, 1)):
        signs.clear()
        with pytest.raises(ValueError, match="not certified"):
            rightmost_root(p)
        assert 0 < len(signs) <= 130, p


def test_to_int_poly_equals_fraction_conversion():
    rng = np.random.default_rng(16)
    cases = [q_coefficients(n) for n in range(1, MAX_Q_DIMENSION + 1)]
    for n in range(1, MAX_GAIN_DIMENSION + 1):
        gain = gain_star(n)
        cases += [list(gain.l), delay_free_poly(gain), [gain.sigma_star, 1]]
    for _ in range(200):
        size = int(rng.integers(1, 12))
        floats = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
        floats[rng.random(size) < 0.2] = 0.0
        cases.append(floats.tolist())
        cases.append(list(floats))  # numpy float64 scalars
        cases.append([Fraction(int(a), int(b)) for a, b in rng.integers(-10**6, 10**6, (size, 2))
                      if b])
        cases.append([int(v) for v in rng.integers(-9, 9, size)] + [0] * int(rng.integers(0, 3)))
        cases.append([np.int64(v) for v in rng.integers(-9, 9, size)] + [0.5])
    for coeffs in cases:
        ints = _to_int_poly(coeffs)
        assert ints == fraction_to_int_poly(coeffs), coeffs
        assert all(type(c) is int for c in ints)

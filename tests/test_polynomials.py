import math
from fractions import Fraction

import numpy as np
import pytest

from midpredict.polynomials import (
    SQUAREFREE_PRIME,
    _primitive,
    _to_int_poly,
    bisect_root,
    isolate_positive_roots,
    rightmost_root,
    sign_at,
    sign_variations,
    squarefree_part,
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
from oracles import SturmChain, sturm_root_certificate


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
    for x in (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3, Fraction(7, 2)):
        x = Fraction(x)
        value = sum(c * x ** i for i, c in enumerate(p))
        assert sign_at(p, x.numerator, x.denominator) == (value > 0) - (value < 0)


def test_squarefree_part_certifies_modulo_the_prime(chains_built):
    p = [-2, 1, 1]  # (x - 1)(x + 2)
    assert squarefree_part(p) is p
    assert chains_built == []


@pytest.mark.parametrize("p, part", [
    # (x - 1)**2 (x + 2): repeated root, exact squarefree part (x - 1)(x + 2)
    ([2, -3, 0, 1], [-2, 1, 1]),
    # x (x - P): squarefree, but x**2 modulo P
    ([0, -SQUAREFREE_PRIME, 1], [0, -SQUAREFREE_PRIME, 1]),
    # P x**2 - 1: squarefree, but its leading coefficient vanishes modulo P
    ([-1, 0, SQUAREFREE_PRIME], [-1, 0, SQUAREFREE_PRIME]),
])
def test_squarefree_part_takes_exact_route_without_certificate(chains_built, p, part):
    assert squarefree_part(p) == part
    assert chains_built == [p]


@pytest.mark.parametrize("coeffs, roots, repeated", [
    ([-3, 7, -5, 1], (1, 3), (1,)),  # (x - 1)**2 (x - 3)
    ([-2, -3, 0, 1], (2,), ()),  # (x + 1)**2 (x - 2): the double root is negative
    ([-2, 1, -4, 2, -2, 1], (2,), ()),  # (x**2 + 1)**2 (x - 2): complex double roots
])
def test_isolation_reports_repeated_positive_roots(coeffs, roots, repeated):
    intervals, touching = isolate_positive_roots(coeffs)
    for found, expected in ((intervals, roots), (touching, repeated)):
        assert len(found) == len(expected)
        assert all(lo < r <= hi for (lo, hi), r in zip(found, expected))


def test_root_bound_of_the_isolation_leaves_no_sign_variation_above_it():
    # isolate_positive_roots bisects (0, bound], bound = max(2 max|c| / |c_d|, 1),
    # on the squarefree part q of p without checking the bound: every
    # coefficient of q(bound (1 + t)) has one sign, so no root lies at or above it
    rng = np.random.default_rng(3000)
    for _ in range(3000):
        d = int(rng.integers(1, 13))
        p = [int(rng.integers(-9, 10)) * 10 ** int(rng.integers(0, 31)) for _ in range(d + 1)]
        p[-1] = p[-1] or 1
        if rng.integers(2):
            # times (x + r)**2, so that q is a proper divisor of p
            r = int(rng.integers(-20, 21))
            square = (r * r, 2 * r, 1)
            p = [sum(c * square[k - i] for i, c in enumerate(p) if 0 <= k - i <= 2)
                 for k in range(len(p) + 2)]
        bound = max(Fraction(2 * max(abs(c) for c in p), abs(p[-1])), Fraction(1))
        q = squarefree_part(_primitive(p))
        bn, bd, deg = bound.numerator, bound.denominator, len(q) - 1
        top = [c * bn ** i * bd ** (deg - i) for i, c in enumerate(q)]
        assert sign_variations(taylor_shift(top)) == 0, p


def test_rightmost_root_simple_root_builds_no_sturm_chain(chains_built, squarefree_parts_taken):
    assert rightmost_root((-6, 11, -6, 1)) == pytest.approx(3.0, abs=1e-12)
    assert chains_built == []
    assert squarefree_parts_taken == []


def test_rightmost_root_double_root_falls_back_to_bisection(chains_built, squarefree_parts_taken):
    # (x - 1)**2 (x + 2): no sign change at the rightmost root, so the
    # companion seed 1.0000000155... is refused and the exact bisection of
    # the squarefree part gives 1.0
    p = (2, -3, 0, 1)
    assert rightmost_root(p) == 1.0
    assert chains_built == [list(p)]
    assert squarefree_parts_taken[0] == list(p)
    # x**2 and (x - 1)**2, where a bisection on Sturm counts had returned
    # -4.4e-16 and 0.9999999999999996
    assert rightmost_root((0, 0, 1)) == 0.0
    assert rightmost_root((1, -2, 1)) == 1.0
    # a double largest root, so the seed is always refused
    rng = np.random.default_rng(23)
    for _ in range(200):
        roots = [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13)))
                 for _ in range(int(rng.integers(1, 5)))]
        top = max(roots)
        x = rightmost_root(_from_roots(roots + [top]))
        assert abs(Fraction(x) - top) <= Fraction(math.ulp(float(top))), (roots, x)


def test_bisect_root_decides_against_the_upper_end():
    # (2x - 1)(x**2 - 2) on (1/2, 2]: lo is the root below, where the sign
    # is 0, so only the sign at hi can decide the halvings
    p = [2, -4, -1, 2]
    for lo, hi in ((Fraction(1, 2), Fraction(2)), (0.5, 2.0)):
        x = bisect_root(p, lo, hi)
        assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0)), (lo, hi, x)
    # 3x + 8 with its root -8/3 as the exact upper end
    assert bisect_root([8, 3], Fraction(-3), Fraction(-8, 3)) == float(Fraction(-8, 3))


def test_rightmost_root_certifies_every_design_seed(chains_built, squarefree_parts_taken):
    # q(s) = n! L_n(-s), with L_n the Laguerre polynomial, has real, negative
    # and simple roots, so its largest companion eigenvalue passes the exact
    # test at every n and the exact fallback never runs
    for n in range(1, MAX_Q_DIMENSION + 1):
        assert rightmost_root(q_coefficients(n)) < 0
    assert chains_built == []
    assert squarefree_parts_taken == []


def _fraction_to_int_poly(coeffs):
    """The conversion through Fraction that _to_int_poly must reproduce."""
    fracs = [Fraction(c) for c in coeffs]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return ints


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
        assert ints == _fraction_to_int_poly(coeffs), coeffs
        assert all(type(c) is int for c in ints)

import math
from fractions import Fraction

import numpy as np
import pytest

from midpredict.polynomials import (
    SQUAREFREE_PRIME,
    RealPolynomial,
    SturmChain,
    count_real_roots_above,
    count_real_roots_between,
    rightmost_root,
    sign_at,
    sign_variations,
    squarefree_part,
    sturm_root_certificate,
    taylor_shift,
    unstable_root_count,
)


def test_trim_and_degree():
    p = RealPolynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.coeffs == (1.0, 2.0)


def test_evaluation_horner():
    p = RealPolynomial((2.0, 4.0, 1.0))  # 2 + 4s + s^2
    assert p(0.0) == 2.0
    assert p(1.0) == 7.0
    assert p(1j) == pytest.approx(1.0 + 4.0j)


def test_derivative():
    p = RealPolynomial((2.0, 4.0, 1.0))
    assert p.derivative().coeffs == (4.0, 2.0)


def test_certificate_double_root():
    count, distinct = sturm_root_certificate(RealPolynomial((1.0, 2.0, 1.0)))
    assert count == 1
    assert distinct is False


def test_certificate_complex_pair():
    count, distinct = sturm_root_certificate(RealPolynomial((1.0, 0.0, 1.0)))
    assert count == 0
    assert distinct is True


def test_certificate_rejects_constant():
    with pytest.raises(ValueError):
        sturm_root_certificate(RealPolynomial((3.0,)))


def test_counting_intervals():
    # roots at 1, 2, 3
    p = RealPolynomial((-6.0, 11.0, -6.0, 1.0))
    assert count_real_roots_above(p, 0.0) == 3
    assert count_real_roots_above(p, 2.5) == 1
    assert count_real_roots_between(p, 0.5, 2.5) == 2


def test_rightmost_root_simple():
    p = RealPolynomial((-6.0, 11.0, -6.0, 1.0))
    assert rightmost_root(p) == pytest.approx(3.0, abs=1e-12)


def test_rightmost_root_quadratic_surd():
    p = RealPolynomial((2.0, 4.0, 1.0))
    assert rightmost_root(p) == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-13)


def test_rightmost_root_no_real():
    with pytest.raises(ValueError):
        rightmost_root(RealPolynomial((1.0, 0.0, 1.0)))


def test_rightmost_root_random_cross_check():
    rng = np.random.default_rng(7)
    for _ in range(50):
        roots = np.sort(rng.uniform(-3.0, 3.0, rng.integers(1, 6)))
        coeffs = np.poly(roots)[::-1]
        p = RealPolynomial(tuple(coeffs))
        assert rightmost_root(p) == pytest.approx(roots[-1], abs=1e-8)


def test_unstable_root_count():
    # roots -1 and +2
    p = RealPolynomial((-2.0, -1.0, 1.0))
    assert unstable_root_count(p) == 1
    stable = RealPolynomial((2.0, 3.0, 1.0))
    assert unstable_root_count(stable) == 0


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
        assert unstable_root_count(RealPolynomial(tuple(coeffs))) == expected


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


def test_rightmost_root_simple_root_builds_no_sturm_chain(chains_built):
    assert rightmost_root(RealPolynomial((-6.0, 11.0, -6.0, 1.0))) == pytest.approx(3.0, abs=1e-12)
    assert chains_built == []


def test_rightmost_root_double_root_falls_back_to_bisection(chains_built):
    # (x - 1)**2 (x + 2): no sign change at the rightmost root, so the Newton
    # candidate 1.0000000155... is refused and the Sturm bisection gives 1.0
    p = RealPolynomial((2.0, -3.0, 0.0, 1.0))
    assert rightmost_root(p) == 1.0
    assert chains_built == [list(p.coeffs)]

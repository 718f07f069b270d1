import math

import numpy as np
import pytest

from midpredict.gainmargin import design_chain
from midpredict.synthesis import GainVector
from midpredict.tradeoff import (
    ahmed_conditions,
    closed_loop_matrix,
    lei_conditions,
    lyapunov_solve,
)
from oracles import ahmed_necessary

COMPARISON_GAIN = GainVector((2.0, 1.0), 2)


def test_lyapunov_scalar():
    p = lyapunov_solve(GainVector((2.0,), 1))
    assert p[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_lyapunov_comparison_gain():
    m = closed_loop_matrix(COMPARISON_GAIN)
    assert np.allclose(sorted(np.linalg.eigvals(m).real), [-1.0, -1.0])
    p = lyapunov_solve(COMPARISON_GAIN)
    residual = np.linalg.norm(p @ m + m.T @ p + np.eye(2))
    assert residual <= 1e-12
    assert np.min(np.linalg.eigvalsh(p)) > 0


def test_lyapunov_residual_gate_is_relative_to_the_right_hand_side(monkeypatch):
    from midpredict import tradeoff
    from midpredict.synthesis import gain_star

    # |P| grows to 9e12 at n = 8 and the residual with it, to 2.3e-10; an
    # absolute limit of 1e-10 refused that solve
    for n in range(8, 12):
        lyapunov_solve(gain_star(n))
    for n in range(1, 8):
        gain = gain_star(n)
        direct = tradeoff._kronecker_lyapunov(closed_loop_matrix(gain))
        assert lyapunov_solve(gain).tobytes() == direct.tobytes(), n
    # at n = 13 the solve misses -I by a residual of 1 and
    # P(A-LC) + (A-LC)'P is indefinite, though that is 1e-26 of |P|
    with pytest.raises(RuntimeError, match="Lyapunov residual"):
        lyapunov_solve(gain_star(13))

    # a solve 1e-5 too large misses -I by 1e-5 |I|, however large P is
    def off(m, solve=tradeoff._kronecker_lyapunov):
        return solve(m) * (1 + 1e-5)

    monkeypatch.setattr(tradeoff, "_kronecker_lyapunov", off)
    with pytest.raises(RuntimeError, match="Lyapunov residual"):
        lyapunov_solve(gain_star(8))


def test_lyapunov_rejects_unstable():
    with pytest.raises(ValueError):
        lyapunov_solve(GainVector((-1.0, 1.0), 2))


def test_lyapunov_residual_randomized():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        n = int(rng.integers(1, 6))
        roots = rng.uniform(-3.0, -0.05, n)
        coeffs = np.poly(roots)  # descending, monic
        gains = tuple(coeffs[1:])
        if abs(gains[-1]) < 1e-6:
            continue
        gain = GainVector(gains, n)
        p = lyapunov_solve(gain)
        m = closed_loop_matrix(gain)
        assert np.linalg.norm(p @ m + m.T @ p + np.eye(n)) <= 1e-10
        checked += 1


def test_ahmed_not_satisfied_at_benchmark():
    verdict = ahmed_conditions(COMPARISON_GAIN, 2.0, 0.25, 1.1)
    assert verdict.satisfied is False
    assert all(math.isfinite(v) for v in verdict.details.values())


def test_ahmed_satisfied_tiny_delay_no_nonlinearity():
    # the decay inequality needs the scalar gain above twice the squared
    # closed-loop norm, about 11.7 for these gains
    verdict = ahmed_conditions(COMPARISON_GAIN, 15.0, 1e-4, 0.0)
    assert verdict.satisfied is True
    assert all(v > 0 for v in verdict.details.values())


def test_ahmed_necessary_values():
    assert 1.0 / (4.0 * math.sqrt(2.0) * 2.0) == pytest.approx(0.0884, abs=1e-4)
    assert ahmed_necessary(2, 0.05, 1.0) is True
    for lam in np.logspace(-2, 3, 40):
        assert ahmed_necessary(2, 0.25, float(lam)) is False
    with pytest.raises(ValueError):
        ahmed_necessary(1, 0.1, 1.0)


def test_ahmed_conditions_imply_necessary():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        roots = rng.uniform(-2.0, -0.1, n)
        gain = GainVector(tuple(np.poly(roots)[1:]), n)
        lam = float(10 ** rng.uniform(-1, 2))
        h = float(10 ** rng.uniform(-5, 0))
        gamma_phi = float(rng.uniform(0, 2))
        verdict = ahmed_conditions(gain, lam, h, gamma_phi)
        if verdict.satisfied:
            assert ahmed_necessary(n, h, lam) is True


def test_lei_sigma_floor():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        roots = rng.uniform(-2.0, -0.1, n)
        gain = GainVector(tuple(np.poly(roots)[1:]), n)
        verdict = lei_conditions(gain, 1.0, 0.01)
        assert verdict.derived["sigma"] >= 8.0


def test_lei_not_satisfied_at_benchmark():
    verdict = lei_conditions(COMPARISON_GAIN, 2.0, 0.25)
    assert verdict.satisfied is False
    assert verdict.derived["sigma"] * 0.25 * 2.0 >= 4.0


def test_lei_necessary_bound():
    # sigma >= 8 makes h*lam > 1/8 impossible for any gain
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        roots = rng.uniform(-2.0, -0.1, n)
        gain = GainVector(tuple(np.poly(roots)[1:]), n)
        h = float(rng.uniform(0.01, 1.0))
        lam = (1.0 / 8.0) / h * float(rng.uniform(1.001, 10.0))
        assert lei_conditions(gain, lam, h).satisfied is False


@pytest.mark.parametrize("condition", [
    lambda: ahmed_conditions(COMPARISON_GAIN, 2.0, 0.25, 1.1),
    lambda: lei_conditions(COMPARISON_GAIN, 2.0, 0.25),
])
def test_each_condition_counts_roots_and_solves_lyapunov_once(monkeypatch, condition):
    import midpredict.margins as margins
    import midpredict.tradeoff as tradeoff

    calls = []
    for owner, name in ((margins, "unstable_root_count"), (tradeoff, "_kronecker_lyapunov")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    condition()
    assert sorted(calls) == ["_kronecker_lyapunov", "unstable_root_count"]


def test_matrix_norms_values():
    norms = lei_conditions(COMPARISON_GAIN, 2.0, 0.25).derived
    assert norms["L"] == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert norms["LC"] == pytest.approx(norms["L"], abs=1e-12)
    assert norms["A_minus_LC"] >= max(norms["L"], 1.0)


def test_closed_loop_norm_floor_randomized():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        gains = rng.standard_normal(n)
        gains[-1] = math.copysign(max(abs(gains[-1]), 0.1), gains[-1])
        gain = GainVector(tuple(gains), n)
        m = closed_loop_matrix(gain)
        assert np.linalg.norm(m, 2) >= max(np.linalg.norm(gains), 1.0) - 1e-12


def test_contrast_with_cascade_rule():
    # with no nonlinearity the cascade sizing accepts a unit normalized
    # delay for every physical delay, while both published screens reject
    # all but small ones
    for h in (0.25, 0.5, 1.0, 2.0):
        chain = design_chain(2, 0.0, h, 0.05)
        assert chain.lam * h / chain.N == pytest.approx(1.0, abs=1e-12)
        if h > 0.1768 / 2:
            assert ahmed_necessary(2, h, chain.lam) is False
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = float(rng.uniform(0.2, 2.0))
        lam = 1.0 / h
        if h * lam > 1.0 / 8.0:
            verdict = lei_conditions(COMPARISON_GAIN, lam, h)
            assert verdict.satisfied is False

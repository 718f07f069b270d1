"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line when it holds (run with -s to see them inline). Stated
runtime ceilings are asserted too.
"""

import math
import time

import numpy as np
import pytest

from midpredict.cli import dispatch
from midpredict.gainmargin import (
    design_chain,
    max_gain_margin,
    verify_certificate,
)
from midpredict.margins import (
    crossing_frequencies,
    crossing_points,
    hurwitz_check,
    stability_partition,
)
from midpredict.model import demo_system, make_system
from midpredict.simulate import SimConfig, integrate, run_demo_variant
from midpredict.spectrum import Quasipolynomial, count_roots_region, qp_eval, roots_in_region
from midpredict.synthesis import (
    delay_free_poly,
    gain_star,
    multiplicity_at,
    q_coefficients,
)
from oracles import (
    canonical_weights,
    dilate,
    fit_decay_rate,
    gain_from_derivative_system,
    rk_terms,
    shift_map,
)

SIGMA_2 = -2.0 + math.sqrt(2.0)


def _report(k, name):
    print("criterion %d (%s): PASS" % (k, name))


def test_criterion_01_gain_reproduction(tmp_path, capsys):
    t0 = time.time()
    out_file = tmp_path / "gains.kv"
    rc = dispatch(
        ["--outdir", str(tmp_path), "synth", "--n", "2", "--out", str(out_file)]
    )
    elapsed = time.time() - t0
    capsys.readouterr()
    assert rc == 0
    values = {}
    for line in out_file.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            values[key.strip()] = float(val)
    assert values["sigma_star"] == pytest.approx(SIGMA_2, abs=1e-12)
    assert ("%.4g" % values["l1_star"]) == "0.4612"
    assert ("%.4g" % values["l2_star"]) == "0.07912"
    assert values["l1_star"] == pytest.approx(0.4612, abs=5e-5)
    assert values["l2_star"] == pytest.approx(0.0791, abs=5e-5)
    assert elapsed < 1.0
    _report(1, "gain reproduction")


def test_criterion_02_multiplicity_and_dominance():
    t0 = time.time()
    gain = gain_star(2)
    assert multiplicity_at(gain, 1.0, gain.sigma_star) == 3
    qp = Quasipolynomial(2, gain.l, 1.0)
    result = roots_in_region(qp, (gain.sigma_star, 2.0, 0.0, 200.0))
    assert result.roots, "the designed root itself must be found"
    for s, m in result.roots:
        assert s.real <= gain.sigma_star + 1e-9
    only = result.roots[0]
    assert only[0] == pytest.approx(gain.sigma_star, abs=1e-9)
    assert only[1] == 3
    # reinforcement: the full strip around the axis holds exactly the
    # designed triple root and nothing further right
    assert count_roots_region(qp, (gain.sigma_star - 0.05, 2.0, -200.0, 200.0)) == 3
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, "multiplicity certificate and dominance")


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    for n in range(1, 13):
        closed = gain_star(n)
        solved = gain_from_derivative_system(n)
        for a, b in zip(closed.l, solved.l):
            assert abs(a - b) <= 1e-9 * max(abs(b), 1e-300), n
    assert time.time() - t0 < 5.0
    _report(3, "closed form matches derivative-system solve")


def test_criterion_04_exact_polynomial_identity():
    for n in range(1, 21):
        coeffs = [0] * (n + 1)
        for s_pow, d_pow, coef in rk_terms(n, n):
            assert s_pow == d_pow
            coeffs[s_pow] += coef
        assert coeffs == q_coefficients(n)
    _report(4, "derivative polynomial reduces to q exactly")


def test_criterion_05_delay_margins():
    t0 = time.time()
    # first stable interval for the two-dimensional design
    part2 = stability_partition(2)
    delta1 = part2.crossing_points[1]
    assert delta1 == pytest.approx(2.5236, abs=1e-3)
    assert part2.unstable_counts[0] == 0
    cs2 = crossing_frequencies(gain_star(2))
    w_c = cs2.frequencies[0]
    qp = Quasipolynomial(2, gain_star(2).l, delta1)
    assert abs(qp_eval(qp, 1j * w_c)) < 1e-8
    # margin exceeds the design point for every certified dimension
    for n in range(1, 9):
        assert stability_partition(n).crossing_points[1] > 1.0
    # crossing-frequency population by dimension band
    for n in range(1, 47):
        count = len(crossing_frequencies(gain_star(n)))
        expected = 1 if n <= 8 else 3 if n <= 25 else 5
        assert count == expected, n
    # zero-delay loop loses stability exactly at dimension 23
    for n in range(1, 23):
        assert hurwitz_check(delay_free_poly(gain_star(n))), n
    assert not hurwitz_check(delay_free_poly(gain_star(23)))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(5, "delay margins and crossing structure")


def test_criterion_06_gain_margin_bracket():
    t0 = time.time()
    lowers = {}
    for n in range(1, 7):
        tol = None if n == 2 else 0.2 * gain_star(n).l[-1]
        bracket = max_gain_margin(n, tol=tol)
        lowers[n] = bracket.lower
        assert bracket.upper == gain_star(n).l[-1], n
        assert bracket.lower <= bracket.upper
        if bracket.certificate is not None:
            assert verify_certificate(
                n, gain_star(n), 1.0, bracket.lower, bracket.certificate, bracket.eps
            ), n
    assert lowers[2] >= 0.057 and lowers[2] <= 0.0791
    for n in range(1, 6):
        assert lowers[n + 1] <= lowers[n] + 1e-15, (n, lowers)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, "gain-margin bracket and monotone lower bounds")


def test_criterion_07_chain_design():
    chain = design_chain(2, 1.1, 0.25, 0.0673)
    # the reference threshold value was printed from an unrounded margin;
    # with the rounded margin fed back in, agreement is relative
    assert abs(chain.lambda_star - 16.3556) <= 1e-3 * 16.3556
    assert chain.N == 5
    assert chain.lam == pytest.approx(20.0, abs=1e-12)
    _report(7, "cascade sizing numbers")


def test_criterion_08_simulation_reproduction():
    t0 = time.time()
    # (a) all three tunings converge at the design delay
    for variant in ("ahmed", "ours_N1", "ours_N5"):
        trace = run_demo_variant(variant, 0.25, t_end=60.0)
        assert not trace.divergent, variant
        errs = trace.e_pred[np.isfinite(trace.e_pred)]
        ts = trace.times[np.isfinite(trace.e_pred)]
        assert np.any((errs < 1e-3) & (ts < 60.0)), variant
    # (b) doubling the delay breaks the comparison tuning only
    assert run_demo_variant("ahmed", 0.5, t_end=60.0).divergent
    for variant in ("ours_N1", "ours_N5"):
        trace = run_demo_variant(variant, 0.5, t_end=60.0)
        assert not trace.divergent, variant
        errs = trace.e_pred[np.isfinite(trace.e_pred)]
        assert errs[-1] < 1e-3, variant
    # (c) linear loop decays at the dominant-root rate
    gain = gain_star(2)
    cfg = SimConfig(
        system=make_system(2, ["0", "0"], [0.0, 0.0], 0.25, "0"),
        gain=gain,
        lam=4.0,
        N=1,
        t_end=140.0,
        x0=(0.0, 0.0),
        predictor_history=((1.0, 1.0),),
    )
    rate = fit_decay_rate(integrate(cfg), (100.0, 140.0))
    target = gain.sigma_star / 0.25
    assert abs(rate - target) <= 0.05 * abs(target)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, "simulation behavior across tunings")


def test_criterion_09_homogeneity_suite():
    rng = np.random.default_rng(20260809)
    # dilation group law
    for _ in range(200):
        n = int(rng.integers(1, 7))
        r = rng.uniform(0.2, 3.0, n)
        x = rng.standard_normal(n)
        lam, mu = rng.uniform(0.2, 5.0, 2)
        left = dilate(r, mu, dilate(r, lam, x))
        right = dilate(r, mu * lam, x)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-300)
    # shift map commutation at canonical weights
    for _ in range(200):
        n = int(rng.integers(1, 8))
        r = canonical_weights(n)
        x = rng.standard_normal(n)
        lam = rng.uniform(0.1, 10.0)
        left = shift_map(dilate(r, lam, x))
        right = lam * dilate(r, lam, shift_map(x))
        assert np.allclose(left, right, rtol=1e-12, atol=1e-250)
    # trajectory equivalence under dilation and time rescale
    for _ in range(200):
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(1.3, 8.0))
        h = float(rng.uniform(0.1, 0.6))
        hist = tuple(rng.standard_normal(n))
        steps = 24
        weights = lam ** -np.arange(1, n + 1)
        common = dict(gain=gain_star(n), N=1,
                      x0=tuple(0.0 for _ in range(n)))
        tr_a = integrate(SimConfig(
            system=make_system(n, ["0"] * n, [0.0] * n, h, "0"),
            lam=lam, t_end=2.5 * h, dt=h / steps,
            predictor_history=(hist,), **common))
        tr_b = integrate(SimConfig(
            system=make_system(n, ["0"] * n, [0.0] * n, lam * h, "0"),
            lam=1.0, t_end=2.5 * lam * h, dt=lam * h / steps,
            predictor_history=(tuple(np.asarray(hist) * weights),), **common))
        xa = tr_a.xhat[:, 0, :] * weights[None, :]
        xb = tr_b.xhat[: len(xa), 0, :]
        scale = max(np.max(np.abs(xb)), 1e-30)
        assert np.max(np.abs(xa - xb)) <= 1e-6 * scale
    # dilated Lipschitz bound on the bundled benchmark
    system = demo_system()
    r2 = canonical_weights(2)
    for _ in range(200):
        x = rng.uniform(-5.0, 5.0, 2)
        e = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 2)
        lam = rng.uniform(1.0, 100.0)
        u = rng.uniform(-0.1, 0.1)
        diff = system.phi_value(x + dilate(r2, lam, e), u) - system.phi_value(x, u)
        val = np.linalg.norm(dilate(r2, 1.0 / lam, diff))
        assert val <= 1.1 * np.linalg.norm(e) * (1.0 + 1e-9)
    _report(9, "homogeneity property suite, 200 cases each")


def test_criterion_10_tradeoff_contrast():
    from midpredict.synthesis import GainVector
    from midpredict.tradeoff import ahmed_conditions, lei_conditions

    from oracles import ahmed_necessary

    benchmark_gain = GainVector((2.0, 1.0), 2)
    verdict = ahmed_conditions(benchmark_gain, 2.0, 0.25, 1.1)
    assert verdict.satisfied is False
    for lam in np.logspace(-2, 3, 60):
        assert ahmed_necessary(2, 0.25, float(lam)) is False
    # second recipe cannot hold once the delay-gain product passes 1/8
    rng = np.random.default_rng(3)
    for _ in range(25):
        h = float(rng.uniform(0.05, 2.0))
        lam = (1.0 / 8.0) / h * float(10 ** rng.uniform(0.001, 2.0))
        assert lei_conditions(benchmark_gain, lam, h).satisfied is False
    # the cascade rule runs every stage at unit normalized delay for any h
    for h in (0.25, 0.5, 1.0, 2.0):
        chain = design_chain(2, 0.0, h, 0.05)
        assert chain.lambda_star == 1.0
        assert chain.lam * h / chain.N == pytest.approx(1.0, abs=1e-12)
    _report(10, "trade-off contrast against published screens")

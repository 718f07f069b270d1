import math

import numpy as np
import pytest

from midpredict.gainmargin import (
    ChainDesign,
    LmiVariables,
    assemble_W,
    design_chain,
    lmi_feasible,
    max_gain_margin,
    verify_certificate,
)
from midpredict.synthesis import gain_star

G1 = gain_star(1)
G2 = gain_star(2)


def _zeros(n):
    return LmiVariables(*[np.zeros((n, n)) for _ in range(6)])


def test_assemble_w_zero_variables():
    w = assemble_W(2, G2, 1.0, 0.0, _zeros(2))
    assert np.allclose(w[:6, :6], 0.0)
    assert np.allclose(w[6:, 6:], -np.eye(2))


def test_assemble_w_scalar_hand_values():
    ones = LmiVariables(*[np.ones((1, 1)) for _ in range(6)])
    w = assemble_W(1, G1, 1.0, 0.0, ones)
    assert w[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert w[0, 2] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert w[3, 3] == pytest.approx(1.0, abs=1e-15)  # P4' + P4 - I with ones


def test_assemble_w_symmetric_random():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        gain = gain_star(n)
        variables = LmiVariables(
            *[rng.standard_normal((n, n)) for _ in range(6)]
        )
        sym = LmiVariables(
            P=(variables.P + variables.P.T) / 2,
            R=(variables.R + variables.R.T) / 2,
            S=(variables.S + variables.S.T) / 2,
            P2=variables.P2,
            P3=variables.P3,
            P4=variables.P4,
        )
        w = assemble_W(n, gain, 1.3, 0.2, sym)
        assert np.linalg.norm(w - w.T) == 0.0


def test_assemble_w_rejects_bad_shapes():
    with pytest.raises(ValueError):
        assemble_W(2, G2, 1.0, 0.0, _zeros(3))
    with pytest.raises(ValueError):
        assemble_W(2, G2, 0.0, 0.0, _zeros(2))


def _stack_from_assemble_w(n, gain, h, gamma_m, eps, variables):
    w = assemble_W(n, gain, h, gamma_m, variables)
    eye = np.eye(n)
    m = np.zeros((7 * n, 7 * n))
    m[: 4 * n, : 4 * n] = w + eps * np.eye(4 * n)
    for k, mat in enumerate((variables.P, variables.R, variables.S)):
        m[(4 + k) * n : (5 + k) * n, (4 + k) * n : (5 + k) * n] = eps * eye - mat
    return m


def test_affine_stack_matches_assemble_w():
    from midpredict.gainmargin import _affine_stack, _Packing

    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        gain = gain_star(n)
        packing = _Packing(n)
        m0, jac = _affine_stack(packing, n, gain, 1.3, 0.2, 1e-6)
        for _ in range(5):
            theta = rng.standard_normal(packing.dim)
            m = m0 + (jac @ theta).reshape(m0.shape)
            expected = _stack_from_assemble_w(
                n, gain, 1.3, 0.2, 1e-6, packing.unpack(theta)
            )
            assert np.array_equal(m, m.T)
            assert np.max(np.abs(m - expected)) <= 1e-13 * np.max(np.abs(expected))


def _phase_one_start(n):
    """Phase I's barrier problem at slope 0 and its starting point."""
    from midpredict.gainmargin import (
        _affine_stack, _initial_variables, _Packing, _with_column,
    )

    packing = _Packing(n)
    m0, jac = _affine_stack(packing, n, gain_star(n), 1.0, 0.0, 1e-6)
    basis = _with_column(m0, jac, -np.eye(7 * n))
    theta = packing.pack(_initial_variables(n, gain_star(n)))
    s = np.linalg.eigvalsh(m0 + np.tensordot(theta, basis[:-1], 1))[-1] + 1.0
    return np.append(theta, s), m0, basis


def test_barrier_derivatives_match_finite_differences():
    from midpredict.gainmargin import _barrier, _barrier_derivatives

    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        x, m0, basis = _phase_one_start(n)
        x = x + 0.05 * rng.standard_normal(len(x))
        cost = rng.standard_normal(len(x))
        grad, hess = _barrier_derivatives(x, 1.7, cost, m0, basis)
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * np.max(np.abs(hess)))
        step = 1e-6
        for k in range(len(x)):
            e = np.zeros(len(x))
            e[k] = step
            hi, lo = (_barrier(x + d, 1.7, cost, m0, basis) for d in (e, -e))
            assert grad[k] == pytest.approx((hi - lo) / (2 * step), rel=1e-6, abs=1e-7)
            (g_hi, _), (g_lo, _) = (
                _barrier_derivatives(x + d, 1.7, cost, m0, basis) for d in (e, -e)
            )
            fd = (g_hi - g_lo) / (2 * step)
            assert np.allclose(hess[k], fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(hess)))


def test_barrier_is_infinite_outside_its_domain():
    from midpredict.gainmargin import _RADIUS, _barrier

    x, m0, basis = _phase_one_start(2)
    cost = np.zeros(len(x))
    assert math.isfinite(_barrier(x, 1.0, cost, m0, basis))
    below = x.copy()
    below[-1] -= 100.0  # s under the largest eigenvalue of M(theta)
    assert _barrier(below, 1.0, cost, m0, basis) == math.inf
    outside = x.copy()
    outside[:-1] *= 1.01 * _RADIUS / np.linalg.norm(x[:-1])
    outside[-1] += 1e6  # still inside the cone, but out of the ball
    assert _barrier(outside, 1.0, cost, m0, basis) == math.inf


def test_feasible_at_zero_slope():
    ok, cert = lmi_feasible(1, G1, 1.0, 0.0)
    assert ok
    assert verify_certificate(1, G1, 1.0, 0.0, cert, 1e-6)


def test_feasible_below_reported_margin():
    ok, cert = lmi_feasible(2, G2, 1.0, 0.06)
    assert ok
    assert verify_certificate(2, G2, 1.0, 0.06, cert, 1e-6 * (1 + 0.06 ** 2))


def test_infeasible_above_analytic_ceiling():
    ok, info = lmi_feasible(2, G2, 1.0, 0.10)
    assert not ok
    assert info == "unknown"


def test_rejects_negative_slope():
    with pytest.raises(ValueError):
        lmi_feasible(2, G2, 1.0, -0.1)


def test_certificate_survives_smaller_slopes():
    # shrinking the slope only shrinks the first diagonal block, so one
    # certificate re-verifies at every smaller slope
    for n, gamma_hi in ((1, 0.3), (2, 0.05)):
        gain = gain_star(n)
        eps = 1e-6 * (1 + gamma_hi ** 2)
        ok, cert = lmi_feasible(n, gain, 1.0, gamma_hi)
        assert ok
        rng = np.random.default_rng(n)
        for gamma in rng.uniform(0.0, gamma_hi, 5):
            assert verify_certificate(n, gain, 1.0, float(gamma), cert, 1e-6)


def test_upper_bound_is_trailing_gain():
    assert G2.l[-1] == pytest.approx(0.0791, abs=5e-5)
    assert G1.l[-1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    # consistency: the value of the loop at s = 0 equals the trailing gain
    from midpredict.spectrum import Quasipolynomial, qp_eval

    qp = Quasipolynomial(2, G2.l, 1.0)
    assert qp_eval(qp, 0.0).real - G2.l[-1] == pytest.approx(0.0, abs=1e-18)


def test_max_gain_margin_n1_bracket():
    bracket = max_gain_margin(1, tol=0.02 * math.exp(-1.0))
    assert 0.0 < bracket.lower <= bracket.upper
    assert bracket.upper == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert bracket.certificate is not None
    assert verify_certificate(
        1, G1, 1.0, bracket.lower, bracket.certificate, 1e-8
    )


def test_max_gain_margin_lower_bounds_n1_n2():
    for n, tol, lower in (
        (1, 0.005, 0.3420676258620573),
        (2, 0.005, 0.06723790905061379),
        (3, 0.002, 0.010460536500295938),
    ):
        bracket = max_gain_margin(n, tol=tol)
        assert bracket.lower == lower
        assert verify_certificate(
            n, gain_star(n), 1.0, bracket.lower, bracket.certificate, bracket.eps
        )


# lower bounds of the bisection under L-BFGS smoothing that the barrier solve
# replaced, at the same (n, tol); None is the default tol
BISECTION_LOWER_BOUNDS = (
    (1, 0.005, 0.34201291796407529),
    (2, 0.005, 0.064286901163265298),
    (3, 0.002, 0.0090658992963838503),
    (1, None, 0.34201291796407529),
    (2, None, 0.067223081745241359),
    (3, None, 0.010458836948692825),
    (4, None, 0.0012134923237992986),
)


@pytest.mark.parametrize("n, tol, floor", BISECTION_LOWER_BOUNDS)
def test_lower_bound_never_falls_below_the_bisection(n, tol, floor):
    bracket = max_gain_margin(n, tol=tol)
    assert bracket.lower >= floor
    assert bracket.upper == gain_star(n).l[-1]
    assert verify_certificate(
        n, gain_star(n), 1.0, bracket.lower, bracket.certificate, bracket.eps
    )


def test_tol_only_tightens():
    # tol above 1e-4 upper has no effect; a smaller one runs further along
    # the same central path, keeping the best verified iterate
    default = max_gain_margin(2)
    loose = max_gain_margin(2, tol=1.0)
    assert loose.lower == default.lower
    assert np.array_equal(loose.certificate.P2, default.certificate.P2)
    tight = max_gain_margin(2, tol=1e-300)
    assert tight.lower >= default.lower
    assert verify_certificate(2, G2, 1.0, tight.lower, tight.certificate, tight.eps)


def test_design_chain_benchmark_numbers():
    chain = design_chain(2, 1.1, 0.25, 0.0673)
    assert chain.lambda_star == pytest.approx(1.1 / 0.0673, rel=1e-12)
    assert chain.N == 5
    assert chain.lam == pytest.approx(20.0, abs=1e-12)
    assert chain.sigma_star_per_t == pytest.approx(20.0 * G2.sigma_star, rel=1e-12)


def test_design_chain_no_nonlinearity():
    chain = design_chain(2, 0.0, 2.0, 0.05)
    assert chain.lambda_star == 1.0
    assert chain.N == 2
    assert chain.lam == 1.0
    chain = design_chain(2, 1.1, 0.01, 0.0673)
    assert chain.N == 1
    assert chain.lam == 100.0


def test_design_chain_unit_normalized_delay():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gamma_phi = float(rng.uniform(0.0, 3.0))
        gamma_m = float(rng.uniform(0.01, 0.5))
        h = float(rng.uniform(0.05, 3.0))
        chain = design_chain(2, gamma_phi, h, gamma_m)
        assert chain.lam * h / chain.N == pytest.approx(1.0, rel=1e-12)
        assert chain.N >= chain.lambda_star * h - 1e-9
        assert chain.lambda_star >= 1.0


def test_design_chain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        design_chain(2, 1.0, 0.25, 0.0)
    with pytest.raises(ValueError):
        design_chain(2, -1.0, 0.25, 0.1)
    with pytest.raises(ValueError):
        design_chain(2, 1.0, 0.0, 0.1)


def test_max_gain_margin_rejects_bad_tol(monkeypatch):
    import midpredict.gainmargin as gm

    queries = []
    monkeypatch.setattr(gm, "lmi_feasible", lambda *args, **kw: queries.append(args))
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            max_gain_margin(1, tol=bad)
    assert queries == []


def _counted_newton_steps(monkeypatch):
    import midpredict.gainmargin as gm

    steps = []
    centre = gm.minimize

    def counted(*args, **kwargs):
        result = centre(*args, **kwargs)
        steps.append(result.nfev)
        return result

    monkeypatch.setattr(gm, "minimize", counted)
    return steps


def test_newton_step_budget(monkeypatch):
    import midpredict.gainmargin as gm

    steps = _counted_newton_steps(monkeypatch)
    bracket = max_gain_margin(2, tol=1e-300)  # the gap never closes
    assert sum(steps) <= gm.MAX_NEWTON_STEPS
    assert verify_certificate(2, G2, 1.0, bracket.lower, bracket.certificate, bracket.eps)
    # a budget spent in phase II keeps the last verified iterate
    for budget in (40, 50, 60):
        monkeypatch.setattr(gm, "MAX_NEWTON_STEPS", budget)
        steps.clear()
        bracket = max_gain_margin(2)
        assert sum(steps) <= budget
        assert 0.0 < bracket.lower < bracket.upper
        assert verify_certificate(2, G2, 1.0, bracket.lower, bracket.certificate, bracket.eps)
    # a budget spent in phase I gives up: "unknown", then a degenerate bracket
    monkeypatch.setattr(gm, "MAX_NEWTON_STEPS", 3)
    steps.clear()
    assert lmi_feasible(2, G2, 1.0, 0.0) == (False, "unknown")
    assert sum(steps) <= 3
    bracket = max_gain_margin(2)
    assert (bracket.lower, bracket.certificate) == (0.0, None)

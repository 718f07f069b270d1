import math

import numpy as np
import pytest

from midpredict.model import demo_system, make_system
from midpredict.simulate import (
    SimConfig,
    fit_decay_rate,
    integrate,
    run_demo_variant,
)
from midpredict.synthesis import GainVector, gain_star


def _linear_system(n, h):
    return make_system(n, ["0"] * n, [0.0] * n, h, "0")


def _error_only_config(n, h, lam, t_end, history, dt=None):
    """Plant parked at the origin: the predictor state IS the error."""
    return SimConfig(
        system=_linear_system(n, h),
        gain=gain_star(n),
        lam=lam,
        N=1,
        t_end=t_end,
        dt=dt,
        x0=tuple(0.0 for _ in range(n)),
        predictor_history=(history,),
    )


def test_config_validation():
    system = demo_system()
    gain = gain_star(2)
    with pytest.raises(ValueError):
        SimConfig(system=system, gain=gain, lam=0.0, N=1, t_end=10.0)
    with pytest.raises(ValueError):
        SimConfig(system=system, gain=gain, lam=1.0, N=0, t_end=10.0)
    with pytest.raises(ValueError):
        SimConfig(system=system, gain=gain, lam=1.0, N=1, t_end=0.1)
    with pytest.raises(ValueError):
        SimConfig(system=system, gain=gain_star(3), lam=1.0, N=1, t_end=10.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"lam": math.nan},
        {"lam": math.inf},
        {"t_end": math.inf},
        {"t_end": math.nan},
        {"dt": math.nan},
        {"dt": math.inf},
        {"dt": 0.0},
        {"dt": -0.01},
    ],
)
def test_config_rejects_unbounded_inputs(overrides):
    kwargs = dict(system=demo_system(), gain=gain_star(2), lam=1.0, N=1, t_end=10.0)
    kwargs.update(overrides)
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_integrate_refuses_oversized_run(dt):
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1,
                    t_end=60.0, dt=dt)
    with pytest.raises(ValueError, match="budget"):
        integrate(cfg)


def test_step_snaps_to_stage_delay():
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1,
                    t_end=1.0, dt=0.0132)
    trace = integrate(cfg)
    m = trace.metadata["nodes_per_stage_delay"]
    assert m * trace.metadata["dt"] == pytest.approx(0.25, rel=1e-12)
    assert trace.metadata["dt"] <= 0.0132 + 1e-15


def test_equilibrium_start_stays_on_zero_error_manifold():
    # constant plant solution, histories parked on it: the whole chain
    # must ride the equilibrium and every stage error stays at zero
    system = make_system(2, ["0", "-x1 + 1"], [1.0, 0.0], 0.3, "0")
    for stages in (1, 3):
        cfg = SimConfig(
            system=system,
            gain=gain_star(2),
            lam=2.0,
            N=stages,
            t_end=6.0,
            x0=(1.0, 0.0),
            predictor_history=tuple((1.0, 0.0) for _ in range(stages)),
        )
        trace = integrate(cfg)
        assert not trace.divergent
        assert np.max(np.abs(trace.e_chain)) <= 1e-9
        assert np.nanmax(trace.e_pred) <= 1e-9


def test_prediction_error_defined_after_one_delay():
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1, t_end=2.0)
    trace = integrate(cfg)
    before = trace.times < 0.25 - 1e-12
    assert np.all(np.isnan(trace.e_pred[before]))
    assert np.all(np.isfinite(trace.e_pred[~before]))


def test_linear_decay_rate_matches_dominant_root():
    gain = gain_star(2)
    cfg = _error_only_config(2, 0.25, 4.0, 140.0, (1.0, 1.0))
    trace = integrate(cfg)
    rate = fit_decay_rate(trace, (100.0, 140.0))
    target = gain.sigma_star / 0.25
    assert abs(rate - target) <= 0.05 * abs(target)


def test_linear_rates_match_region_spectrum():
    # simulated decay against the rightmost root of the matching
    # normalized loop, across dimension/delay combinations
    from midpredict.spectrum import Quasipolynomial, rightmost_in_region

    cases = [
        (1, 1.0, 1.0, (120.0, 200.0), 200.0),
        (2, 1.0, 1.0, (120.0, 200.0), 200.0),
        (2, 2.0, 2.0, (80.0, 200.0), 200.0),
    ]
    for n, delta, lam_h_product, window, t_end in cases:
        h = 1.0
        lam = lam_h_product / h
        gain = gain_star(n)
        cfg = _error_only_config(n, h, lam, t_end, tuple(1.0 for _ in range(n)))
        rate = fit_decay_rate(integrate(cfg), window)
        qp = Quasipolynomial(n, gain.l, delta)
        dominant = rightmost_in_region(qp, (-3.0, 0.5, 0.0, 10.0))
        target = dominant.real * lam
        assert abs(rate - target) <= 0.05 * abs(target), (n, delta)


def test_stable_delay_interval_maps_to_stable_gain():
    # any normalized delay inside a stable interval yields a decaying loop
    # at scalar gain delta/h, for arbitrary physical delay
    from midpredict.margins import stability_partition

    part = stability_partition(2)
    lo, hi = part.stable_intervals[0]
    for delta, h in ((0.7, 0.37), (2.0, 1.3)):
        assert lo < delta < hi
        lam = delta / h
        cfg = SimConfig(
            system=_linear_system(2, h),
            gain=gain_star(2),
            lam=lam,
            N=1,
            t_end=40.0 / lam,
            x0=(0.0, 0.0),
            predictor_history=((1.0, 1.0),),
        )
        trace = integrate(cfg)
        finite = np.isfinite(trace.e_pred)
        rate = fit_decay_rate(trace, (trace.times[finite][0], trace.times[-1]))
        assert rate < 0
    # and a delay beyond the first crossing diverges
    delta_bad = part.crossing_points[1] * 1.2
    lam = delta_bad / 0.5
    cfg = SimConfig(
        system=_linear_system(2, 0.5),
        gain=gain_star(2),
        lam=lam,
        N=1,
        t_end=80.0 / lam,
        x0=(0.0, 0.0),
        predictor_history=((1.0, 1.0),),
    )
    trace = integrate(cfg)
    finite = np.isfinite(trace.e_pred)
    rate = fit_decay_rate(trace, (trace.times[finite][0], trace.times[-1]))
    assert rate > 0


def test_fit_decay_rate_pure_exponential():
    cfg = _error_only_config(1, 1.0, 1.0, 20.0, (1.0,))
    trace = integrate(cfg)
    synthetic = trace  # reuse grid; replace the error channel
    synthetic.e_pred = np.exp(-3.0 * synthetic.times)
    rate = fit_decay_rate(synthetic, (2.0, 18.0))
    assert rate == pytest.approx(-3.0, abs=1e-6)


def test_fit_decay_rate_positive_for_divergence():
    trace = run_demo_variant("ahmed", 0.5, t_end=60.0)
    assert trace.divergent
    finite = np.isfinite(trace.e_pred) & (trace.e_pred > 0)
    ts = trace.times[finite]
    window = (ts[len(ts) // 2], ts[-1])
    assert fit_decay_rate(trace, window) > 0


def test_fit_decay_rate_rejects_empty_window():
    cfg = _error_only_config(1, 1.0, 1.0, 10.0, (1.0,))
    trace = integrate(cfg)
    with pytest.raises(ValueError):
        fit_decay_rate(trace, (200.0, 300.0))


def test_demo_variants_at_design_delay_converge():
    for variant in ("ahmed", "ours_N1", "ours_N5"):
        trace = run_demo_variant(variant, 0.25, t_end=60.0)
        assert not trace.divergent, variant
        tail = trace.e_pred[np.isfinite(trace.e_pred)][-1]
        assert tail < 1e-3, variant


def test_demo_comparison_tuning_diverges_at_double_delay():
    trace = run_demo_variant("ahmed", 0.5, t_end=60.0)
    assert trace.divergent
    trace1 = run_demo_variant("ours_N1", 0.5, t_end=60.0)
    trace5 = run_demo_variant("ours_N5", 0.5, t_end=60.0)
    assert not trace1.divergent and not trace5.divergent
    assert trace1.e_pred[-1] < 1e-3
    assert trace5.e_pred[-1] < 1e-3


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        run_demo_variant("bogus", 0.25)


def test_step_halving_convergence_order():
    # fourth-order integrator: quartering the error per halving, observed
    # order at least 3.5 on the nonlinear benchmark
    ref_cfg = dict(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1)
    values = []
    for divisor in (10, 20, 40):
        cfg = SimConfig(t_end=8.0, dt=0.25 / divisor, **ref_cfg)
        trace = integrate(cfg)
        values.append(trace.e_pred[-1])
    err_coarse = abs(values[0] - values[2])
    err_fine = abs(values[1] - values[2])
    order = math.log2(err_coarse / err_fine) - 0.0
    assert order >= 3.5


def test_homogeneity_of_error_flow():
    # simulating at gain lam and stage delay h matches the unit-gain run
    # at stage delay lam*h after dilation and time rescale
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(1.5, 8.0))
        h = float(rng.uniform(0.1, 0.6))
        hist = tuple(rng.standard_normal(n))
        steps = 40
        cfg_a = SimConfig(
            system=_linear_system(n, h),
            gain=gain_star(n),
            lam=lam,
            N=1,
            t_end=3.0 * h,
            dt=h / steps,
            x0=tuple(0.0 for _ in range(n)),
            predictor_history=(hist,),
        )
        weights = lam ** -np.arange(1, n + 1)
        cfg_b = SimConfig(
            system=_linear_system(n, lam * h),
            gain=gain_star(n),
            lam=1.0,
            N=1,
            t_end=3.0 * lam * h,
            dt=lam * h / steps,
            x0=tuple(0.0 for _ in range(n)),
            predictor_history=(tuple(np.asarray(hist) * weights),),
        )
        tr_a = integrate(cfg_a)
        tr_b = integrate(cfg_b)
        xa = tr_a.xhat[:, 0, :] * weights[None, :]
        xb = tr_b.xhat[: len(xa), 0, :]
        scale = max(np.max(np.abs(xb)), 1e-30)
        assert np.max(np.abs(xa - xb)) <= 1e-6 * scale


def test_divergence_truncates_trace():
    trace = run_demo_variant("ahmed", 0.5, t_end=60.0)
    assert trace.divergent
    assert trace.times[-1] < 60.0
    assert np.all(np.isfinite(trace.x))


def test_scalar_delay_loop_matches_closed_form():
    # with the plant at the origin the single scalar predictor obeys
    # y'(t) = -a y(t - h) from constant history 1, whose method-of-steps
    # solution is piecewise polynomial; the integrator must reproduce the
    # first three spans to rounding (the solution degree stays within the
    # scheme's exactness there)
    lam = 2.0
    h = 0.5
    gain = gain_star(1)
    a = lam * gain.l[0]
    cfg = SimConfig(
        system=_linear_system(1, h),
        gain=gain,
        lam=lam,
        N=1,
        t_end=1.5,
        dt=h / 25,
        x0=(0.0,),
        predictor_history=((1.0,),),
    )
    trace = integrate(cfg)
    y_h = 1.0 - a * h
    y_2h = y_h - a * h + a ** 2 * h ** 2 / 2

    def exact(t):
        if t <= h:
            return 1.0 - a * t
        if t <= 2 * h:
            s = t - h
            return y_h - a * s + a ** 2 * s ** 2 / 2
        s = t - 2 * h
        return y_2h - a * y_h * s + a ** 2 * s ** 2 / 2 - a ** 3 * s ** 3 / 6
    for k, t in enumerate(trace.times):
        assert trace.xhat[k, 0, 0] == pytest.approx(exact(float(t)), abs=1e-12)

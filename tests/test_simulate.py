import math
import typing

import numpy as np
import pytest

from midpredict import expressions
from midpredict.expressions import FUNCTIONS
from midpredict.model import CanonicalSystem, demo_system, make_system
from midpredict.simulate import SimConfig, integrate, run_demo_variant
from midpredict.synthesis import GainVector, gain_star
from oracles import fit_decay_rate


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


def test_config_type_hints_resolve():
    hints = typing.get_type_hints(SimConfig)
    assert hints["system"] is CanonicalSystem
    assert hints["gain"] is GainVector


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
        {"x0": (math.nan, 0.0)},
        {"x0": (math.inf, 0.0)},
        {"x0": (0.0, -math.inf)},
        {"predictor_history": ((math.nan, 0.0),)},
        {"predictor_history": ((0.0, math.inf),)},
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


def test_integrate_refuses_oversized_step_kernel():
    # 1 001 nodes of 1 001 blocks fit the stored-values budget, but the
    # generated step would need more than a million characters of source
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1000,
                    t_end=0.25, dt=0.25 / 1000)
    with pytest.raises(ValueError, match="step kernel of 1001 blocks"):
        integrate(cfg)


def test_step_snaps_to_stage_delay():
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=4.0, N=1,
                    t_end=1.0, dt=0.0132)
    trace = integrate(cfg)
    assert sorted(trace.metadata) == ["dt", "nodes_per_stage_delay"]
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
    from midpredict.spectrum import Quasipolynomial, roots_in_region

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
        dominant = roots_in_region(qp, (-3.0, 0.5, 0.0, 10.0)).dominant
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


def test_integer_scalar_gain_accepted():
    cfg = SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=20, N=1, t_end=0.5)
    assert isinstance(cfg.lam, float)
    trace = integrate(cfg)
    assert np.all(np.isfinite(trace.e_chain))


def test_integrate_compiles_once_per_run(monkeypatch):
    names = []
    define = expressions._define

    def counted(name, source):
        names.append(name)
        return define(name, source)

    monkeypatch.setattr(expressions, "_define", counted)
    for N in (1, 3):
        integrate(SimConfig(system=demo_system(0.25), gain=gain_star(2), lam=20.0, N=N, t_end=0.5))
    assert names == ["_run", "_run"]


def _reference_integrate(cfg):
    """Per-block RK4 loop: each block's stage derivative on its own, delayed
    reads from stored nodes or Hermite midpoints, norms one row at a time."""
    sys_, N, lam = cfg.system, cfg.N, cfg.lam
    n = sys_.n
    h, h_e = sys_.h, sys_.h / cfg.N
    m = max(1, math.ceil(h_e / cfg.dt - 1e-9))
    dt = h_e / m
    steps = math.ceil(cfg.t_end / dt - 1e-9)
    inj = lam ** np.arange(1, n + 1) * np.asarray(cfg.gain.l)
    hist = np.asarray(cfg.predictor_history)
    values = np.empty((steps + 1, (N + 1) * n))
    derivs = np.empty_like(values)
    values[0] = np.concatenate([cfg.x0, hist.ravel()])

    def delayed(j, k, half):
        idx, c = k - m, j * n
        if idx < 0:
            return hist[j - 1, 0]
        if not half:
            return values[idx, c]
        return 0.5 * (values[idx, c] + values[idx + 1, c]) + 0.125 * dt * (
            derivs[idx, c] - derivs[idx + 1, c])

    def rhs(t, y, k, half):
        out = np.empty_like(y)
        for j in range(N + 1):
            blk = y[j * n:(j + 1) * n]
            d = np.append(blk[1:], 0.0)
            d += sys_.phi_value(blk, sys_.input_value(t - h + j * h_e))
            if j > 0:
                d += inj * (y[(j - 1) * n] - delayed(j, k, half))
            out[j * n:(j + 1) * n] = d
        return out

    derivs[0] = rhs(0.0, values[0], 0, False)
    count, divergent = steps + 1, False
    for k in range(steps):
        t, y, k1 = k * dt, values[k], derivs[k]
        try:
            k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1, k, True)
            k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2, k, True)
            k4 = rhs(t + dt, y + dt * k3, k + 1, False)
            y_next = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > 1e9:
                raise OverflowError
        except OverflowError:
            count, divergent = k + 1, True
            break
        values[k + 1] = y_next
        try:
            derivs[k + 1] = rhs(t + dt, y_next, k + 1, False)
        except OverflowError:
            count, divergent = k + 2, True
            break

    state = values[:count].reshape(count, N + 1, n)

    def block(j, idx):
        return state[idx, j] if idx >= 0 else hist[j - 1]

    e_chain = np.array([[np.linalg.norm(block(j, k - j * m) - block(j - 1, k - (j - 1) * m))
                         for j in range(1, N + 1)] for k in range(count)]).reshape(count, N)

    e_pred = np.array([np.linalg.norm(state[k - N * m, N] - state[k, 0]) if k >= N * m
                       else np.nan for k in range(count)])
    return dict(x=state[:, 0], xhat=state[:, 1:], e_chain=e_chain, e_pred=e_pred,
                divergent=divergent, times=np.arange(count) * dt)


def _random_config(rng, n, N):
    c = rng.uniform(0.1, 0.9, 4)
    phi = ["%.3f*tanh(x1) - x1" % c[0],
           "-x1 + %.3f*exp(-x2^2) + x1*u" % c[1],
           "%.3f*tanh(x1 + x2 + x3) - x3 + %.3f*x2^2" % (c[2], c[3])][:n]
    h = float(rng.uniform(0.2, 0.6))
    return SimConfig(
        system=make_system(n, phi, [1.0] * n, h, "0.1*sin(t)"),
        gain=gain_star(n),
        lam=float(rng.uniform(0.5, 6.0)),
        N=N,
        t_end=2.5 * h,
        dt=h / N / int(rng.integers(3, 12)),
        x0=tuple(rng.standard_normal(n)),
        predictor_history=tuple(tuple(rng.standard_normal(n)) for _ in range(N)),
    )


def _diverging_configs():
    # x' = x^2 from 2 passes the divergence threshold before t = 0.5;
    # x' = exp(x) overflows inside a stage first
    for phi, N in (("x1^2", 2), ("exp(x1)", 3)):
        yield SimConfig(system=make_system(1, [phi], [1.0], 0.2, "0"), gain=gain_star(1),
                        lam=4.0, N=N, t_end=2.0, dt=0.01, x0=(2.0,),
                        predictor_history=tuple((0.5 * j,) for j in range(N)))


def test_integrate_matches_per_block_reference_bitwise():
    rng = np.random.default_rng(2024)
    configs = [_random_config(rng, n, N) for n in (1, 2, 3) for N in (1, 2, 3, 4)]
    configs.extend(_diverging_configs())
    diverged = 0
    for cfg in configs:
        trace = integrate(cfg)
        ref = _reference_integrate(cfg)
        assert trace.divergent == ref["divergent"]
        diverged += trace.divergent
        for name in ("times", "x", "xhat", "e_chain", "e_pred"):
            assert np.array_equal(getattr(trace, name), ref[name], equal_nan=True), name
    assert diverged == 2


def _exit_config(phi, u, x0, N=1, dt=0.01, t_end=2.0):
    return SimConfig(system=make_system(1, [phi], [1.0], 0.2, u), gain=gain_star(1), lam=1.0,
                     N=N, t_end=t_end, dt=dt, x0=(x0,), predictor_history=((0.0,),) * N)


@pytest.mark.parametrize(
    "exit_, cfg",
    [
        # x' = exp(x) jumps from below 709.78 to 2.1e8 in one step: the node
        # is stored and its derivative overflows
        ("derivative", _exit_config("exp(x1)", "0", 2.0)),
        # the input overflows first at a step's midpoint or end time, inside a stage
        ("stage", _exit_config("u", "0 * exp(1000 * (t - 0.5))", 0.0, N=2)),
        # products never raise: x' = x*x from 2 passes the bound
        ("bound", _exit_config("x1 * x1", "0", 2.0)),
        # 1e300*x*x reads inf - inf = NaN once x passes 1e4
        ("nan", _exit_config("x1 + (1e300*x1*x1 - 1e300*x1*x1)", "0", 1.0, dt=0.05, t_end=30.0)),
    ],
)
def test_each_kernel_exit_matches_the_reference(exit_, cfg):
    trace = integrate(cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # the reference's numpy scalars
        ref = _reference_integrate(cfg)
    assert trace.divergent and ref["divergent"]
    assert len(trace.times) == len(ref["times"]) > 2
    for name in ("x", "xhat", "e_chain", "e_pred"):
        assert np.array_equal(getattr(trace, name), ref[name], equal_nan=True), name
    last = trace.x[-1, 0]
    assert np.all(np.isfinite(trace.x)) and np.all(np.isfinite(trace.xhat))
    if exit_ == "derivative":
        assert 709.79 < last <= 1e9  # math.exp overflows at the stored node
    elif exit_ == "stage":
        # the last step reads the input up to block N's time t + dt
        end = trace.times[-1] + trace.metadata["dt"]
        assert 1000 * (end - 0.5) > 709.79 > 1000 * (trace.times[-1] - 0.5)
    else:
        assert abs(last) < 1e9


def test_nan_in_a_later_component_is_divergence():
    # plant parked at the origin; the predictor's second component reads
    # inf - inf once 1e300*x1*x1 overflows (float products give inf, no
    # error), so the step's first value stays finite and the NaN sits behind it
    cfg = SimConfig(
        system=make_system(2, ["0", "x2 + (1e300*x1*x1 - 1e300*x1*x1)"], [0.0, 1.0], 0.5, "0"),
        gain=gain_star(2),
        lam=1.0,
        N=1,
        t_end=30.0,
        dt=0.05,
        x0=(0.0, 0.0),
        predictor_history=((1.0, 1.0),),
    )
    trace = integrate(cfg)
    assert trace.divergent
    assert len(trace.times) == 203
    assert np.all(np.isfinite(trace.x)) and np.all(np.isfinite(trace.xhat))


def test_integrate_matches_per_block_reference_on_random_fields():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def expressions(names, functions, operators):
        leaves = st.sampled_from(names) | st.floats(0.1, 3.0).map("%.3g".__mod__)

        def extend(inner):
            return (
                st.tuples(inner, st.sampled_from(operators), inner).map("(%s %s %s)".__mod__)
                | st.tuples(st.sampled_from(functions), inner).map("%s(%s)".__mod__)
                | st.tuples(inner, st.sampled_from(("2", "3"))).map("(%s)^%s".__mod__)
                | inner.map("-(%s)".__mod__)
            )

        return st.recursive(leaves, extend, max_leaves=6)

    @st.composite
    def configs(draw):
        n, N = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        # component i may read x1..xi and u
        phi = [draw(expressions(["x%d" % (j + 1) for j in range(i + 1)] + ["u"], FUNCTIONS,
                                "+-*/")) for i in range(n)]
        u = draw(expressions(["t"], ("sin", "cos", "tanh"), "+-*"))  # raises nothing
        h = draw(st.floats(0.2, 0.6))
        # zeros of either sign in x0 show the sign of a zero derivative
        coords = st.floats(-2.0, 2.0)
        return SimConfig(
            system=make_system(n, phi, [1.0] * n, h, u),
            gain=gain_star(n),
            lam=draw(st.floats(0.5, 6.0)),
            N=N,
            t_end=2.5 * h,
            dt=h / N / draw(st.integers(1, 4)),
            x0=tuple(draw(coords) for _ in range(n)),
            predictor_history=tuple(tuple(draw(coords.filter(bool)) for _ in range(n))
                                    for _ in range(N)),
        )

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(configs())
    # from -0.0 the zero derivative 0.0 + -0.0 is +0.0, so x leaves -0.0
    @hypothesis.example(SimConfig(system=make_system(1, ["x1"], [1.0], 0.3, "0"), gain=gain_star(1),
                                  lam=2.0, N=1, t_end=0.6, dt=0.1, x0=(-0.0,),
                                  predictor_history=((0.5,),)))
    def check(cfg):
        try:
            ref = _reference_integrate(cfg)
        except OverflowError:  # the reference leaves node 0 unguarded
            trace = integrate(cfg)
            assert trace.divergent and len(trace.times) == 1
            return
        except ValueError as err:  # a domain error in the field
            with pytest.raises(type(err)) as raised:
                integrate(cfg)
            assert str(raised.value) == str(err)
            return
        trace = integrate(cfg)
        assert trace.divergent == ref["divergent"]
        for name in ("times", "x", "xhat", "e_chain", "e_pred"):
            got = getattr(trace, name)
            assert np.array_equal(got, ref[name], equal_nan=True), name
            assert np.array_equal(np.signbit(got), np.signbit(ref[name])), name

    check()

"""Fixed-step simulation of the plant together with its sub-predictor chain.

The stacked system (plant plus N cascaded predictors, each looking h/N
ahead of its predecessor) is integrated with classical RK4 under the method
of steps: every delayed read falls at a stored grid node or exactly halfway
between two, where cubic Hermite interpolation from stored values and
derivatives keeps the scheme at fourth order. The per-stage delay h/N is
snapped to an exact multiple of the step for this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .synthesis import GainVector, gain_star

__all__ = [
    "SimConfig",
    "SimulationTrace",
    "SimulationError",
    "integrate",
    "run_demo_variant",
    "fit_decay_rate",
    "DEMO_VARIANTS",
]

DIVERGENCE_NORM = 1e9
# nodes times state width per stored array; the demo runs need at most 60 001 x 12
MAX_STATE_VALUES = 10_000_000
DEMO_VARIANTS = ("ahmed", "ours_N1", "ours_N5")


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Scenario description for one closed prediction-loop run.

    predictor_history holds one constant vector per sub-predictor, used for
    all times at or before zero. dt is a request; the integrator shrinks it
    so the per-stage delay is an exact multiple.
    """

    system: CanonicalSystem
    gain: GainVector
    lam: float
    N: int
    t_end: float
    dt: float | None = None
    x0: tuple = None
    predictor_history: tuple = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("at least one sub-predictor is required")
        if not 0 < self.lam < math.inf:
            raise ValueError("scalar gain must be finite and positive")
        if self.system.h <= 0:
            raise ValueError("simulation requires a positive input delay")
        if not self.system.h <= self.t_end < math.inf:
            raise ValueError("horizon must be finite and reach at least one delay span")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("step must be finite and positive")
        if self.gain.n != self.system.n:
            raise ValueError("gain dimension must match the system")
        n = self.system.n
        x0 = self.x0 if self.x0 is not None else tuple(1.0 for _ in range(n))
        if len(x0) != n:
            raise ValueError("x0 must have n entries")
        object.__setattr__(self, "x0", tuple(float(v) for v in x0))
        hist = self.predictor_history
        if hist is None:
            hist = tuple(tuple(0.0 for _ in range(n)) for _ in range(self.N))
        if len(hist) != self.N or any(len(hv) != n for hv in hist):
            raise ValueError("predictor_history needs one n-vector per stage")
        object.__setattr__(
            self, "predictor_history", tuple(tuple(float(v) for v in hv) for hv in hist)
        )


@dataclass
class SimulationTrace:
    times: np.ndarray
    x: np.ndarray  # (T, n) plant states
    xhat: np.ndarray  # (T, N, n) sub-predictor states
    e_chain: np.ndarray  # (T, N) per-stage error norms
    e_pred: np.ndarray  # (T,) |xhat^N(t-h) - x(t)|, NaN before t = h
    epsilon: np.ndarray | None  # (T, N) dilated per-stage error norms
    divergent: bool
    metadata: dict = field(default_factory=dict)


def _hermite_half(y0, y1, f0, f1, dt):
    return 0.5 * (y0 + y1) + 0.125 * dt * (f0 - f1)


def integrate(config):
    """Run the chain and return the full trace.

    The state blows past the divergence threshold -> the trace is truncated
    there and flagged instead of raising.
    """
    sys_ = config.system
    n = sys_.n
    N = config.N
    lam = config.lam
    h = sys_.h
    h_e = h / N
    dt_req = config.dt if config.dt is not None else h_e / 50.0
    # the clamp keeps ceil finite for a step of a few ulps; a clamped run
    # has more than MAX_STATE_VALUES nodes and is refused below
    m = max(1, math.ceil(min(h_e / dt_req, MAX_STATE_VALUES) - 1e-9))
    dt = h_e / m
    steps = math.ceil(config.t_end / dt - 1e-9)
    width = (N + 1) * n
    if (steps + 1) * width > MAX_STATE_VALUES:
        raise ValueError(
            "%d nodes of %d states exceed the budget of %d stored values; enlarge dt"
            % (steps + 1, width, MAX_STATE_VALUES)
        )
    lam_pow = lam ** np.arange(1, n + 1)
    inj_gain = lam_pow * np.asarray(config.gain.l)
    hist = np.asarray(config.predictor_history)  # (N, n)

    values = np.empty((steps + 1, width))
    derivs = np.empty((steps + 1, width))
    y0 = np.concatenate([np.asarray(config.x0), hist.reshape(-1)])
    values[0] = y0

    def delayed_first_coord(j, k, half, fallback):
        """First coordinate of block j at t_k - h_e (+ dt/2 when half)."""
        idx = k - m
        col = j * n
        if idx < 0:
            return fallback
        if not half:
            return values[idx, col]
        return _hermite_half(
            values[idx, col], values[idx + 1, col], derivs[idx, col], derivs[idx + 1, col], dt
        )

    def rhs(t, y, k, half, shifted):
        """Stage derivative; delayed reads resolved from stored history.

        k is the base node of this step; half marks the two midpoint
        stages; shifted marks the end stage (delay read lands one node
        later).
        """
        out = np.empty(width)
        base_k = k + 1 if shifted else k
        for j in range(N + 1):
            blk = y[j * n : (j + 1) * n]
            d = np.empty(n)
            d[:-1] = blk[1:]
            d[-1] = 0.0
            u_val = sys_.input_value(t - h + j * h_e)
            d += sys_.phi_value(blk, u_val)
            if j > 0:
                reference = y[(j - 1) * n]  # first coordinate of the stage ahead
                fallback = hist[j - 1, 0]
                delayed = delayed_first_coord(j, base_k, half, fallback)
                d += inj_gain * (reference - delayed)
            out[j * n : (j + 1) * n] = d
        return out

    derivs[0] = rhs(0.0, values[0], 0, False, False)
    divergent = False
    last = steps
    for k in range(steps):
        t = k * dt
        y = values[k]
        try:
            k1 = derivs[k]
            k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1, k, True, False)
            k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2, k, True, False)
            k4 = rhs(t + dt, y + dt * k3, k, False, True)
            y_next = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except OverflowError:
            divergent = True
            last = k
            break
        if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > DIVERGENCE_NORM:
            divergent = True
            last = k
            break
        values[k + 1] = y_next
        try:
            derivs[k + 1] = rhs(t + dt, y_next, k + 1, False, False)
        except OverflowError:
            divergent = True
            last = k + 1
            break

    count = last + 1
    times = np.arange(count) * dt
    state = values[:count].reshape(count, N + 1, n)
    x = state[:, 0, :]
    xhat = state[:, 1:, :]

    def block_at(j, idx):
        """Block j (0 = plant) at node idx, constant history before zero."""
        if idx >= 0:
            return state[idx, j, :]
        if j == 0:
            return state[0, 0, :]
        return hist[j - 1]

    e_chain = np.empty((count, N))
    for k in range(count):
        for j in range(1, N + 1):
            a = block_at(j, k - j * m)
            b = block_at(j - 1, k - (j - 1) * m)
            e_chain[k, j - 1] = np.linalg.norm(a - b)
    e_pred = np.full(count, np.nan)
    offset = N * m
    for k in range(count):
        if k >= offset:
            e_pred[k] = np.linalg.norm(state[k - offset, N, :] - x[k])
    epsilon = None
    if lam >= 1.0:
        weights = lam ** (-np.arange(1, n + 1))
        epsilon = np.empty((count, N))
        for k in range(count):
            for j in range(1, N + 1):
                a = block_at(j, k - j * m)
                b = block_at(j - 1, k - (j - 1) * m)
                epsilon[k, j - 1] = np.linalg.norm((a - b) * weights)
    return SimulationTrace(
        times=times,
        x=x,
        xhat=xhat,
        e_chain=e_chain,
        e_pred=e_pred,
        epsilon=epsilon,
        divergent=divergent,
        metadata={
            "dt": dt,
            "h": h,
            "h_e": h_e,
            "nodes_per_stage_delay": m,
            "lam": lam,
            "N": N,
            "x0": config.x0,
            "predictor_history": config.predictor_history,
            "t_end": config.t_end,
        },
    )


def run_demo_variant(variant, h, t_end=60.0, dt=None):
    """Simulate the bundled benchmark under one of three tunings.

    "ahmed": one predictor, scalar gain 2, injection gains (2, 1) - the
    tuning this design is compared against. "ours_N1": one predictor at the
    designed gains with scalar gain 1/h. "ours_N5": five predictors at the
    designed gains with scalar gain N/h.
    """
    from .model import demo_system

    if variant not in DEMO_VARIANTS:
        raise ValueError("variant must be one of %s" % (DEMO_VARIANTS,))
    system = demo_system(h)
    if variant == "ahmed":
        gain = GainVector(l=(2.0, 1.0), n=2)
        cfg = SimConfig(system=system, gain=gain, lam=2.0, N=1, t_end=t_end, dt=dt)
    elif variant == "ours_N1":
        cfg = SimConfig(system=system, gain=gain_star(2), lam=1.0 / h, N=1, t_end=t_end, dt=dt)
    else:
        cfg = SimConfig(system=system, gain=gain_star(2), lam=5.0 / h, N=5, t_end=t_end, dt=dt)
    return integrate(cfg)


def fit_decay_rate(trace, window):
    """Least-squares slope of log prediction-error norm over a time window."""
    t1, t2 = window
    mask = (trace.times >= t1) & (trace.times <= t2) & np.isfinite(trace.e_pred)
    if not np.any(mask):
        raise ValueError("window contains no prediction-error samples")
    errs = trace.e_pred[mask]
    if np.any(errs <= 0.0):
        raise ValueError("prediction error must be positive on the window")
    ts = trace.times[mask]
    slope, _ = np.polyfit(ts, np.log(errs), 1)
    return float(slope)

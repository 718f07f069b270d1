"""Fixed-step simulation of the plant together with its sub-predictor chain.

The stacked system (plant plus N cascaded predictors, each looking h/N
ahead of its predecessor) is integrated with classical RK4 under the method
of steps: every delayed read falls at a stored grid node or exactly halfway
between two, where cubic Hermite interpolation from stored values and
derivatives keeps the scheme at fourth order. The per-stage delay h/N is
snapped to an exact multiple of the step for this reason.

Each run generates, from the field's expressions, the derivative of all
N + 1 blocks and one whole RK4 step as straight-line float code
(expressions.compile_chain_step); nodes and their derivatives are stored in
preallocated arrays. The float operations are those of the block-by-block
scheme in the same order, so the traces equal it bitwise. A run is refused
with ValueError when it would store more than MAX_STATE_VALUES values or
when its generated step would exceed expressions.MAX_KERNEL_SOURCE
characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import compile_chain_step
from .model import CanonicalSystem, demo_system
from .synthesis import GainVector, gain_star

__all__ = [
    "SimConfig",
    "SimulationTrace",
    "integrate",
    "demo_config",
    "run_demo_variant",
    "fit_decay_rate",
    "DEMO_VARIANTS",
]

DIVERGENCE_NORM = 1e9
# nodes times state width per stored array; the demo runs need at most 60 001 x 12
MAX_STATE_VALUES = 10_000_000
DEMO_VARIANTS = ("ahmed", "ours_N1", "ours_N5")


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
        object.__setattr__(self, "lam", float(self.lam))
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


def _row_norms(d):
    """Euclidean norm over the last axis, bitwise equal to np.linalg.norm per row."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


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
    # numpy's power, not Python's: the two can differ in the last bit
    inj_gain = (lam ** np.arange(1, n + 1) * np.asarray(config.gain.l)).tolist()
    deriv, step = compile_chain_step(sys_.phi, N + 1, inj_gain, dt)
    u_fn = sys_._u_fn
    hist = np.asarray(config.predictor_history)  # (N, n)
    hist_first = hist[:, 0].tolist()
    half_dt, eighth_dt = 0.5 * dt, 0.125 * dt
    # block 0 is the plant, block j the j-th predictor
    values = np.empty((steps + 1, N + 1, n))
    derivs = np.empty((steps + 1, N + 1, n))
    flat_values = values.reshape(steps + 1, width)
    flat_derivs = derivs.reshape(steps + 1, width)
    values[0, 0] = config.x0
    values[0, 1:] = hist

    def inputs(t):
        """Input of every block at time t: block j reads t - h + j h_e."""
        base = t - h
        return [u_fn(base + j * h_e) for j in range(N + 1)]

    y = flat_values[0].tolist()
    u_end, d_end = inputs(0.0), hist_first
    d_mids = [hist_first] * m  # the first m steps read history
    count = 1  # stored nodes
    divergent = True  # unless every node gets its derivative
    for k in range(steps + 1):
        try:
            k1 = deriv(y, u_end, d_end)
        except OverflowError:
            break
        flat_derivs[k] = k1
        if k == steps:
            divergent = False
            break
        if k >= m and k % m == 0:
            # delayed reads halfway between nodes k - m .. k, by cubic
            # Hermite interpolation, for the midpoint stages of the next m steps
            ys, fs = values[k - m : k + 1, 1:, 0], derivs[k - m : k + 1, 1:, 0]
            d_mids = (0.5 * (ys[:-1] + ys[1:]) + eighth_dt * (fs[:-1] - fs[1:])).tolist()
        t = k * dt
        try:
            # the two midpoint stages share their reads, as do the end stage
            # and the next node's derivative
            u_mid, u_end = inputs(t + half_dt), inputs(t + dt)
            d_end = values[k + 1 - m, 1:, 0].tolist() if k + 1 >= m else hist_first
            y = step(y, k1, u_mid, d_mids[k % m], u_end, d_end)
        except OverflowError:
            break
        if not all(abs(v) <= DIVERGENCE_NORM for v in y):  # NaN fails too
            break
        flat_values[k + 1] = y
        count = k + 2

    state = values[:count]
    # slot j - 1: block j at node k - j m minus block j - 1 at node
    # k - (j - 1) m, both on their history before zero; slot N:
    # xhat^N(t - h) - x(t), undefined before t = h
    diff = np.empty((count, N + 1, n))
    for j in range(1, N + 1):
        lead, lag = min(count, (j - 1) * m), min(count, j * m)
        if j > 1:
            diff[:lead, j - 1] = hist[j - 1] - hist[j - 2]
        diff[lead:lag, j - 1] = hist[j - 1] - state[: lag - lead, j - 1]
        diff[lag:, j - 1] = state[: count - lag, j] - state[lag - lead : count - lead, j - 1]
    offset = min(count, N * m)
    diff[:offset, N] = np.nan
    diff[offset:, N] = state[: count - offset, N] - state[offset:, 0]
    norms = _row_norms(diff)
    e_chain, e_pred = norms[:, :N], norms[:, N]
    epsilon = None
    if lam >= 1.0:
        stages = diff[:, :N]
        stages *= lam ** (-np.arange(1, n + 1))
        epsilon = _row_norms(stages)
    return SimulationTrace(
        times=np.arange(count) * dt,
        x=state[:, 0],
        xhat=state[:, 1:],
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


def demo_config(variant, h, t_end=60.0, dt=None):
    """Scenario for the bundled benchmark under one of three tunings.

    "ahmed": one predictor, scalar gain 2, injection gains (2, 1) - the
    tuning this design is compared against. "ours_N1": one predictor at the
    designed gains with scalar gain 1/h. "ours_N5": five predictors at the
    designed gains with scalar gain N/h.
    """
    if variant not in DEMO_VARIANTS:
        raise ValueError("variant must be one of %s" % (DEMO_VARIANTS,))
    system = demo_system(h)
    if variant == "ahmed":
        gain = GainVector(l=(2.0, 1.0), n=2)
        return SimConfig(system=system, gain=gain, lam=2.0, N=1, t_end=t_end, dt=dt)
    if variant == "ours_N1":
        return SimConfig(system=system, gain=gain_star(2), lam=1.0 / h, N=1, t_end=t_end, dt=dt)
    return SimConfig(system=system, gain=gain_star(2), lam=5.0 / h, N=5, t_end=t_end, dt=dt)


def run_demo_variant(variant, h, t_end=60.0, dt=None):
    """Simulate the bundled benchmark under one of the demo_config tunings."""
    return integrate(demo_config(variant, h, t_end=t_end, dt=dt))


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

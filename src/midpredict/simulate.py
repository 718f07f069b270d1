"""Fixed-step simulation of the plant together with its sub-predictor chain.

The stacked system (plant plus N cascaded predictors, each looking h/N
ahead of its predecessor) is integrated with classical RK4 under the method
of steps: every delayed read falls at a stored grid node or exactly halfway
between two, where cubic Hermite interpolation from stored values and
derivatives keeps the scheme at fourth order. The per-stage delay h/N is
snapped to an exact multiple of the step for this reason.

Each run generates, from the field's and the input's expressions, one
function that runs every node of all N + 1 blocks as straight-line float
code in one loop (expressions.compile_chain_run): inputs, delayed reads,
Hermite midpoints and the divergence test included. Nodes are appended to
an array('d'); of the derivatives only the first components of the
predictors at the last m + 1 nodes are kept, for the Hermite midpoints.
The float operations are those of the block-by-block scheme in the same
order, so the traces equal it bitwise. A run is refused with ValueError
when it would store more than MAX_STATE_VALUES values or when its
generated source would exceed expressions.MAX_KERNEL_SOURCE characters.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .expressions import compile_chain_run
from .model import CanonicalSystem, demo_system
from .synthesis import GainVector, gain_star

__all__ = [
    "SimConfig",
    "SimulationTrace",
    "integrate",
    "demo_config",
    "run_demo_variant",
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
        if self.system.h <= 0:
            raise ValueError("simulation requires a positive input delay")
        if self.N < 1:
            raise ValueError("at least one sub-predictor is required")
        if not 0 < self.lam < math.inf:
            raise ValueError("scalar gain must be finite and positive")
        object.__setattr__(self, "lam", float(self.lam))
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
        x0 = tuple(float(v) for v in x0)
        if not all(map(math.isfinite, x0)):
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", x0)
        hist = self.predictor_history
        if hist is None:
            hist = tuple(tuple(0.0 for _ in range(n)) for _ in range(self.N))
        if len(hist) != self.N or any(len(hv) != n for hv in hist):
            raise ValueError("predictor_history needs one n-vector per stage")
        hist = tuple(tuple(float(v) for v in hv) for hv in hist)
        if not all(math.isfinite(v) for hv in hist for v in hv):
            raise ValueError("predictor_history must be finite")
        object.__setattr__(self, "predictor_history", hist)


@dataclass
class SimulationTrace:
    times: np.ndarray
    x: np.ndarray  # (T, n) plant states
    xhat: np.ndarray  # (T, N, n) sub-predictor states
    e_chain: np.ndarray  # (T, N) per-stage error norms
    e_pred: np.ndarray  # (T,) |xhat^N(t-h) - x(t)|, NaN before t = h
    divergent: bool
    metadata: dict  # dt, the step used; nodes_per_stage_delay, the m with h/N = m dt


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
            "%.3g nodes of %d states exceed the budget of %d stored values; enlarge dt"
            % (steps + 1, width, MAX_STATE_VALUES)
        )
    # numpy's power, not Python's: the two can differ in the last bit
    inj_gain = (lam ** np.arange(1, n + 1) * np.asarray(config.gain.l)).tolist()
    run = compile_chain_run(sys_.phi, sys_.u_signal, N + 1, inj_gain, h, m, dt, DIVERGENCE_NORM)
    hist = np.asarray(config.predictor_history)  # (N, n)
    # block 0 is the plant, block j the j-th predictor; node 0 holds their histories
    out = array("d", chain(config.x0, *config.predictor_history))
    divergent = run(out, steps)
    count = len(out) // width
    state = np.frombuffer(out).reshape(count, N + 1, n)
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
    return SimulationTrace(
        times=np.arange(count) * dt,
        x=state[:, 0],
        xhat=state[:, 1:],
        e_chain=norms[:, :N],
        e_pred=norms[:, N],
        divergent=divergent,
        metadata={"dt": dt, "nodes_per_stage_delay": m},
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
    N = 1 if variant == "ours_N1" else 5
    lam = N / h if h > 0 else None  # else SimConfig refuses the delay first
    return SimConfig(system=system, gain=gain_star(2), lam=lam, N=N, t_end=t_end, dt=dt)


def run_demo_variant(variant, h, t_end=60.0, dt=None):
    """Simulate the bundled benchmark under one of the demo_config tunings."""
    return integrate(demo_config(variant, h, t_end=t_end, dt=dt))

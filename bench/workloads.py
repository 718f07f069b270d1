"""The benchmark's workloads: which CLI operations run, with which inputs.

A workload is a list of operations, each a `midpredict` argv plus the name
of the check that judges its outputs. The seed only permutes the order of
independent operations; an operation that reads another's output (design
and compare take the certified gain margin) always runs after it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

# The n = 2 bisection at this resolution meets one "unknown" LMI verdict.
GAINMARGIN_TOL = "0.005"
DELAY_SWEEP_MAX_N = 30
# about twice the time at which each run's convergence or divergence check
# is decided (ours_N1 at h = 0.5 first drops below 1e-3 at t = 16.9)
SIM_T_END = {
    ("ahmed", "0.25"): "20", ("ours_N1", "0.25"): "10", ("ours_N5", "0.25"): "6",
    ("ahmed", "0.5"): "20", ("ours_N1", "0.5"): "35", ("ours_N5", "0.5"): "10",
}
LINEAR_T_END = "40"
LINEAR_CONFIG = """\
# linear two-state chain: phi = 0, u = 0, unit delay
n = 2
h = 1.0
phi = ["0", "0"]
gamma = [0.0, 0.0]
u = "0"
"""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: str
    params: dict = field(default_factory=dict)
    needs: str | None = None  # operation whose gain margin fills "{gamma_m}"
    fault: str | None = None  # known program fault that makes this operation fail
    outdir: str = ""


def _design_loop(inputs):
    ops = [
        Op("synth", ("synth", "--n", "2", "--delta", "0.25", "--out", "{outdir}/gains.kv"),
           "synth", {"n": 2, "delta": 0.25}),
        Op("spectrum-n2-d1", ("spectrum", "--n", "2", "--delta", "1"),
           "spectrum", {"n": 2, "delta": 1.0, "scaled": False, "csv": "spectrum.csv"}),
        Op("spectrum-n2-d0.25", ("spectrum", "--n", "2", "--delta", "0.25"),
           "spectrum", {"n": 2, "delta": 0.25, "scaled": False, "csv": "spectrum.csv"}),
        Op("spectrum-n3-d1", ("spectrum", "--n", "3", "--delta", "1"),
           "spectrum", {"n": 3, "delta": 1.0, "scaled": False, "csv": "spectrum.csv"},
           fault="F1"),
        Op("repro-spectrum025", ("repro", "--figure", "spectrum025"),
           "spectrum", {"n": 2, "delta": 0.25, "scaled": True, "csv": "spectrum025.csv"}),
        Op("margins-n2", ("margins", "--n", "2"), "margins", {"n": 2}),
        Op("gainmargin-n1", ("gainmargin", "--n", "1", "--tol", GAINMARGIN_TOL),
           "gainmargin", {"n": 1}),
        Op("gainmargin-n2", ("gainmargin", "--n", "2", "--tol", GAINMARGIN_TOL),
           "gainmargin", {"n": 2}),
        Op("design", ("design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25",
                      "--gamma-m", "{gamma_m}"),
           "design", {"n": 2, "gamma_phi": 1.1, "h": 0.25}, needs="gainmargin-n2"),
        Op("compare", ("compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1",
                       "--gamma-phi", "1.1", "--gamma-m", "{gamma_m}"),
           "compare", {}, needs="gainmargin-n2"),
    ]
    return ops


def _delay_sweep(inputs):
    return [
        Op("margins-n%d" % n, ("margins", "--n", str(n)), "margins", {"n": n},
           fault="F2" if n >= 27 else None)
        for n in range(1, DELAY_SWEEP_MAX_N + 1)
    ]


def _demo_sims(inputs):
    config = os.path.join(inputs, "linear.kv")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(LINEAR_CONFIG)
    ops = []
    for h in ("0.25", "0.5"):
        for variant in ("ahmed", "ours_N1", "ours_N5"):
            diverges = variant == "ahmed" and h == "0.5"
            ops.append(Op(
                "simulate-%s-h%s" % (variant, h),
                ("simulate", "--variant", variant, "--h", h, "--t-end", SIM_T_END[variant, h]),
                "simulate", {"diverges": diverges},
            ))
    ops.append(Op(
        "simulate-linear",
        ("simulate", "--config", config, "--N", "1", "--t-end", LINEAR_T_END),
        "decay", {"n": 2, "lam": 1.0, "window": (10.0, 40.0)},
    ))
    return ops


WORKLOADS = {
    "design_loop": _design_loop,
    "delay_sweep": _delay_sweep,
    "demo_sims": _demo_sims,
}


def build(workload, seed, root):
    """Prepare the workload's inputs under root and return its ops in run order.

    Each op gets its own output directory, passed to the CLI as --outdir.
    """
    base = os.path.join(root, workload)
    inputs = os.path.join(base, "inputs")
    os.makedirs(inputs, exist_ok=True)
    ops = WORKLOADS[workload](inputs)
    rng = random.Random(seed)
    order = [op for op in ops if op.needs is None]
    rng.shuffle(order)
    for op in ops:
        if op.needs is not None:
            after = [o.name for o in order].index(op.needs) + 1
            order.insert(rng.randint(after, len(order)), op)
    out = []
    for op in order:
        outdir = os.path.join(base, op.name)
        os.makedirs(outdir, exist_ok=True)
        argv = ("--outdir", outdir) + tuple(a.replace("{outdir}", outdir) for a in op.argv)
        out.append(replace(op, argv=argv, outdir=outdir))
    return out

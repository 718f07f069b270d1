"""Canonical triangular systems, weighted dilations, and Lipschitz bookkeeping.

A system is a chain of integrators driven by a triangular vector field: the
state map A shifts coordinates up (component i of Ax is ``x[i+1]``, last
component 0) and the output reads the first coordinate. Neither A nor C is
ever stored densely here.
"""

from __future__ import annotations

import ast as _pyast
from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    EvaluationError,
    Node,
    compile_expression,
    free_variables,
    parse_expression,
)

__all__ = [
    "ModelError",
    "CanonicalSystem",
    "canonical_weights",
    "dilate",
    "dilated_error_transform",
    "aggregate_lipschitz",
    "check_triangular",
    "shift_map",
    "make_system",
    "parse_system_config",
    "load_system",
    "demo_system",
    "sample_component_slopes",
]


class ModelError(ValueError):
    pass


def canonical_weights(n):
    """Weight tuple (1, 2, ..., n) used throughout the design."""
    if n < 1:
        raise ModelError("dimension must be positive")
    return tuple(range(1, n + 1))


def dilate(r, lam, x):
    """Scale component i of x by lam**r[i]. Weights must be positive."""
    if lam <= 0:
        raise ModelError("dilation parameter must be positive")
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != x.shape:
        raise ModelError("weight and vector lengths differ")
    if np.any(r <= 0):
        raise ModelError("weights must be positive")
    return x * lam ** r


def dilated_error_transform(r, lam, e):
    """Map an error e to its dilated form using the inverse dilation.

    Only lam >= 1 is accepted: the Lipschitz bound that motivates reporting
    the dilated error holds on that range.
    """
    if lam < 1:
        raise ModelError("dilated errors are defined for lam >= 1")
    return dilate(r, 1.0 / lam, e)


def aggregate_lipschitz(gamma):
    """Combine per-component Lipschitz constants into a single constant."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ModelError("Lipschitz constants must be nonnegative")
    return float(np.sqrt(np.sum(g * g)))


def shift_map(x):
    """Apply the up-shift A: (Ax)_i = x_{i+1}, (Ax)_n = 0."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    out[:-1] = x[1:]
    return out


@dataclass(frozen=True)
class CanonicalSystem:
    """Input-delayed system in observability canonical form.

    phi holds one parsed expression per state component, component i over
    x1..xi and u. gamma lists per-component Lipschitz constants supplied by
    the user; h is the input delay; u_signal is an expression of t.
    """

    n: int
    phi: tuple
    gamma: tuple
    h: float
    u_signal: Node
    _phi_fns: tuple = field(init=False, repr=False, compare=False)
    _u_fn: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arg_names = ["x%d" % (i + 1) for i in range(self.n)] + ["u"]
        phi_fns = tuple(compile_expression(p, arg_names) for p in self.phi)
        object.__setattr__(self, "_phi_fns", phi_fns)
        object.__setattr__(self, "_u_fn", compile_expression(self.u_signal, ["t"]))

    def phi_value(self, x, u):
        """Evaluate the triangular field at state x and input value u."""
        args = list(x) + [u]
        return np.array([f(*args) for f in self._phi_fns])

    def input_value(self, t):
        return self._u_fn(t)


def check_triangular(system):
    """True iff component i of phi only references x1..xi and u."""
    if len(system.phi) != system.n:
        raise ModelError("phi must have n entries")
    for i, expr in enumerate(system.phi):
        allowed = {"x%d" % (j + 1) for j in range(i + 1)} | {"u"}
        if not free_variables(expr) <= allowed:
            return False
    return True


def make_system(n, phi_sources, gamma, h, u_source="0"):
    """Build a CanonicalSystem from expression text.

    Raises ModelError on broken invariants (triangularity, signs, lengths).
    """
    if len(phi_sources) != n:
        raise ModelError("expected %d field components, got %d" % (n, len(phi_sources)))
    if len(gamma) != n:
        raise ModelError("expected %d Lipschitz constants" % n)
    if any(g < 0 for g in gamma):
        raise ModelError("Lipschitz constants must be nonnegative")
    if h < 0:
        raise ModelError("delay must be nonnegative")
    state_vars = ["x%d" % (i + 1) for i in range(n)]
    phi = tuple(parse_expression(src, state_vars + ["u"]) for src in phi_sources)
    u_signal = parse_expression(u_source, ["t"])
    system = CanonicalSystem(
        n=n,
        phi=phi,
        gamma=tuple(float(g) for g in gamma),
        h=float(h),
        u_signal=u_signal,
    )
    if not check_triangular(system):
        raise ModelError("field is not triangular: component i may use x1..xi and u only")
    return system


def parse_system_config(text):
    """Parse the key-value system definition format.

    Lines look like ``key = value`` with ``#`` comments. Recognized keys:
    n (int), h (float), phi (list of expression strings), gamma (list of
    numbers), u (expression string of t, optional, default "0").
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError("line %d: expected 'key = value'" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            entries[key] = _pyast.literal_eval(value.strip())
        except (ValueError, SyntaxError):
            raise ModelError("line %d: cannot parse value for '%s'" % (lineno, key))
    for required in ("n", "h", "phi", "gamma"):
        if required not in entries:
            raise ModelError("missing required key '%s'" % required)
    unknown = set(entries) - {"n", "h", "phi", "gamma", "u"}
    if unknown:
        raise ModelError("unknown key '%s'" % sorted(unknown)[0])
    return make_system(
        n=int(entries["n"]),
        phi_sources=list(entries["phi"]),
        gamma=list(entries["gamma"]),
        h=float(entries["h"]),
        u_source=entries.get("u", "0"),
    )


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_config(fh.read())


def demo_system(h=0.25):
    """Bundled two-state benchmark with a saturating nonlinearity.

    The second component mixes a tanh term with a bilinear input term; with
    the bounded demo input the second component has Lipschitz constant 1.1.
    """
    return make_system(
        n=2,
        phi_sources=["0", "-x1 + 0.5*tanh(x1+x2) + x1*u"],
        gamma=[0.0, 1.1],
        h=h,
        u_source="0.1*sin(0.1*t)",
    )


def sample_component_slopes(system, box, samples=2000, u_range=(-0.1, 0.1), seed=0):
    """Sanity helper: sample finite-difference slopes of each phi component.

    box is a list of (lo, hi) per state coordinate. Returns one sampled
    slope bound per component for comparison against the declared gamma.
    This is a spot check, not a certified bound.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if lo.shape != (system.n,):
        raise ModelError("box must have one (lo, hi) pair per coordinate")
    best = np.zeros(system.n)
    for _ in range(samples):
        x = lo + (hi - lo) * rng.random(system.n)
        d = rng.standard_normal(system.n)
        d /= np.linalg.norm(d)
        step = 1e-6 * max(1.0, np.linalg.norm(x))
        u = u_range[0] + (u_range[1] - u_range[0]) * rng.random()
        try:
            f0 = system.phi_value(x, u)
            f1 = system.phi_value(x + step * d, u)
        except EvaluationError:
            continue
        slopes = np.abs(f1 - f0) / step
        best = np.maximum(best, slopes)
    return best

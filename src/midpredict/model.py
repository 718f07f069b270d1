"""Canonical triangular systems: their definition file, checks and demo.

A system is a chain of integrators driven by a triangular vector field: the
state map A shifts coordinates up (component i of Ax is ``x[i+1]``, last
component 0) and the output reads the first coordinate. Neither A nor C is
ever stored densely here. The per-component Lipschitz constants gamma are
stored as the user declares them.
"""

from __future__ import annotations

import ast as _pyast
import math
import numbers
from dataclasses import dataclass

from .expressions import DepthError, Node, UnknownNameError, eval_expression, parse_expression

__all__ = [
    "ModelError",
    "CanonicalSystem",
    "make_system",
    "parse_system_config",
    "load_system",
    "demo_system",
]


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class CanonicalSystem:
    """Input-delayed system in observability canonical form.

    phi holds one parsed expression per state component, component i over
    x1..xi and u. gamma lists per-component Lipschitz constants supplied by
    the user; h is the input delay; u_signal is an expression of t. The
    system holds only these ASTs: phi_value and input_value walk them, and
    the simulator compiles them into its run (expressions.compile_chain_run).
    """

    n: int
    phi: tuple
    gamma: tuple
    h: float
    u_signal: Node

    def phi_value(self, x, u):
        """Evaluate the triangular field at state x and input value u, as a
        numpy array; the module itself does not import numpy."""
        import numpy as np

        bindings = {"x%d" % i: v for i, v in enumerate(x, 1)}
        bindings["u"] = u
        return np.array([eval_expression(node, bindings) for node in self.phi])

    def input_value(self, t):
        return eval_expression(self.u_signal, {"t": t})


def _finite_nonnegative(value):
    """True for a finite real number >= 0; a bool is not a number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value < math.inf


def _parse_field(name, src, allowed_vars):
    try:
        return parse_expression(src, allowed_vars)
    except DepthError as exc:
        raise ModelError("field %s %s" % (name, exc)) from None


def make_system(n, phi_sources, gamma, h, u_source="0"):
    """Build a CanonicalSystem from expression text.

    n is an integer (not a bool), phi_sources a list or tuple of n strings,
    u_source a string, gamma n finite, nonnegative real numbers and h one.
    Component i is parsed over x1..xi and u, so a field that reads a later
    state is refused. Raises ModelError on a value of another type or range
    and on a field that is not triangular.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ModelError("n must be an integer")
    if not (isinstance(phi_sources, (list, tuple))
            and all(isinstance(s, str) for s in phi_sources)):
        raise ModelError("phi must be a list of expression strings")
    if len(phi_sources) != n:
        raise ModelError("expected %d field components, got %d" % (n, len(phi_sources)))
    if not isinstance(u_source, str):
        raise ModelError("u must be an expression string")
    if not isinstance(gamma, (list, tuple)) or len(gamma) != n:
        raise ModelError("expected %d Lipschitz constants" % n)
    if not all(_finite_nonnegative(g) for g in gamma):
        raise ModelError("Lipschitz constants must be finite, nonnegative numbers")
    if not _finite_nonnegative(h):
        raise ModelError("delay must be a finite, nonnegative number")
    state_vars = ["x%d" % (i + 1) for i in range(n)]
    phi = []
    for i, src in enumerate(phi_sources, 1):
        try:
            phi.append(_parse_field("phi[%d]" % i, src, state_vars[:i] + ["u"]))
        except UnknownNameError as exc:
            if exc.name not in state_vars:
                raise
            # a field's other fault, such as a call x2(...), is reported first
            _parse_field("phi[%d]" % i, src, state_vars + ["u"])
            raise ModelError(
                "field is not triangular: component i may use x1..xi and u only") from None
    return CanonicalSystem(
        n=n,
        phi=tuple(phi),
        gamma=tuple(float(g) for g in gamma),
        h=float(h),
        u_signal=_parse_field("u", u_source, ["t"]),
    )


def parse_system_config(text):
    """Parse the key-value system definition format.

    Lines look like ``key = value`` with ``#`` comments. Recognized keys:
    n (integer), h (number), phi (list of expression strings), gamma (list of
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
        n=entries["n"],
        phi_sources=entries["phi"],
        gamma=entries["gamma"],
        h=entries["h"],
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

"""Span tracing of midpredict from outside the program.

Tracer.install() replaces every public module-level function of each layer
with a wrapper that records one span per call: a name, start and end times
and the id of the enclosing span. A module that did `from .x import f`
holds its own binding to f, so every `midpredict.*` attribute bound to an
original is rebound; `CanonicalSystem.phi_value` and `input_value` are
patched on the class, and scipy's `minimize` where `gainmargin` bound it.
uninstall() puts the originals back. Spans live in typed arrays until the
run ends and are written with dump().
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "expressions", "model", "synthesis", "polynomials", "spectrum",
          "margins", "gainmargin", "simulate", "tradeoff")
STURM = ("polynomials.count_real_roots_below", "polynomials.count_real_roots_above",
         "polynomials.count_real_roots_between")


class Tracer:
    def __init__(self):
        self.names = []
        self.patches = None  # (owner, attribute, original, wrapper), built on first install
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; wrappers keep their bindings."""
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        self.stack[:] = [-1]
        self.counters.update(certified=0, unknown_s=0.0, steps=0, nfev=0, points=0)

    def _wrap(self, fn, label, observe=None):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, end[i] - start[i])
            return result

        return wrapper

    def _observers(self):
        c = self.counters

        def lmi(args, result, seconds):
            if result[0]:
                c["certified"] += 1
            else:
                c["unknown_s"] += seconds

        def integrate(args, result, seconds):
            c["steps"] += len(result.times) - 1

        def minimize(args, result, seconds):
            c["nfev"] += int(result.nfev)

        def qp_eval(args, result, seconds):
            c["points"] += int(np.size(args[1]))

        return {
            "gainmargin.lmi_feasible": lmi,
            "simulate.integrate": integrate,
            "scipy.minimize": minimize,
            "spectrum.qp_eval": qp_eval,
        }

    def _targets(self):
        """(owner, attribute, label) for every callable to trace."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module("midpredict." + layer)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    out.append((module, attr, "%s.%s" % (layer, attr)))
        model = importlib.import_module("midpredict.model")
        for method in ("phi_value", "input_value"):
            out.append((model.CanonicalSystem, method, "model." + method))
        out.append((importlib.import_module("midpredict.gainmargin"), "minimize", "scipy.minimize"))
        return out

    def install(self):
        if self.patches is None:
            observers = self._observers()
            wrappers = {}
            for owner, attr, label in self._targets():
                original = getattr(owner, attr)
                wrappers.setdefault(id(original), (original, self._wrap(original, label, observers.get(label))))
            model = importlib.import_module("midpredict.model")
            owners = [m for k, m in sys.modules.items() if k == "midpredict" or k.startswith("midpredict.")]
            self.patches = [
                (owner, attr, value, wrappers[id(value)][1])
                for owner in owners + [model.CanonicalSystem]
                for attr, value in vars(owner).items()
                if id(value) in wrappers and wrappers[id(value)][0] is value
            ]
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches or ():
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self):
        """Copies of the span arrays (a live buffer view would pin their size)."""
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset()."""
        name, parent, start, end = self.arrays()
        dur = end - start
        ids = {label: i for i, label in enumerate(self.names)}
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - children
        layer_of = np.array([LAYERS.index(l.split(".")[0]) if l.split(".")[0] in LAYERS else -1
                             for l in self.names] or [-1])
        span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=int)

        def self_s(layer):
            return float(own[span_layer == LAYERS.index(layer)].sum())

        def calls(*labels):
            return int(np.isin(name, [ids[l] for l in labels if l in ids]).sum())

        def seconds(*labels):
            """Time in the outermost spans among labels (nested ones count once)."""
            member = np.isin(name, [ids[l] for l in labels if l in ids])
            covered = np.zeros(len(name), dtype=bool)
            up = parent.copy()
            while np.any(up >= 0):
                live = up >= 0
                covered[live] |= member[up[live]]
                up[live] = parent[up[live]]
            return float(dur[member & ~covered].sum())

        c = self.counters
        queries = calls("gainmargin.lmi_feasible")
        integrate_s = seconds("simulate.integrate")
        lbfgs_s = seconds("scipy.minimize")
        return {
            "cli.self_s": self_s("cli"),
            "synthesis.gain_star_calls": calls("synthesis.gain_star"),
            "synthesis.gain_star_s": seconds("synthesis.gain_star"),
            "polynomials.sturm_counts": calls(*STURM),
            "polynomials.sturm_s": seconds(*STURM),
            "polynomials.rightmost_root_s": seconds("polynomials.rightmost_root"),
            "margins.crossing_frequencies_calls": calls("margins.crossing_frequencies"),
            "margins.crossing_frequencies_s": seconds("margins.crossing_frequencies"),
            "margins.partition_s": seconds("margins.stability_partition", "margins.partition_for_gain"),
            "margins.self_s": self_s("margins"),
            "spectrum.roots_in_region_s": seconds("spectrum.roots_in_region"),
            "spectrum.count_roots_region_calls": calls("spectrum.count_roots_region"),
            "spectrum.qp_eval_calls": calls("spectrum.qp_eval"),
            "spectrum.qp_eval_points": c["points"],
            "spectrum.self_s": self_s("spectrum"),
            "gainmargin.max_gain_margin_s": seconds("gainmargin.max_gain_margin"),
            "gainmargin.lmi_queries": queries,
            "gainmargin.certified_ratio": c["certified"] / queries if queries else 0.0,
            "gainmargin.unknown_s": c["unknown_s"],
            "gainmargin.lbfgs_nfev": c["nfev"],
            "gainmargin.lbfgs_s": lbfgs_s,
            "gainmargin.oracle_ms": 1e3 * lbfgs_s / c["nfev"] if c["nfev"] else 0.0,
            "simulate.integrate_s": integrate_s,
            "simulate.steps_per_s": c["steps"] / integrate_s if integrate_s else 0.0,
            "simulate.self_s": self_s("simulate"),
            "model.phi_value_calls": calls("model.phi_value"),
            "model.phi_value_s": seconds("model.phi_value"),
            "model.input_value_calls": calls("model.input_value"),
            "tradeoff.conditions_s": seconds("tradeoff.ahmed_conditions", "tradeoff.lei_conditions"),
        }

    def dump(self, path):
        """Write the recorded spans: parallel arrays plus the name table."""
        name, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, name=name, parent=parent, start=start - t0, end=end - t0,
                 names=np.array(self.names))

"""Checks of each operation's outputs against bench.reference.

A check reads what the operation wrote (files in its output directory and
its captured stdout) and raises CheckError at the first property that does
not hold. No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

import reference as ref


class CheckError(Exception):
    pass


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    outdir: str


def _require(cond, message, *args):
    if not cond:
        raise CheckError(message % args if args else message)


def _read_lines(path, schema):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0] == "# schema: %s" % schema, "%s: schema line missing", path)
    return lines[1:]


def _read_rows(path, schema):
    """Rows after the schema and header lines, as floats."""
    lines = _read_lines(path, schema)
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _read_kv(path):
    out = {}
    for line in _read_lines(path, "synth.v1"):
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    return out


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def gain_margin_of(outdir):
    """Certified lower bound written by a gainmargin operation, as text."""
    (row,) = _read_rows(os.path.join(outdir, "gainmargin.csv"), "gainmargin.v1")
    return repr(row[1])


def check_synth(op, res):
    n, delta = op.params["n"], op.params["delta"]
    kv = _read_kv(os.path.join(res.outdir, "gains.kv"))
    sig = kv["sigma_star"]
    ls = [kv["l%d_star" % i] for i in range(1, n + 1)]
    scaled = [kv["l%d_at_delta" % i] for i in range(1, n + 1)]
    if n == 2:
        _require(abs(sig - (-2.0 + math.sqrt(2.0))) <= 1e-12, "sigma_star %r != -2 + sqrt 2", sig)
    _require(abs(sig - ref.float_gains(n)[0]) <= 1e-12, "sigma_star %r off the reference", sig)
    for k, r in enumerate(ref.derivative_residuals(n, sig, ls)):
        _require(r <= 1e-8, "derivative condition of order %d leaves relative residual %.3g", k, r)
    for k, (lk, sk) in enumerate(zip(ls, scaled), start=1):
        _require(_close(sk, lk / delta ** k, 1e-14), "scaled gain l%d %r != l%d / delta^%d", k, sk, k, k)
    _require(kv["multiplicity"] == n + 1, "multiplicity %r != n + 1", kv["multiplicity"])


def check_spectrum(op, res):
    n, delta, scaled = op.params["n"], op.params["delta"], op.params["scaled"]
    sig, ls = ref.float_gains(n)
    if scaled:
        ls = tuple(v / delta ** k for k, v in enumerate(ls, start=1))
    rows = _read_rows(os.path.join(res.outdir, op.params["csv"]), "spectrum.v1")
    _require(rows, "no roots reported")
    roots = [(complex(re_, im_), int(m)) for re_, im_, m in rows]
    for s, m in roots:
        value, scale = ref.char_value(ls, delta, s)
        _require(m >= 1, "multiplicity %d at %r", m, s)
        _require(abs(value) <= 1e-8 * scale, "|D(%r)| / scale = %.3g", s, abs(value) / scale)
    count = re.search(r": (\d+) roots", res.stdout)
    if count:
        _require(sum(m for _, m in roots) == int(count.group(1)),
                 "multiplicities sum to %d, reported count %s", sum(m for _, m in roots), count.group(1))
    if scaled or delta == 1.0:
        target = sig / delta
        top, mult = max(roots, key=lambda r: r[0].real)
        _require(abs(top - target) <= 1e-8 * max(1.0, abs(target)),
                 "dominant root %r != sigma_star / delta = %r", top, target)
        _require(mult == n + 1, "dominant multiplicity %d != n + 1", mult)
        others = [s for s, _ in roots if s != top]
        _require(all(s.real < target for s in others), "a root lies right of the designed root")
    else:
        _require(all(s.real < 0 for s, _ in roots), "a root has nonnegative real part")


def _population(n):
    return 1 if n <= 8 else 3 if n <= 25 else 5


def check_margins(op, res):
    n = op.params["n"]
    rows = _read_rows(os.path.join(res.outdir, "partition.csv"), "partition.v1")
    _require(rows and all(int(r[0]) == n for r in rows), "partition rows missing or mislabelled")
    los = [r[1] for r in rows]
    his = [r[2] for r in rows]
    counts = [int(r[3]) for r in rows]
    _require(los[0] == 0.0, "partition does not start at delay 0")
    _require(all(h == l for h, l in zip(his, los[1:])), "intervals are not contiguous")
    _require(all(c >= 0 for c in counts), "negative unstable count")
    printed = re.findall(r"w = (\S+)\s+arg", res.stdout)
    ws = ref.crossings(n)
    _require(len(printed) == len(ws) == _population(n),
             "crossing frequencies: %d printed, %d found, %d expected",
             len(printed), len(ws), _population(n))
    _, ls = ref.float_gains(n)
    delays = sorted((d, w) for w in ws for d in ref.crossing_delays(n, w, his[-1]))
    matched = 0
    for boundary, before, after in zip(los[1:], counts, counts[1:]):
        hits = [w for d, w in delays if _close(d, boundary, 1e-9)]
        _require(hits, "boundary %r is not a crossing delay", boundary)
        for w in hits:
            value, scale = ref.char_value(ls, boundary, 1j * w)
            _require(abs(value) <= 1e-8 * scale, "D(j%r; %r) does not vanish", w, boundary)
        step = sum(2 * ref.crossing_direction(ls, w, boundary) for w in hits)
        _require(after - before == step, "count steps by %d at %r, crossings give %d",
                 after - before, boundary, step)
        matched += len(hits)
    _require(matched == len(delays), "%d crossing delays below delta_max, %d boundaries match",
             len(delays), matched)
    routh = ref.routh_unstable_count(ls)
    _require(counts[0] == routh, "delay-free count %d != exact Routh count %d", counts[0], routh)
    at_one = [c for lo, hi, c in zip(los, his, counts) if lo < 1.0 < hi]
    _require(at_one == [0], "interval containing delay 1 has count %s, not 0", at_one)
    if n == 2:
        _require(abs(los[1] - 2.52316) <= 1e-5, "first crossing %r != 2.52316", los[1])


def _read_certificate(path, n):
    lines = _read_lines(path, "lmi-certificate.v1")
    gamma = float(lines[0].partition("=")[2])
    mats = {}
    for k in range(6):
        head = lines[1 + k * (n + 1)]
        body = lines[2 + k * (n + 1) : 2 + k * (n + 1) + n]
        mats[head.rstrip(" =")] = np.array([[float(v) for v in row.split()] for row in body])
    return gamma, mats


def check_gainmargin(op, res):
    n = op.params["n"]
    (row,) = _read_rows(os.path.join(res.outdir, "gainmargin.csv"), "gainmargin.v1")
    lower, upper = row[1], row[2]
    _, ls = ref.float_gains(n)
    _require(_close(upper, ls[-1], 1e-12), "upper bound %r != l_n = %r", upper, ls[-1])
    _require(0.0 < lower <= upper, "bracket (%r, %r) is not ordered and certified", lower, upper)
    gamma, m = _read_certificate(os.path.join(res.outdir, "certificate.txt"), n)
    _require(gamma == lower, "certificate slope %r != reported lower bound %r", gamma, lower)
    w = ref.descriptor_W(ls, 1.0, gamma, m["P"], m["R"], m["S"], m["P2"], m["P3"], m["P4"])
    top = np.max(np.linalg.eigvalsh((w + w.T) / 2))
    _require(top < 0.0, "lambda_max(W) = %.3g is not negative", top)
    for name in ("P", "R", "S"):
        low = np.min(np.linalg.eigvalsh((m[name] + m[name].T) / 2))
        _require(low > 0.0, "%s has eigenvalue %.3g", name, low)


def _printed(stdout, label):
    found = re.search(re.escape(label) + r"\s*=\s*(\S+)", stdout)
    _require(found, "'%s' not printed", label)
    return float(found.group(1))


def check_design(op, res):
    p = op.params
    gamma_m = float(op.argv[op.argv.index("--gamma-m") + 1])
    lam_star = max(p["gamma_phi"] / gamma_m, 1.0)
    stages = max(1, math.ceil(lam_star * p["h"]))
    _require(_close(_printed(res.stdout, "lambda_star"), lam_star, 1e-5), "lambda_star off")
    _require(_printed(res.stdout, "sub-predictors N") == stages, "N != ceil(lambda_star h) = %d", stages)
    lam = _printed(res.stdout, "scalar gain lambda")
    _require(_close(lam * p["h"] / stages, 1.0, 1e-5), "lambda h / N = %r", lam * p["h"] / stages)
    rate = _printed(res.stdout, "per time unit")
    _require(_close(rate, ref.float_gains(p["n"])[0] * stages / p["h"], 1e-5), "decay rate off")


def check_compare(op, res):
    for method in ("ahmed", "lei"):
        line = re.search(r"^%s\s+(\S+)" % method, res.stdout, re.MULTILINE)
        _require(line, "no verdict for %s", method)
        _require(line.group(1) == "False", "%s screen reported satisfied", method)


def _read_trace(res):
    path = os.path.join(res.outdir, "trace.csv")
    _read_lines(path, "trace.v1")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    with open(os.path.join(res.outdir, "manifest.json"), encoding="utf-8") as fh:
        divergent = json.load(fh)["divergent"]
    nodes = re.search(r"(\d+) nodes", res.stdout)
    _require(nodes and int(nodes.group(1)) == len(data), "node count differs from trace rows")
    t = data[:, 0]
    _require(t[0] == 0.0 and np.all(np.diff(t) > 0), "trace times are not increasing from 0")
    return t, data[:, -1], divergent


def check_simulate(op, res):
    t, err, divergent = _read_trace(res)
    finite = np.isfinite(err)
    if op.params["diverges"]:
        _require(divergent or err[finite][-1] > 1e3, "run does not diverge (final error %.3g)",
                 err[finite][-1])
        return
    _require(not divergent and finite.any(), "run diverged")
    _require(err[finite][-1] < 1e-3, "final prediction error %.3g >= 1e-3", err[finite][-1])
    below = t[finite][err[finite] < 1e-3]
    _require(below[0] < 60.0, "prediction error first below 1e-3 at t = %.3g", below[0])


def check_decay(op, res):
    p = op.params
    t, err, divergent = _read_trace(res)
    _require(not divergent, "run diverged")
    lo, hi = p["window"]
    mask = (t >= lo) & (t <= hi) & np.isfinite(err)
    _require(mask.sum() > 10 and np.all(err[mask] > 0), "no positive errors in the fit window")
    rate = ref.fit_decay_rate(t[mask], err[mask], p["n"])
    target = ref.float_gains(p["n"])[0] * p["lam"]
    _require(abs(rate / target - 1.0) <= 0.05, "fitted decay rate %.5g not within 5%% of %.5g",
             rate, target)


CHECKS = {
    "synth": check_synth,
    "spectrum": check_spectrum,
    "margins": check_margins,
    "gainmargin": check_gainmargin,
    "design": check_design,
    "compare": check_compare,
    "simulate": check_simulate,
    "decay": check_decay,
}


def verdict(op, res):
    """None when the operation's outputs pass its check, else the reason."""
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return "exit code %d: %s" % (res.rc, tail[0])
    try:
        CHECKS[op.check](op, res)
    except CheckError as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None

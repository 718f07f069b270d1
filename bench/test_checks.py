"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

import os
import shutil
import sys

import numpy as np
import pytest

import checks
import reference as ref
import run
import workloads

sys.path.insert(0, run.SRC)
import midpredict.cli as cli  # noqa: E402


def _op(tmp_path, workload, name):
    (op,) = [o for o in workloads.build(workload, 0, str(tmp_path)) if o.name == name]
    return op


def _run(op):
    *_, result = run.execute(cli, op)
    assert checks.verdict(op, result) is None
    return result


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("row", [0, 1, 2, 3])
def test_margins_rejects_count_shifted_by_two(tmp_path, row):
    op = _op(tmp_path, "delay_sweep", "margins-n2")
    result = _run(op)

    def shift(lines):
        cells = lines[2 + row].split(",")
        cells[3] = str(int(cells[3]) + 2)
        lines[2 + row] = ",".join(cells)
        return lines

    _rewrite(os.path.join(op.outdir, "partition.csv"), shift)
    assert checks.verdict(op, result) is not None


@pytest.mark.parametrize("key", ["l1_star", "l2_star"])
def test_synth_rejects_gain_perturbed_by_1e6(tmp_path, key):
    op = _op(tmp_path, "design_loop", "synth")
    result = _run(op)

    def perturb(lines):
        return [
            "%s = %r" % (key, float(line.partition("=")[2]) + 1e-6) if line.startswith(key) else line
            for line in lines
        ]

    _rewrite(os.path.join(op.outdir, "gains.kv"), perturb)
    assert "derivative condition" in checks.verdict(op, result)


def test_gainmargin_rejects_W_with_one_positive_eigenvalue(tmp_path):
    op = _op(tmp_path, "design_loop", "gainmargin-n1")
    result = _run(op)
    path = os.path.join(op.outdir, "certificate.txt")
    gamma, m = checks._read_certificate(path, 1)
    r = float(m["R"][0, 0] + 10.0 * (abs(m["P3"][0, 0]) + 1.0))
    _, ls = ref.float_gains(1)
    w = ref.descriptor_W(ls, 1.0, gamma, m["P"], np.array([[r]]), m["S"], m["P2"], m["P3"], m["P4"])
    assert np.sum(np.linalg.eigvalsh(w) > 0) == 1

    def grow_r(lines):
        at = lines.index("R =") + 1
        lines[at] = "  %r" % r
        return lines

    _rewrite(path, grow_r)
    assert "lambda_max(W)" in checks.verdict(op, result)


def test_simulate_rejects_ahmed_h05_run_that_does_not_diverge(tmp_path):
    diverging = _op(tmp_path, "demo_sims", "simulate-ahmed-h0.5")
    _run(diverging)
    converging = _op(tmp_path, "demo_sims", "simulate-ahmed-h0.25")
    result = _run(converging)
    shutil.rmtree(diverging.outdir)
    shutil.copytree(converging.outdir, diverging.outdir)
    result = checks.Result(result.rc, result.stdout, result.stderr, diverging.outdir)
    assert "does not diverge" in checks.verdict(diverging, result)


def test_spectrum_rejects_moved_dominant_root(tmp_path):
    op = _op(tmp_path, "design_loop", "repro-spectrum025")
    result = _run(op)

    def move(lines):
        top = max(range(2, len(lines)), key=lambda i: float(lines[i].split(",")[0]))
        cells = lines[top].split(",")
        cells[0] = repr(float(cells[0]) + 1e-6)
        lines[top] = ",".join(cells)
        return lines

    _rewrite(os.path.join(op.outdir, "spectrum025.csv"), move)
    assert checks.verdict(op, result) is not None


def test_known_fault_f1_fails(tmp_path):
    op = _op(tmp_path, "design_loop", "spectrum-n3-d1")
    assert op.fault == "F1"
    *_, result = run.execute(cli, op)
    assert checks.verdict(op, result) is not None


def test_routh_count_matches_closed_forms():
    # s^2 + s + 1 is stable; s^2 - s + 1 has two roots right of the axis;
    # (s - 1)(s + 2) = s^2 + s - 2 has one
    assert ref.routh_unstable_count((1.0, 1.0)) == 0
    assert ref.routh_unstable_count((-1.0, 1.0)) == 2
    assert ref.routh_unstable_count((1.0, -2.0)) == 1


def test_reference_gains_at_n2():
    sig, (l1, l2) = ref.float_gains(2)
    assert sig == pytest.approx(-2.0 + 2.0 ** 0.5, abs=1e-15)
    assert l1 == pytest.approx(0.461159, rel=1e-5)
    assert l2 == pytest.approx(0.0791223, rel=1e-5)

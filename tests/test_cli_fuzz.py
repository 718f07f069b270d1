"""Fuzzed command lines: every argv ends in exit 0, 1 or 2, never a traceback.

The argv run in one long-lived child process, so that an input which loops
or allocates past a budget is killed at a timeout instead of hanging the
suite. Paths that run the LMI (gainmargin, design and compare without a
valid gain margin, repro gamma_vs_n) are never reached: every --n drawn is
outside the LMI's 1..8, and gamma_vs_n is not a drawn figure.
"""

import json
import os
import select
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import midpredict  # noqa: E402

VALUES = ("nan", "inf", "-inf", "1e308", "-0", "5e-324", "0", "47", "61")
INTEGERS = ("-0", "0", "47", "61")
GARBAGE = ("", "x", "1,2", "0x10", "1e", "--", "-", "=", "é")
FLAGS = {
    "synth": ("--n", "--delta", "--out"),
    "spectrum": ("--n", "--delta", "--rect"),
    "margins": ("--n", "--delta-max"),
    "gainmargin": ("--n", "--tol"),
    "design": ("--n", "--gamma-phi", "--h", "--gamma-m"),
    "simulate": ("--config|--variant", "--h", "--N", "--lam", "--t-end", "--dt"),
    "compare": ("--n", "--h", "--lambda", "--L", "--gamma-phi", "--gamma-m"),
    "repro": ("--figure", "--n-max"),
}
# valid values drawn too, so that the runs behind them are reached. None
# reaches the LMI: its subcommands draw no valid --n, and the figures drawn
# are the two that neither run the LMI nor ignore every drawn value. The
# variant ours_N5 is left out for time: it takes 1 s at the default horizon.
VALID = {
    "--n": ("2",),
    "--config": ("system.kv",),
    "--variant": ("ahmed", "ours_N1"),
    "--figure": ("spectrum025", "d_vs_n"),
}
LMI_SUBCOMMANDS = ("gainmargin", "design", "compare")
SYSTEM = 'n = 1\nh = 0.5\nphi = ["-x1 + tanh(x1)"]\ngamma = [1.0]\n'

WORKER = r"""
import contextlib, io, json, sys, traceback
from midpredict.cli import dispatch

outdir = sys.argv[1]
for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = dispatch(["--outdir", outdir] + json.loads(line))
        except Exception:
            traceback.print_exc()
            rc = None
    print(json.dumps([rc, err.getvalue()]), flush=True)
"""

# seconds one argv may take; the slowest drawn runs, a 61-stage simulation
# and repro d_vs_n up to n = 46, take about 1 s
ARGV_TIMEOUT = 20.0


def numbers(count):
    return st.lists(st.sampled_from(VALUES), min_size=count, max_size=count).map(",".join)


@st.composite
def argvs(draw, sub):
    argv = [sub]
    for entry in FLAGS[sub]:
        # a flag is given, and its value is of its type, each with odds 3:1,
        # so that most draws get past the parser into the subcommand
        if not draw(st.sampled_from((True, True, True, False))):
            continue
        flag = draw(st.sampled_from(entry.split("|")))  # one of exclusive flags
        valid = () if flag == "--n" and sub in LMI_SUBCOMMANDS else VALID.get(flag, ())
        if not draw(st.sampled_from((True, True, True, False))):
            values = st.sampled_from(VALUES + GARBAGE)
        elif flag in ("--rect", "--L"):
            values = numbers(4) if flag == "--rect" else st.integers(1, 3).flatmap(numbers)
        else:
            values = st.sampled_from(INTEGERS if flag in ("--n", "--N", "--n-max") else VALUES)
            if valid:
                values |= st.sampled_from(valid)
        # one word, so that a value such as -inf is not read as a flag
        argv.append("%s=%s" % (flag, draw(values)))
    return argv


@pytest.fixture(scope="module")
def run_isolated(tmp_path_factory):
    """Runs one argv in the worker; returns (exit code, stderr)."""
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "system.kv").write_text(SYSTEM)
    src = os.path.dirname(os.path.dirname(midpredict.__file__))
    procs = []

    def start():
        procs.append(subprocess.Popen(
            [sys.executable, "-c", WORKER, str(workdir / "out")],
            cwd=workdir,  # --out and --config values are paths relative to it
            env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ))

    def run(argv):
        if procs[-1].poll() is not None:
            start()
        proc = procs[-1]
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        if not select.select([proc.stdout], [], [], ARGV_TIMEOUT)[0]:
            proc.kill()
            proc.wait()
            pytest.fail("%r ran past %g s" % (argv, ARGV_TIMEOUT))
        line = proc.stdout.readline()
        assert line, "the worker died on %r" % (argv,)
        return json.loads(line)

    start()
    yield run
    for proc in procs:
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("sub", sorted(FLAGS))
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(run_isolated, sub, data):
    argv = data.draw(argvs(sub), label="argv")
    rc, err = run_isolated(argv)
    assert rc in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if rc:
        assert "error:" in err.rstrip("\n").rsplit("\n", 1)[-1], (argv, err)

import json
import math
import os
import re

import numpy as np
import pytest

from midpredict.cli import dispatch, emit_plot_script


def run(tmp_path, *argv):
    return dispatch(["--outdir", str(tmp_path)] + list(argv))


def test_unknown_subcommand_usage_error(tmp_path, capsys):
    assert dispatch(["bogus"]) == 2
    capsys.readouterr()


def test_missing_subcommand_usage_error(capsys):
    assert dispatch([]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: the following arguments are required: subcommand")


def test_domain_error_exit_code(tmp_path, capsys):
    assert run(tmp_path, "synth", "--n", "0") == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_synth_prints_reference_values(tmp_path, capsys):
    assert run(tmp_path, "synth", "--n", "2") == 0
    out = capsys.readouterr().out
    assert "-0.585786" in out
    assert "0.461159" in out
    assert "0.0791223" in out
    assert "multiplicity   3" in out
    assert os.path.exists(tmp_path / "manifest.json")


def test_synth_machine_readable_full_precision(tmp_path, capsys):
    out_file = tmp_path / "gains.kv"
    assert run(tmp_path, "synth", "--n", "2", "--out", str(out_file)) == 0
    capsys.readouterr()
    text = out_file.read_text()
    values = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            values[key.strip()] = float(val)
    assert values["sigma_star"] == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-15)
    assert values["multiplicity"] == 3


def test_synth_scaled_gain(tmp_path, capsys):
    assert run(tmp_path, "synth", "--n", "2", "--delta", "0.25") == 0
    out = capsys.readouterr().out
    assert "1.84464" in out
    assert "1.26596" in out


def test_design_benchmark(tmp_path, capsys):
    rc = run(
        tmp_path,
        "design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25",
        "--gamma-m", "0.0673",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "N = 5" in out
    assert "lambda = 20" in out


def test_design_certifies_the_gain_margin_when_none_is_given(tmp_path, capsys, monkeypatch):
    from midpredict import cli

    brackets = []
    certify = cli.max_gain_margin

    def recording(n):
        brackets.append(certify(n))
        return brackets[-1]

    monkeypatch.setattr(cli, "max_gain_margin", recording)
    design = ("design", "--n", "1", "--gamma-phi", "1.1", "--h", "0.25")
    assert run(tmp_path, *design) == 0
    first, *sizing = capsys.readouterr().out.splitlines()
    assert [b.n for b in brackets] == [1]
    assert first == "certified gain margin 0.342068"
    # the rest is the sizing for that margin given on the command line
    assert run(tmp_path, *design, "--gamma-m", repr(brackets[0].lower)) == 0
    assert capsys.readouterr().out.splitlines() == sizing


def test_margins_csv_and_determinism(tmp_path, capsys):
    assert run(tmp_path, "margins", "--n", "2") == 0
    capsys.readouterr()
    first = (tmp_path / "partition.csv").read_bytes()
    assert first.startswith(b"# schema: partition.v1\n")
    assert run(tmp_path, "margins", "--n", "2") == 0
    capsys.readouterr()
    assert (tmp_path / "partition.csv").read_bytes() == first
    assert (tmp_path / "partition.gp").exists()


def test_spectrum_outputs(tmp_path, capsys):
    rc = run(tmp_path, "spectrum", "--n", "2", "--delta", "1",
             "--rect=-3,0.5,0,5")
    assert rc == 0
    out = capsys.readouterr().out
    assert "multiplicity 3" in out
    csv_text = (tmp_path / "spectrum.csv").read_text()
    assert csv_text.startswith("# schema: spectrum.v1\n")
    assert (tmp_path / "spectrum.gp").exists()


def test_spectrum_certifies_higher_order_design(tmp_path, capsys):
    assert run(tmp_path, "spectrum", "--n", "3", "--delta", "1") == 0
    assert "multiplicity 4" in capsys.readouterr().out


def test_simulate_variant(tmp_path, capsys):
    rc = run(tmp_path, "simulate", "--variant", "ours_N1", "--h", "0.25",
             "--t-end", "2.0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "divergent=False" in out
    header = (tmp_path / "trace.csv").read_text().splitlines()
    assert header[0] == "# schema: trace.v1"
    assert header[1].split(",")[0] == "t"


def test_simulate_config_file(tmp_path, capsys):
    config = tmp_path / "system.kv"
    config.write_text(
        'n = 2\nh = 0.25\nphi = ["0", "-x1 + 0.5*tanh(x1+x2) + x1*u"]\n'
        'gamma = [0.0, 1.1]\nu = "0.1*sin(0.1*t)"\n'
    )
    rc = run(tmp_path, "simulate", "--config", str(config), "--N", "1",
             "--t-end", "2.0")
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "trace.csv").exists()


def test_simulate_manifest_records_run(tmp_path, capsys):
    config = tmp_path / "blowup.kv"
    config.write_text('n = 1\nh = 0.2\nphi = ["x1^2"]\ngamma = [1.0]\n')
    for argv, divergent in (
        (("--variant", "ours_N5", "--h", "0.25", "--t-end", "1.0"), False),
        (("--config", str(config), "--N", "2", "--t-end", "3.0"), True),
    ):
        assert run(tmp_path, "simulate", *argv) == 0
        assert ("divergent=%s" % divergent) in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        rows = (tmp_path / "trace.csv").read_text().splitlines()[2:]
        assert manifest["divergent"] is divergent
        assert manifest["nodes"] == len(rows)
        assert manifest["steps_per_stage_delay"] == 50
        assert manifest["dt"] == (0.25 / 5 if not divergent else 0.1) / 50
        assert manifest["integrate_s"] > 0
        if divergent:
            # x' = x^2 from x(0) = 1 blows up at t = 1
            assert manifest["divergence_time"] == float(rows[-1].split(",")[0])
            assert 0.9 < manifest["divergence_time"] < 1.0
        else:
            assert manifest["divergence_time"] is None


@pytest.mark.parametrize("phi", ["exp(1000*x1)", "2^(2000*x1)"])
def test_simulate_overflow_at_start_is_divergence(tmp_path, capsys, phi):
    config = tmp_path / "overflow.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["%s"]\ngamma = [1.0]\n' % phi)
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1", "--t-end", "1") == 0
    assert "run 'config': 1 nodes, divergent=True" in capsys.readouterr().out


def test_simulate_input_overflow_is_domain_error(tmp_path, capsys):
    config = tmp_path / "input.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["-x1"]\ngamma = [1.0]\nu = "exp(1000 + t)"\n')
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1", "--t-end", "1") == 1
    assert capsys.readouterr().err.startswith("error: math range error")


def test_simulate_field_domain_error(tmp_path, capsys):
    config = tmp_path / "log.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["log(x1)"]\ngamma = [1.0]\n')
    # the predictor starts from zero history, outside the domain of log
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1") == 1
    assert "error: log of a non-positive value" in capsys.readouterr().err


def test_simulate_zero_delay_is_refused_before_the_gain(tmp_path, capsys):
    # the default scalar gain N / h would divide by the zero delay
    config = tmp_path / "undelayed.kv"
    config.write_text('n = 1\nh = 0\nphi = ["-x1"]\ngamma = [1.0]\n')
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1") == 1
    assert capsys.readouterr().err == "error: simulation requires a positive input delay\n"


@pytest.mark.parametrize("variant", ["ours_N1", "ours_N5"])
def test_simulate_variant_zero_delay_is_refused_before_the_gain(tmp_path, capsys, variant):
    # these variants set the scalar gain to N / h
    assert run(tmp_path, "simulate", "--variant", variant, "--h", "0") == 1
    assert capsys.readouterr().err == "error: simulation requires a positive input delay\n"


def test_simulate_node_budget_error_stays_short(tmp_path, capsys):
    # a delay of 1e-300 asks for about 1e303 nodes
    config = tmp_path / "tiny.kv"
    config.write_text('n = 1\nh = 1e-300\nphi = ["-x1"]\ngamma = [1.0]\n')
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the budget" in err
    assert len(err) < 120 and err.count("\n") == 1, err


def test_simulate_requires_source(tmp_path, capsys):
    assert run(tmp_path, "simulate") == 2
    capsys.readouterr()


SIMULATE_FIELDS = {"divergence_time": None, "divergent": False, "dt": 0.005, "integrate_s": 0,
                   "nodes": 401, "steps_per_stage_delay": 50}


@pytest.mark.parametrize("argv, rc, flags", [
    (["synth", "--n", "2", "--delta", "0.25"], 0, {"n": 2, "delta": 0.25, "out": None}),
    (["spectrum", "--n", "2", "--delta", "1"], 0, {"n": 2, "delta": 1.0, "rect": None}),
    (["margins", "--n", "2"], 0, {"n": 2, "delta_max": None}),
    (["gainmargin", "--n", "1", "--tol", "0.05"], 0, {"n": 1, "tol": 0.05}),
    (["design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25", "--gamma-m", "0.0673"], 0,
     {"n": 2, "gamma_phi": 1.1, "h": 0.25, "gamma_m": 0.0673}),
    (["simulate", "--variant", "ours_N1", "--t-end", "2"], 0,
     {"N": 1, "config": None, "dt": None, "h": 0.25, "lam": None, "t_end": 2.0,
      "variant": "ours_N1"}),
    (["compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1", "--gamma-phi", "1.1",
      "--gamma-m", "0.0673"], 0,
     {"n": 2, "h": 0.25, "lam": 2.0, "L": "2,1", "gamma_phi": 1.1, "gamma_m": 0.0673}),
    (["repro", "--figure", "d_vs_n", "--n-max", "2"], 0, {"figure": "d_vs_n", "n_max": 2}),
    (["synth", "--n", "0"], 1, None),
    (["margins", "--n", "47"], 1, None),
    (["simulate"], 2, None),
    (["simulate", "--variant", "ours_N1", "--config", "system.kv"], 2, None),
    (["repro", "--figure", "nope"], 2, None),
    # argparse stores [] for a value of "--"; it is a usage error, not a TypeError
    (["design", "--n", "2", "--gamma-phi", "1.1", "--h=--", "--gamma-m", "0.0673"], 2, None),
])
def test_each_successful_run_writes_one_manifest(tmp_path, capsys, argv, rc, flags):
    from midpredict import __version__

    outdir = tmp_path / "out"
    assert dispatch(["--outdir", str(outdir)] + argv) == rc
    capsys.readouterr()
    manifests = list(tmp_path.rglob("manifest.json"))
    if rc:
        assert manifests == []
        return
    assert manifests == [outdir / "manifest.json"]
    out = "<outdir>"
    expected = {"subcommand": argv[0], "flags": dict(flags, outdir=out, subcommand=argv[0]),
                "config_path": None, "outdir": out, "version": __version__}
    if argv[0] == "simulate":
        expected.update(SIMULATE_FIELDS)
    text = manifests[0].read_text().replace(str(outdir), out)
    text = re.sub(r'"integrate_s": [^,]+,', '"integrate_s": 0,', text)
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_compare_table(tmp_path, capsys):
    rc = run(
        tmp_path,
        "compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1",
        "--gamma-phi", "1.1", "--gamma-m", "0.0673",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ahmed" in out and "False" in out
    assert "lei" in out
    assert "ours" in out


@pytest.mark.parametrize("gamma_phi", ["nan", "-1"])
@pytest.mark.parametrize("command", [
    ("compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1"),
    ("design", "--n", "2", "--h", "0.25"),
])
def test_gamma_phi_is_refused_before_the_margin_bisection(
    tmp_path, capsys, monkeypatch, command, gamma_phi
):
    from midpredict import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the gain margin was computed")

    monkeypatch.setattr(cli, "max_gain_margin", refuse)
    assert run(tmp_path, *command, "--gamma-phi=" + gamma_phi) == 1
    assert capsys.readouterr().err == "error: Lipschitz constant must be finite and nonnegative\n"
    assert os.listdir(tmp_path) == []


def test_repro_partition_sweep(tmp_path, capsys):
    rc = run(tmp_path, "repro", "--figure", "d_vs_n", "--n-max", "3")
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "d_vs_n.csv").read_text().splitlines()
    assert lines[0] == "# schema: partition.v1"
    dims = {line.split(",")[0] for line in lines[2:]}
    assert dims == {"1", "2", "3"}
    assert (tmp_path / "d_vs_n.gp").exists()


@pytest.mark.parametrize(
    "figure, n_max, message",
    [
        ("d_vs_n", "0", "--n-max must be at least 1"),
        ("d_vs_n", "47", "--n-max must be in 1..46 for d_vs_n"),
        ("gamma_vs_n", "0", "--n-max must be at least 1"),
    ],
)
def test_repro_sweeps_refuse_n_max_before_any_work(
    tmp_path, capsys, monkeypatch, figure, n_max, message
):
    from midpredict import cli

    def refuse(*args):
        raise AssertionError("a sweep point was computed")

    monkeypatch.setattr(cli, "stability_partition", refuse)
    monkeypatch.setattr(cli, "max_gain_margin", refuse)
    assert run(tmp_path, "repro", "--figure", figure, "--n-max", n_max) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert os.listdir(tmp_path) == []


def test_repro_error_norms_overlay_the_variants_on_the_coarsest_grid(tmp_path, capsys, monkeypatch):
    from midpredict import cli

    traces = []
    simulate = cli.run_demo_variant

    def recording(variant, h):
        traces.append(simulate(variant, h))
        return traces[-1]

    monkeypatch.setattr(cli, "run_demo_variant", recording)
    assert run(tmp_path, "repro", "--figure", "normError050") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["variant ahmed diverged (trace truncated)",
                   "wrote normError050 outputs to %s" % tmp_path]
    assert [tr.divergent for tr in traces] == [True, False, False]
    lines = (tmp_path / "normError050.csv").read_text().splitlines()
    assert lines[:2] == ["# schema: error-norms.v1", "t,ahmed,ours_N1,ours_N5"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    dt = max(tr.metadata["dt"] for tr in traces)
    assert table[:, 0].tolist() == (np.arange(len(table)) * dt).tolist()
    for column, trace in zip(table[:, 1:].T, traces):
        # ours_N5 steps five times finer than the grid; ahmed stops early
        resampled = trace.e_pred[:: round(dt / trace.metadata["dt"])]
        np.testing.assert_array_equal(column[: len(resampled)], resampled)
        assert np.isnan(column[len(resampled):]).all()
    # no prediction error exists before t = h
    assert np.isnan(table[table[:, 0] < 0.5, 1:]).all()
    assert np.isfinite(table[table[:, 0] == 0.5, 1:]).all()


def test_emit_plot_script_missing_data(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_script("spectrum", str(tmp_path / "absent.csv"))


def test_emit_plot_script_unknown_kind(tmp_path):
    data = tmp_path / "x.csv"
    data.write_text("# schema: spectrum.v1\nre,im,multiplicity\n")
    with pytest.raises(ValueError):
        emit_plot_script("bogus", str(data))


def test_gainmargin_cli_writes_certificate(tmp_path, capsys):
    rc = run(tmp_path, "gainmargin", "--n", "1", "--tol", "0.05")
    assert rc == 0
    out = capsys.readouterr().out
    assert "lower bound" in out
    assert (tmp_path / "gainmargin.csv").exists()
    assert (tmp_path / "certificate.txt").exists()


def _manifest(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_parser_is_built_once_across_dispatches(tmp_path, capsys):
    from midpredict import cli

    cli._build_parser.cache_clear()
    for n in ("1", "2", "3"):
        assert run(tmp_path, "synth", "--n", n) == 0
    assert dispatch(["bogus"]) == 2
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser.cache_info().hits == 3


def test_outdir_env_is_read_on_every_dispatch(tmp_path, capsys, monkeypatch):
    for name in ("first", "second"):
        monkeypatch.setenv("MIDPREDICT_OUTDIR", str(tmp_path / name))
        assert dispatch(["synth", "--n", "1"]) == 0
        assert _manifest(tmp_path / name)["outdir"] == str(tmp_path / name)
        assert _manifest(tmp_path / name)["flags"]["outdir"] == str(tmp_path / name)
    # an explicit --outdir still wins over the variable
    assert run(tmp_path / "third", "synth", "--n", "1") == 0
    assert _manifest(tmp_path / "third")["outdir"] == str(tmp_path / "third")
    capsys.readouterr()


def test_usage_error_leaves_the_next_dispatch_unchanged(tmp_path, capsys):
    assert run(tmp_path / "before", "margins", "--n", "2") == 0
    out_before = capsys.readouterr().out
    for bad in (("margins", "--n", "2", "--delta-max", "x"),
                ("simulate", "--variant", "ours_N1", "--config", "c.txt"),
                ("margins", "--n", "2", "--delta-max=--")):
        assert run(tmp_path / "bad", *bad) == 2
    capsys.readouterr()
    assert not (tmp_path / "bad").exists()
    assert run(tmp_path / "after", "margins", "--n", "2") == 0
    assert capsys.readouterr().out == out_before
    before, after = _manifest(tmp_path / "before"), _manifest(tmp_path / "after")
    assert before["flags"] == dict(after["flags"], outdir=str(tmp_path / "before"))
    assert (tmp_path / "before" / "partition.csv").read_bytes() == (
        tmp_path / "after" / "partition.csv").read_bytes()


def test_reused_parser_refuses_double_dash_values(tmp_path, capsys):
    for _ in range(2):
        assert run(tmp_path, "synth", "--n", "2", "--delta=--") == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: an option was given '--' as its value")
        assert run(tmp_path, "synth", "--n", "2", "--delta", "0.5") == 0
        capsys.readouterr()


def test_margins_builds_crossings_once(tmp_path, capsys, monkeypatch):
    import midpredict.cli as cli
    import midpredict.margins as margins

    calls = []
    original = margins.crossing_frequencies

    def counting(gain):
        calls.append(gain.n)
        return original(gain)

    monkeypatch.setattr(margins, "crossing_frequencies", counting)
    # cli's own binding, should it hold one, is counted as well
    monkeypatch.setattr(cli, "crossing_frequencies", counting, raising=False)
    assert run(tmp_path, "margins", "--n", "9") == 0
    out = capsys.readouterr().out
    assert calls == [9]
    assert out.count("direction") == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("margins", "--n", "2", "--delta-max", "nan"),
        ("margins", "--n", "2", "--delta-max", "inf"),
        ("margins", "--n", "2", "--delta-max", "1e7"),
        ("gainmargin", "--n", "1", "--tol", "0"),
        ("spectrum", "--n", "2", "--delta", "inf"),
        ("design", "--n", "2", "--gamma-phi", "1.1", "--h", "inf", "--gamma-m", "0.06"),
        ("design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25", "--gamma-m", "inf"),
        ("compare", "--n", "2", "--h", "0.25", "--lambda", "inf", "--L", "2,1",
         "--gamma-phi", "1.1", "--gamma-m", "0.06"),
        ("compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1",
         "--gamma-phi", "1.1", "--gamma-m", "nan"),
        ("compare", "--n", "2", "--h", "nan", "--lambda", "2", "--L", "2,1",
         "--gamma-phi", "1.1", "--gamma-m", "0.06"),
        ("simulate", "--variant", "ours_N1", "--dt", "1e-6"),
        ("spectrum", "--n", "2", "--delta", "1e-300"),
        ("spectrum", "--n", "2", "--delta", "1e7"),
        ("spectrum", "--n", "2", "--delta", "1", "--rect=-1e9,0,0,1e9"),
        ("spectrum", "--n", "2", "--delta", "100"),
        ("spectrum", "--n", "2", "--delta", "20", "--rect=-60,1,0,10"),
    ],
)
def test_unbounded_inputs_fail_fast(tmp_path, argv):
    # a child process, so that a loop without end is killed at the timeout
    import subprocess
    import sys

    import midpredict

    src = os.path.dirname(os.path.dirname(midpredict.__file__))
    code = "import sys; from midpredict.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--outdir", str(tmp_path)] + list(argv),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20.0,
    )
    assert proc.returncode == 1, proc.stderr
    # one line: no warning or traceback ahead of or after the error
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


EVERY_SUBCOMMAND = """
import sys
from midpredict.cli import dispatch

outdir, config = sys.argv[1:]
for argv in (["synth", "--n", "2"], ["spectrum", "--n", "2", "--delta", "1"],
             ["margins", "--n", "2"], ["gainmargin", "--n", "1"],
             ["design", "--n", "1", "--gamma-phi", "1.1", "--h", "0.25"],
             ["simulate", "--config", config, "--N", "1", "--t-end", "1"],
             ["compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1",
              "--gamma-phi", "1.1", "--gamma-m", "0.06"],
             ["repro", "--figure", "d_vs_n", "--n-max", "3"]):
    assert dispatch(["--outdir", outdir] + argv) == 0, argv
print("scipy:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    import subprocess
    import sys

    import midpredict

    config = tmp_path / "linear.kv"
    config.write_text('n = 2\nh = 1.0\nphi = ["0", "0"]\ngamma = [0.0, 0.0]\nu = "0"\n')
    src = os.path.dirname(os.path.dirname(midpredict.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", EVERY_SUBCOMMAND, str(tmp_path), str(config)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120.0,
    )
    assert proc.returncode == 0, proc.stderr
    assert "certified lower bound 0.342068" in proc.stdout
    assert "scipy: []" in proc.stdout


BLAS_THREADS = """
import os
import re
import midpredict
print([os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")])
"""


@pytest.mark.parametrize(
    "preset, expected",
    [({}, "['1', '1', '1']"), ({"OPENBLAS_NUM_THREADS": "2"}, "['1', '2', '1']")],
)
def test_import_pins_blas_threads_unless_set(preset, expected):
    # a child process, since numpy reads the variables once, when it loads
    import subprocess
    import sys

    import midpredict

    src = os.path.dirname(os.path.dirname(midpredict.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(preset, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True, text=True, timeout=60.0
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected

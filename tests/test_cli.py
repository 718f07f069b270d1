import json
import math
import os

import pytest

from midpredict.cli import dispatch, emit_plot_script


def run(tmp_path, *argv):
    return dispatch(["--outdir", str(tmp_path)] + list(argv))


def test_unknown_subcommand_usage_error(tmp_path, capsys):
    assert dispatch(["bogus"]) == 2
    capsys.readouterr()


def test_missing_subcommand_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


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


def test_simulate_field_domain_error(tmp_path, capsys):
    config = tmp_path / "log.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["log(x1)"]\ngamma = [1.0]\n')
    # the predictor starts from zero history, outside the domain of log
    assert run(tmp_path, "simulate", "--config", str(config), "--N", "1") == 1
    assert "error: log of a non-positive value" in capsys.readouterr().err


def test_simulate_requires_source(tmp_path, capsys):
    assert run(tmp_path, "simulate") == 2
    capsys.readouterr()


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


def test_repro_partition_sweep(tmp_path, capsys):
    rc = run(tmp_path, "repro", "--figure", "d_vs_n", "--n-max", "3")
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "d_vs_n.csv").read_text().splitlines()
    assert lines[0] == "# schema: partition.v1"
    dims = {line.split(",")[0] for line in lines[2:]}
    assert dims == {"1", "2", "3"}
    assert (tmp_path / "d_vs_n.gp").exists()


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
    assert proc.stderr.startswith("error:")

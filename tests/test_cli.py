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


def test_design_sizes_the_largest_gain_dimension(tmp_path, capsys):
    assert run(tmp_path, "design", "--n", "46", "--gamma-phi", "1", "--h", "1",
               "--gamma-m", "0.1") == 0
    assert capsys.readouterr().out == (
        "threshold gain lambda_star = 10\nsub-predictors N = 10\nscalar gain lambda = 10\n"
        "dominant decay rate per time unit = -0.310935\n")


def test_design_certifies_the_gain_margin_when_none_is_given(tmp_path, capsys, monkeypatch):
    from midpredict import gainmargin

    brackets = []
    certify = gainmargin.max_gain_margin

    def recording(n):
        brackets.append(certify(n))
        return brackets[-1]

    monkeypatch.setattr(gainmargin, "max_gain_margin", recording)
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


@pytest.mark.parametrize("phi", ["x1" + "^x1" * 249, "-" * 250 + "x1"])
def test_simulate_field_past_the_nesting_limit_is_one_error_line(tmp_path, capsys, phi):
    # a right-associated chain of 250 powers, or 250 nested unary minuses,
    # nest the generated kernel past the compiler's limit on parentheses
    config = tmp_path / "long.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["%s"]\ngamma = [1.0]\n' % phi)
    assert run(tmp_path, "simulate", "--config", str(config), "--t-end", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a field expression nests past the compiler's limit (")
    assert err.endswith("); use fewer chained operations\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("terms", [250, 900])
def test_simulate_runs_a_flat_sum(tmp_path, capsys, terms):
    # a left operand of the same level is emitted without parentheses, so a
    # chain of terms does not nest
    config = tmp_path / "long.kv"
    phi = "-x1" + "+1" * (terms - 1)
    config.write_text('n = 1\nh = 0.5\nphi = ["%s"]\ngamma = [1.0]\n' % phi)
    assert run(tmp_path, "simulate", "--config", str(config), "--t-end", "1") == 0
    assert capsys.readouterr().out.startswith("run 'config': ")


@pytest.mark.parametrize("field, phi, u, message", [
    ("phi[1]", ("-x1" + "+1" * 1499, "0"), "0", "is 1501 levels deep, past the limit of 988"),
    ("phi[2]", ("-x1", "(" * 300 + "-x2" + ")" * 300), "0",
     "nests too deep to parse (603 characters)"),
    ("u", ("-x1", "-x2"), "t" + "*t" * 1500, "is 1500 levels deep, past the limit of 988"),
])
def test_simulate_field_past_the_depth_limit_is_named(tmp_path, capsys, field, phi, u, message):
    # the kernel's emitter recurses once per level, the parser once per group
    config = tmp_path / "deep.kv"
    config.write_text('n = 2\nh = 0.5\nphi = ["%s", "%s"]\ngamma = [1.0, 1.0]\nu = "%s"\n'
                      % (phi + (u,)))
    assert run(tmp_path, "simulate", "--config", str(config), "--t-end", "1") == 1
    assert capsys.readouterr().err == "error: field %s %s\n" % (field, message)


@pytest.mark.parametrize("phi, message", [
    (("x2", "0"), "field is not triangular: component i may use x1..xi and u only"),
    (("y", "0"), "unknown identifier 'y' (at position 0)"),
    (("0", "x3"), "unknown identifier 'x3' (at position 0)"),
    (("x2(1)", "0"), "unknown identifier 'x2' (at position 0)"),
    # component 1 reads x2 before component 2, with its y, is parsed
    (("x2", "y"), "field is not triangular: component i may use x1..xi and u only"),
])
def test_simulate_config_field_fault_is_named(tmp_path, capsys, phi, message):
    config = tmp_path / "fault.kv"
    config.write_text('n = 2\nh = 1.0\nphi = ["%s", "%s"]\ngamma = [0.0, 0.0]\n' % phi)
    assert run(tmp_path, "simulate", "--config", str(config)) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_simulate_requires_source(tmp_path, capsys):
    assert run(tmp_path, "simulate") == 2
    capsys.readouterr()


SIMULATE_FIELDS = {"divergence_time": None, "divergent": False, "dt": 0.005, "integrate_s": 0,
                   "nodes": 401, "steps_per_stage_delay": 50}
# the barrier solve of gainmargin --n 1 --tol 0.05
GAINMARGIN_FIELDS = {"solver": {
    "choleskys": 99, "newton_steps_left": 153,
    "phase_1": {"centerings": 3, "final_gap": 0.1217763380880889,
                "final_s": -0.005085199565262065, "newton_steps": 25},
    "phase_2": {"centerings": 4, "newton_steps": 22},
}}


@pytest.mark.parametrize("argv, rc, flags", [
    (["synth", "--n", "2", "--delta", "0.25"], 0, {"n": 2, "delta": 0.25, "out": None}),
    (["spectrum", "--n", "2", "--delta", "1"], 0, {"n": 2, "delta": 1.0, "rect": None}),
    (["margins", "--n", "2"], 0, {"n": 2, "delta_max": None}),
    (["gainmargin", "--n", "1", "--tol", "0.05"], 0, {"n": 1, "tol": 0.05}),
    (["design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25", "--gamma-m", "0.0673"], 0,
     {"n": 2, "gamma_phi": 1.1, "h": 0.25, "gamma_m": 0.0673}),
    (["simulate", "--variant", "ours_N1", "--t-end", "2"], 0,
     {"config": None, "dt": None, "h": 0.25, "t_end": 2.0, "variant": "ours_N1"}),
    (["compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1", "--gamma-phi", "1.1",
      "--gamma-m", "0.0673"], 0,
     {"n": 2, "h": 0.25, "lam": 2.0, "L": "2,1", "gamma_phi": 1.1, "gamma_m": 0.0673}),
    (["repro", "--figure", "d_vs_n", "--n-max", "2"], 0, {"figure": "d_vs_n", "n_max": 2}),
    (["synth", "--n", "0"], 1, None),
    (["margins", "--n", "47"], 1, None),
    (["simulate"], 2, None),
    (["simulate", "--variant", "ours_N1", "--config", "system.kv"], 2, None),
    # options the chosen source ignores are usage errors
    (["simulate", "--variant", "ours_N1", "--N", "7", "--lam", "99"], 2, None),
    (["simulate", "--variant", "ours_N1", "--lam", "99"], 2, None),
    (["simulate", "--config", "system.kv", "--h", "0.5"], 2, None),
    (["repro", "--figure", "nope"], 2, None),
    # argparse stores [] for a value of "--"; it is a usage error, not a TypeError
    (["design", "--n", "2", "--gamma-phi", "1.1", "--h=--", "--gamma-m", "0.0673"], 2, None),
    # a figure that does not read --n-max does not record it
    (["repro", "--figure", "spectrum025"], 0, {"figure": "spectrum025"}),
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
    if argv[0] == "gainmargin":
        expected.update(GAINMARGIN_FIELDS)
    text = manifests[0].read_text().replace(str(outdir), out)
    text = re.sub(r'"integrate_s": [^,]+,', '"integrate_s": 0,', text)
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_simulate_config_manifest_records_the_options_it_read(tmp_path, capsys):
    # the file's h is the delay that runs, so no --h is recorded; N and lam are
    config = tmp_path / "system.kv"
    config.write_text('n = 1\nh = 0.5\nphi = ["-x1"]\ngamma = [1.0]\n')
    assert run(tmp_path, "simulate", "--config", str(config), "--t-end", "1") == 0
    capsys.readouterr()
    flags = _manifest(tmp_path)["flags"]
    assert "h" not in flags
    assert (flags["N"], flags["lam"]) == (1, None)


@pytest.mark.parametrize("argv, message", [
    # delta**2 underflows to 0, overflows, or divides the gains down to 0
    (("synth", "--n", "2", "--delta", "1e-300"),
     "delay scale 1e-300 takes the rescaled gains past the float range"),
    (("synth", "--n", "2", "--delta", "1e300"),
     "delay scale 1e+300 takes the rescaled gains past the float range"),
    (("synth", "--n", "2", "--delta", "inf"),
     "delay scale inf takes the rescaled gains past the float range"),
    (("margins", "--n", "2", "--delta-max", "1e300"),
     "delta_max 1e+300 reaches about 7.78e+298 crossing delays (budget 10000)"),
    (("design", "--n", "2", "--gamma-phi", "1e308", "--h", "1e308", "--gamma-m", "1e-308"),
     "threshold gain inf times delay 1e+308 is past the float range"),
    # a finite stage count past 2**53, where floats are more than one stage apart
    (("design", "--n", "2", "--gamma-phi", "1e100", "--h", "1e100", "--gamma-m", "1"),
     "threshold gain 1e+100 times delay 1e+100 is 1e+200 stages, past 2**53"),
    # the first recipe's powers overflow
    (("compare", "--n", "2", "--h", "1e100", "--lambda", "2", "--L", "2,1",
      "--gamma-phi", "1e100", "--gamma-m", "1"),
     "lam 2, h 1e+100 and gamma_phi 1e+100 take the first recipe's terms past the float range"),
    (("compare", "--n", "2", "--h", "0.25", "--lambda", "1e200", "--L", "2,1",
      "--gamma-phi", "1.1", "--gamma-m", "1"),
     "lam 1e+200, h 0.25 and gamma_phi 1.1 take the first recipe's terms past the float range"),
    # the stage gains exist up to n = 46, though q's roots are known further
    (("design", "--n", "47", "--gamma-phi", "1", "--h", "1", "--gamma-m", "0.1"),
     "dimension must be in 1..46"),
])
def test_boundary_inputs_name_the_bad_value(tmp_path, capsys, argv, message):
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "manifest.json").exists()


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
    from midpredict import gainmargin

    def refuse(*args, **kwargs):
        raise AssertionError("the gain margin was computed")

    monkeypatch.setattr(gainmargin, "max_gain_margin", refuse)
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
        ("gamma_vs_n", "12", "--n-max must be in 1..8 for gamma_vs_n"),
    ],
)
def test_repro_sweeps_refuse_n_max_before_any_work(
    tmp_path, capsys, monkeypatch, figure, n_max, message
):
    from midpredict import gainmargin, margins

    def refuse(*args):
        raise AssertionError("a sweep point was computed")

    monkeypatch.setattr(margins, "stability_partition", refuse)
    monkeypatch.setattr(gainmargin, "max_gain_margin", refuse)
    assert run(tmp_path, "repro", "--figure", figure, "--n-max", n_max) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("figure, n_max", [
    ("spectrum025", "7"), ("normError025", "0"), ("normError050", "30"),
])
def test_repro_refuses_n_max_where_the_figure_ignores_it(tmp_path, capsys, figure, n_max):
    assert run(tmp_path, "repro", "--figure", figure, "--n-max", n_max) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith("error: --n-max does not apply to --figure %s" % figure)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("figure, n_max", [("d_vs_n", 30), ("gamma_vs_n", 8)])
def test_repro_sweeps_default_and_record_their_n_max(tmp_path, capsys, monkeypatch, figure, n_max):
    from midpredict import gainmargin, margins

    swept = []

    def point(n):
        swept.append(n)
        return margins.StabilityPartition(n, (0.0,), (0,), 1.0, ())

    def bracket(n):
        swept.append(n)
        return gainmargin.MarginBracket(n, 0.5, 1.0, None)

    monkeypatch.setattr(margins, "stability_partition", point)
    monkeypatch.setattr(gainmargin, "max_gain_margin", bracket)
    assert run(tmp_path, "repro", "--figure", figure) == 0
    capsys.readouterr()
    assert swept == list(range(1, n_max + 1))
    assert _manifest(tmp_path)["flags"]["n_max"] == n_max


def test_repro_error_norms_overlay_the_variants_on_the_coarsest_grid(tmp_path, capsys, monkeypatch):
    from midpredict import simulate

    traces = []
    run_variant = simulate.run_demo_variant

    def recording(variant, h):
        traces.append(run_variant(variant, h))
        return traces[-1]

    monkeypatch.setattr(simulate, "run_demo_variant", recording)
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


def _csv_reference(schema, header, rows):
    """A CSV's text written one row at a time, each value with %.17g."""
    lines = ["# schema: %s" % schema, ",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_blocks_write_the_text_of_one_row_at_a_time(tmp_path):
    from midpredict import cli

    # two whole blocks and a part, of 1-D and 2-D columns
    count = 2 * cli._BLOCK_ROWS + 7
    rng = np.random.default_rng(31)
    times = np.arange(count) * 0.001
    wide = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-300, 300, (count, 3))
    wide[:4] = [[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324],
                [1.7976931348623157e308, -2.2250738585072014e-308, 0.1], [1, -1, 1e16]]
    last = np.where(times < 0.5, math.nan, rng.random(count))
    header = ("t", "a", "b", "c", "d")
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "trace.v1", header, cli._column_blocks(times, wide, last))
    rows = np.column_stack([times, wide, last]).tolist()
    assert path.read_text() == _csv_reference("trace.v1", header, rows)
    # rows of tuples are one block, ints written as ints
    for rows in ([(1, 0.1, -0.0), (2, math.nan, 1e-310), (30, -2.5, 123456789012345678)], []):
        cli._write_csv(str(path), "partition.v1", header[:3], cli._row_block(rows))
        assert path.read_text() == _csv_reference("partition.v1", header[:3], rows)


@pytest.mark.parametrize("argv, divergent", [
    (("--variant", "ours_N5", "--h", "0.25", "--t-end", "1.5"), False),
    (("--variant", "ahmed", "--h", "0.5"), True),
])
def test_trace_csv_is_the_text_of_one_row_at_a_time(tmp_path, capsys, monkeypatch, argv, divergent):
    from midpredict import cli, simulate

    traces = []
    integrate = simulate.integrate

    def recording(config):
        traces.append(integrate(config))
        return traces[-1]

    monkeypatch.setattr(simulate, "integrate", recording)
    assert run(tmp_path, "simulate", *argv) == 0
    capsys.readouterr()
    (trace,) = traces
    assert trace.divergent is divergent
    # e_pred is NaN before t = h; diverged, ahmed stops at 2 627 of 6 001 nodes
    assert np.isnan(trace.e_pred[0])
    assert len(trace.times) > cli._BLOCK_ROWS and len(trace.times) % cli._BLOCK_ROWS
    rows = np.column_stack([trace.times, trace.x, trace.e_chain, trace.e_pred]).tolist()
    expected = _csv_reference("trace.v1", cli._trace_header(trace), rows)
    assert (tmp_path / "trace.csv").read_text() == expected


def test_repro_error_norms_are_the_text_of_one_row_at_a_time(tmp_path, capsys, monkeypatch):
    from midpredict import cli, simulate

    traces = []
    run_variant = simulate.run_demo_variant

    def short(variant, h):
        traces.append(run_variant(variant, h, t_end=6.0))
        return traces[-1]

    monkeypatch.setattr(simulate, "run_demo_variant", short)
    assert run(tmp_path, "repro", "--figure", "normError025") == 0
    capsys.readouterr()
    dt = max(tr.metadata["dt"] for tr in traces)
    columns = [tr.e_pred[:: round(dt / tr.metadata["dt"])].tolist() for tr in traces]
    count = max(map(len, columns))
    assert count > cli._BLOCK_ROWS and count % cli._BLOCK_ROWS
    rows = [[k * dt] + [c[k] if k < len(c) else math.nan for c in columns] for k in range(count)]
    expected = _csv_reference("error-norms.v1", ("t", "ahmed", "ours_N1", "ours_N5"), rows)
    assert (tmp_path / "normError025.csv").read_text() == expected


def test_writing_a_long_trace_holds_one_block_and_makes_no_garbage(tmp_path):
    # the default-horizon ours_N5 trace: 60 001 rows of 9 values; written as
    # one list per row, its write peaked at 20 MiB and ran the collector
    import gc
    import tracemalloc

    from midpredict import cli

    rng = np.random.default_rng(60)
    count = 60_001
    columns = (np.arange(count) * 0.001, rng.random((count, 2)), rng.random((count, 5)),
               rng.random(count))
    header = ("t", "x1", "x2") + tuple("e_stage%d" % j for j in range(1, 6)) + ("e_pred",)
    collections = []

    def note(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "trace.csv"), "trace.v1", header,
                       cli._column_blocks(*columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(note)
    assert peak < 2 * 2 ** 20, peak
    assert collections == []


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


EXACT_PATH = """
import sys
from midpredict.cli import dispatch

outdir = sys.argv[1]
runs = [(["--help"], 0), (["synth", "--delta", "0.25"], 2),
        (["synth", "--n", "2", "--delta", "0.25"], 0),
        (["design", "--n", "2", "--gamma-phi", "1.1", "--h", "0.25", "--gamma-m", "0.0672"], 0),
        (["repro", "--figure", "d_vs_n", "--n-max", "5"], 0)]
runs += [(["margins", "--n", str(n)], 0) for n in range(1, 31)]
for argv, code in runs:
    assert dispatch(["--outdir", outdir] + argv) == code, argv
    assert "numpy" not in sys.modules, argv
    # nor the model and its expression parser, which the parser's variant list needs not
    assert "midpredict.model" not in sys.modules, argv
for argv in (["spectrum", "--n", "2", "--delta", "1"], ["gainmargin", "--n", "1"],
             ["simulate", "--variant", "ours_N5", "--t-end", "1"],
             ["compare", "--n", "2", "--h", "0.25", "--lambda", "2", "--L", "2,1",
              "--gamma-phi", "1.1"]):
    assert dispatch(["--outdir", outdir] + argv) == 0, argv
print("numpy:", "numpy" in sys.modules)
"""


def test_exact_subcommands_never_import_numpy(tmp_path):
    # a child process, since the tests have loaded numpy: --help, a usage
    # error and the exact subcommands run without it, the others load it
    import subprocess
    import sys

    import midpredict

    src = os.path.dirname(os.path.dirname(midpredict.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_PATH, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120.0,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: midpredict")
    assert proc.stderr.splitlines()[-1].startswith("midpredict synth: error:")
    assert proc.stdout.splitlines()[-1] == "numpy: True"


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

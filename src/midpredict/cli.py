"""Command-line front end: synthesis, certification, simulation, repro.

All numeric console output is printed at six significant digits; files are
written at full precision. Every run that succeeds drops a manifest next
to its outputs so a result can be regenerated from the recorded flags
alone, and CSV schemas are version-tagged in their headers for golden-file
comparisons. Each subcommand imports the layers it uses when it runs, so
synth, margins, design with --gamma-m and repro --figure d_vs_n, like
--help and usage errors, run without loading numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import DEMO_VARIANTS, __version__

__all__ = ["main", "dispatch", "emit_plot_script"]

# the simulate options each source reads, with their defaults: a demo
# variant fixes its own cascade, and a system file its own delay
_SIMULATE_OPTIONS = {"variant": {"h": 0.25}, "config": {"N": 1, "lam": None}}
# the repro figures that read --n-max, with its default: only the sweeps
_REPRO_N_MAX = {"d_vs_n": 30, "gamma_vs_n": 8}


def _fmt(value):
    return "%.6g" % value


def _full(value):
    return "%.17g" % value


def _write_manifest(args, extra=None):
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func",) and not k.startswith("_")
    }
    payload = {
        "subcommand": args.subcommand,
        "flags": flags,
        "config_path": getattr(args, "config", None),
        "outdir": args.outdir,
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    path = os.path.join(args.outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plot_script(kind, data_path):
    """Write a gnuplot script rendering one of the known CSV schemas next to
    data_path, with its extension replaced by .gp."""
    if not os.path.exists(data_path):
        raise FileNotFoundError("data file %s does not exist" % data_path)
    rel = os.path.basename(data_path)
    if kind == "spectrum":
        body = (
            "set datafile separator ','\n"
            "set xlabel 'Re s'\nset ylabel 'Im s'\nset grid\n"
            "plot '%s' using 1:2 with points pt 7 ps 1.2 title 'roots', \\\n"
            "     '%s' using 1:2:3 with labels offset 1,1 notitle\n" % (rel, rel)
        )
    elif kind == "error_norm":
        body = (
            "set datafile separator ','\n"
            "set xlabel 't'\nset ylabel '|e_pred(t)|'\nset logscale y\nset grid\n"
            "plot for [col=2:*] '%s' using 1:col with lines title columnheader(col)\n"
            % rel
        )
    elif kind == "partition":
        body = (
            "set datafile separator ','\n"
            "set xlabel 'delay'\nset ylabel 'n'\nset grid\n"
            "plot '%s' using (($2+$3)/2):1:(($3-$2)/2):(0.35):($4 == 0 ? 1 : 2) "
            "with boxxyerror fc variable title 'unstable-root count (dark = 0)'\n" % rel
        )
    elif kind == "margin_bounds":
        body = (
            "set datafile separator ','\n"
            "set xlabel 'n'\nset ylabel 'gain margin'\nset logscale y\nset grid\n"
            "plot '%s' using 1:2 with linespoints title 'certified lower', \\\n"
            "     '%s' using 1:3 with linespoints title 'analytic upper'\n" % (rel, rel)
        )
    else:
        raise ValueError("unknown plot kind '%s'" % kind)
    with open(os.path.splitext(data_path)[0] + ".gp", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# generated by midpredict %s\n" % __version__)
        fh.write(body)


# rows per formatted block of a CSV table: one % format and one write each
_BLOCK_ROWS = 1024


def _write_csv(path, schema, header_cols, blocks):
    """Write a version-tagged CSV from blocks, each a flat sequence of whole
    rows' values, row after row, formatted with one % and written at once."""
    # values are floats and small ints; %.17g round-trips each (0.1: 0.10000000000000001)
    row = ",".join(["%.17g"] * len(header_cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema: %s\n" % schema)
        fh.write(",".join(header_cols) + "\n")
        for block in blocks:
            values = tuple(block)
            fh.write((row * (len(values) // len(header_cols))) % values)
    return path


def _row_block(rows):
    """The one block of a short table given as rows; no numpy."""
    return [[v for r in rows for v in r]]


def _column_blocks(*columns):
    """Blocks of the table whose columns are float arrays, 1-D or 2-D, side
    by side: only one block's rows exist as Python floats at a time."""
    import numpy as np

    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield np.column_stack([c[start:stop] for c in columns]).ravel().tolist()


def _write_spectrum_csv(path, result):
    return _write_csv(
        path,
        "spectrum.v1",
        ("re", "im", "multiplicity"),
        _row_block((float(s.real), float(s.imag), m) for s, m in result.roots),
    )


def _write_partition_csv(path, partitions):
    rows = []
    for part in partitions:
        for (lo, hi), count in zip(part.intervals, part.unstable_counts):
            rows.append((part.n, float(lo), float(hi), count))
    return _write_csv(
        path, "partition.v1", ("n", "delta_lo", "delta_hi", "unstable_count"), _row_block(rows)
    )


def _write_gainmargin_csv(path, brackets):
    rows = [(b.n, b.lower, b.upper) for b in brackets]
    return _write_csv(path, "gainmargin.v1", ("n", "lower", "upper"), _row_block(rows))


def _cmd_synth(args):
    from .synthesis import gain_star, multiplicity_at, scale_gain

    gain = gain_star(args.n)
    rows = [("sigma_star", gain.sigma_star)]
    for i, v in enumerate(gain.l, start=1):
        rows.append(("l%d_star" % i, v))
    scaled = None
    if args.delta is not None:
        scaled = scale_gain(gain, args.delta)
        for i, v in enumerate(scaled.l, start=1):
            rows.append(("l%d_at_delta" % i, v))
    mult = multiplicity_at(gain, 1.0, gain.sigma_star)
    print("dimension %d" % args.n)
    for name, value in rows:
        print("  %-14s %s" % (name, _fmt(value)))
    print("  %-14s %d (target %d)" % ("multiplicity", mult, args.n + 1))
    if scaled is not None:
        mult_scaled = multiplicity_at(scaled, args.delta, gain.sigma_star / args.delta)
        print(
            "  %-14s %d at root %s (delay %s)"
            % ("multiplicity", mult_scaled, _fmt(gain.sigma_star / args.delta), _fmt(args.delta))
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# schema: synth.v1\n")
            for name, value in rows:
                fh.write("%s = %s\n" % (name, _full(value)))
            fh.write("multiplicity = %d\n" % mult)


def _parse_rect(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("rect must be re_min,re_max,im_min,im_max")
    return tuple(parts)


def _cmd_spectrum(args):
    from .spectrum import default_certification_rect, roots_in_region
    from .synthesis import Quasipolynomial, gain_star

    gain = gain_star(args.n)
    qp = Quasipolynomial(args.n, gain.l, args.delta)
    rect = _parse_rect(args.rect) if args.rect else default_certification_rect(
        gain.sigma_star / args.delta if args.delta > 0 else gain.sigma_star,
        args.delta,
    )
    result = roots_in_region(qp, rect)
    print(
        "region [%s, %s] x [%s, %s]: %d roots (with multiplicity)"
        % tuple([_fmt(v) for v in rect] + [result.count_by_argument_principle])
    )
    for s, m in result.roots:
        print("  %s %+sj  multiplicity %d" % (_fmt(s.real), _fmt(s.imag), m))
    if result.dominant is not None:
        print("dominant: %s %+sj" % (_fmt(result.dominant.real), _fmt(result.dominant.imag)))
    path = _write_spectrum_csv(os.path.join(args.outdir, "spectrum.csv"), result)
    emit_plot_script("spectrum", path)


def _cmd_margins(args):
    from .margins import stability_partition

    part = stability_partition(args.n, args.delta_max)
    print("dimension %d, crossing frequencies:" % args.n)
    for c in part.crossings:
        print(
            "  w = %-10s arg %-10s direction %+d"
            % (_fmt(c.frequency), _fmt(c.argument), c.direction)
        )
    print("partition up to delta_max = %s:" % _fmt(part.delta_max))
    for (lo, hi), count in zip(part.intervals, part.unstable_counts):
        marker = "stable" if count == 0 else "%d unstable" % count
        print("  (%s, %s): %s" % (_fmt(lo), _fmt(hi), marker))
    path = _write_partition_csv(os.path.join(args.outdir, "partition.csv"), [part])
    emit_plot_script("partition", path)


def _cmd_gainmargin(args):
    from .gainmargin import max_gain_margin

    bracket = max_gain_margin(args.n, tol=args.tol)
    print("dimension %d" % args.n)
    print("  certified lower bound %s" % _fmt(bracket.lower))
    print("  analytic upper bound  %s" % _fmt(bracket.upper))
    if bracket.certificate is None:
        print("  no certificate (degenerate bracket)")
    else:
        cert_path = os.path.join(args.outdir, "certificate.txt")
        with open(cert_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# schema: lmi-certificate.v1\n")
            fh.write("gamma_m = %s\n" % _full(bracket.lower))
            for name in ("P", "R", "S", "P2", "P3", "P4"):
                fh.write("%s =\n" % name)
                for row in getattr(bracket.certificate, name):
                    fh.write("  " + " ".join(_full(float(v)) for v in row) + "\n")
    _write_gainmargin_csv(os.path.join(args.outdir, "gainmargin.csv"), [bracket])
    return {"solver": bracket.solver}


def _cmd_design(args):
    from .synthesis import check_lipschitz, design_chain

    check_lipschitz(args.gamma_phi)
    gamma_m = args.gamma_m
    if gamma_m is None:
        from .gainmargin import max_gain_margin

        gamma_m = max_gain_margin(args.n).lower
        print("certified gain margin %s" % _fmt(gamma_m))
    chain = design_chain(args.n, args.gamma_phi, args.h, gamma_m)
    print("threshold gain lambda_star = %s" % _fmt(chain.lambda_star))
    print("sub-predictors N = %d" % chain.N)
    print("scalar gain lambda = %s" % _fmt(chain.lam))
    print("dominant decay rate per time unit = %s" % _fmt(chain.sigma_star_per_t))


def _trace_header(trace):
    states = ["x%d" % (i + 1) for i in range(trace.x.shape[1])]
    stages = ["e_stage%d" % (j + 1) for j in range(trace.e_chain.shape[1])]
    return ["t"] + states + stages + ["e_pred"]


def _cmd_simulate(args):
    import numpy as np

    from .model import load_system
    from .simulate import SimConfig, demo_config, integrate
    from .synthesis import gain_star

    if args.variant:
        cfg = demo_config(args.variant, args.h, t_end=args.t_end, dt=args.dt)
        label = args.variant
    else:
        system = load_system(args.config)
        cfg = SimConfig(
            system=system, gain=gain_star(system.n), lam=args.lam, N=args.N,
            t_end=args.t_end, dt=args.dt,
        )
        label = "config"
    start = time.perf_counter()
    trace = integrate(cfg)
    integrate_s = time.perf_counter() - start
    final = trace.e_pred[np.isfinite(trace.e_pred)]
    print("run '%s': %d nodes, divergent=%s" % (label, len(trace.times), trace.divergent))
    if len(final):
        print("final prediction error %s" % _fmt(float(final[-1])))
    path = _write_csv(
        os.path.join(args.outdir, "trace.csv"),
        "trace.v1",
        _trace_header(trace),
        _column_blocks(trace.times, trace.x, trace.e_chain, trace.e_pred),
    )
    emit_plot_script("error_norm", path)
    return {
        "divergent": trace.divergent,
        "nodes": len(trace.times),
        "dt": trace.metadata["dt"],
        "steps_per_stage_delay": trace.metadata["nodes_per_stage_delay"],
        "divergence_time": float(trace.times[-1]) if trace.divergent else None,
        "integrate_s": integrate_s,
    }


def _cmd_compare(args):
    from .gainmargin import max_gain_margin
    from .synthesis import GainVector, design_chain
    from .tradeoff import ahmed_conditions, lei_conditions

    if args.gamma_m is not None and not math.isfinite(args.gamma_m):
        raise ValueError("gain margin must be finite")
    gain = GainVector(tuple(float(v) for v in args.L.split(",")), args.n)
    verdicts = [
        ahmed_conditions(gain, args.lam, args.h, args.gamma_phi),
        lei_conditions(gain, args.lam, args.h),
    ]
    gamma_m = args.gamma_m if args.gamma_m is not None else max_gain_margin(args.n).lower
    chain = design_chain(args.n, args.gamma_phi, args.h, gamma_m) if gamma_m > 0 else None
    print("%-8s %-10s %s" % ("method", "satisfied", "details"))
    for v in verdicts:
        detail = ", ".join("%s=%s" % (k, _fmt(r)) for k, r in v.details.items())
        print("%-8s %-10s %s" % (v.method, str(v.satisfied), detail))
    if chain is not None:
        ours_ok = args.lam >= chain.lambda_star and args.lam * args.h / max(
            round(args.lam * args.h), 1
        ) <= 1.0 + 1e-12
        print(
            "%-8s %-10s lambda_star=%s, N=%d, lambda=N/h=%s"
            % ("ours", str(bool(ours_ok)), _fmt(chain.lambda_star), chain.N, _fmt(chain.lam))
        )


def _cmd_repro(args):
    figure = args.figure
    if vars(args).get("n_max", 1) < 1:  # dispatch sets n_max for the sweeps alone
        raise ValueError("--n-max must be at least 1")
    if figure == "spectrum025":
        from .spectrum import default_certification_rect, roots_in_region
        from .synthesis import Quasipolynomial, gain_star, scale_gain

        gain = gain_star(2)
        scaled = scale_gain(gain, 0.25)
        qp = Quasipolynomial(2, scaled.l, 0.25)
        rect = default_certification_rect(gain.sigma_star / 0.25, 0.25)
        result = roots_in_region(qp, rect)
        path = _write_spectrum_csv(os.path.join(args.outdir, "spectrum025.csv"), result)
        emit_plot_script("spectrum", path)
    elif figure == "d_vs_n":
        from .margins import stability_partition
        from .synthesis import MAX_GAIN_DIMENSION

        if args.n_max > MAX_GAIN_DIMENSION:
            raise ValueError("--n-max must be in 1..%d for d_vs_n" % MAX_GAIN_DIMENSION)
        path = _write_partition_csv(
            os.path.join(args.outdir, "d_vs_n.csv"),
            map(stability_partition, range(1, args.n_max + 1)),
        )
        emit_plot_script("partition", path)
    elif figure == "gamma_vs_n":
        from .gainmargin import MAX_MARGIN_DIMENSION, max_gain_margin

        if args.n_max > MAX_MARGIN_DIMENSION:
            raise ValueError("--n-max must be in 1..%d for gamma_vs_n" % MAX_MARGIN_DIMENSION)
        path = _write_gainmargin_csv(
            os.path.join(args.outdir, "gamma_vs_n.csv"),
            map(max_gain_margin, range(1, args.n_max + 1)),
        )
        emit_plot_script("margin_bounds", path)
    else:  # normError025 or normError050, the choices left
        import numpy as np

        from .simulate import run_demo_variant

        h = 0.25 if figure == "normError025" else 0.5
        traces = [run_demo_variant(v, h) for v in DEMO_VARIANTS]
        # variants run at different steps; resample onto the coarsest grid
        # (the steps divide each other exactly, all being h/(50 N))
        dt_common = max(tr.metadata["dt"] for tr in traces)
        columns = []
        for tr in traces:
            stride = round(dt_common / tr.metadata["dt"])
            if abs(stride * tr.metadata["dt"] - dt_common) > 1e-12 * dt_common:
                raise RuntimeError("variant grids do not nest; cannot overlay traces")
            columns.append(tr.e_pred[::stride])
        table = np.full((max(map(len, columns)), len(columns) + 1), math.nan)
        table[:, 0] = np.arange(len(table)) * dt_common
        for i, column in enumerate(columns, start=1):
            table[: len(column), i] = column
        path = _write_csv(
            os.path.join(args.outdir, "%s.csv" % figure),
            "error-norms.v1",
            ("t",) + DEMO_VARIANTS,
            _column_blocks(table),
        )
        emit_plot_script("error_norm", path)
        for tr, name in zip(traces, DEMO_VARIANTS):
            if tr.divergent:
                print("variant %s diverged (trace truncated)" % name)
    print("wrote %s outputs to %s" % (figure, args.outdir))


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="midpredict",
        description="Design and validate high-gain sub-predictor chains for input-delayed systems.",
    )
    parser.add_argument(
        "--outdir", default=None, help="output directory (env MIDPREDICT_OUTDIR)"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="compute the multiplicity-assigning gains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default=None, help="machine-readable key-value output file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("spectrum", help="locate characteristic roots in a region")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rect", default=None, help="re_min,re_max,im_min,im_max")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("margins", help="delay-axis stability partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("gainmargin", help="bracket the certified gain margin")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_gainmargin)

    p = sub.add_parser("design", help="size the sub-predictor cascade")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma-phi", dest="gamma_phi", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--gamma-m", dest="gamma_m", type=float, default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="integrate the closed prediction loop")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", default=None, help="system definition file")
    source.add_argument("--variant", choices=DEMO_VARIANTS, default=None)
    p.add_argument("--h", type=float, default=argparse.SUPPRESS, help="--variant delay (0.25)")
    p.add_argument("--N", type=int, default=argparse.SUPPRESS, help="--config stages (1)")
    p.add_argument("--lam", type=float, default=argparse.SUPPRESS, help="--config gain (N / h)")
    p.add_argument("--t-end", dest="t_end", type=float, default=60.0)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="evaluate competing sufficient conditions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--L", required=True, help="comma-separated injection gains")
    p.add_argument("--gamma-phi", dest="gamma_phi", type=float, required=True)
    p.add_argument("--gamma-m", dest="gamma_m", type=float, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("repro", help="regenerate a bundled figure dataset")
    p.add_argument(
        "--figure",
        required=True,
        choices=("spectrum025", "d_vs_n", "gamma_vs_n", "normError025", "normError050"),
    )
    p.add_argument("--n-max", dest="n_max", type=int, default=argparse.SUPPRESS,
                   help="d_vs_n (30) and gamma_vs_n (8) dimensions")
    p.set_defaults(func=_cmd_repro)
    return parser


def dispatch(argv):
    """Route argv to a subcommand; 0 ok, 1 domain error, 2 usage error.

    A subcommand prints and writes its own outputs and returns the fields it
    adds to the manifest, or None. dispatch keeps the run's books: it makes
    the outdir, maps errors to exit codes and writes manifest.json once,
    after a run that succeeded. The parser is built on the first call and
    reused; it holds no state of a run, so MIDPREDICT_OUTDIR is read here,
    on every call.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads a value of "--" (as in --h=--) as no value and stores []
        if [] in vars(args).values():
            parser.error("an option was given '--' as its value")
        if args.subcommand == "simulate":
            # refuse what the source ignores, so the manifest records only used values
            source = "variant" if args.variant else "config"
            used = _SIMULATE_OPTIONS[source]
            for name in ("h", "N", "lam"):
                if name in vars(args) and name not in used:
                    parser.error("--%s does not apply to a --%s run" % (name, source))
            for name, default in used.items():
                vars(args).setdefault(name, default)
        elif args.subcommand == "repro":
            if args.figure in _REPRO_N_MAX:
                vars(args).setdefault("n_max", _REPRO_N_MAX[args.figure])
            elif "n_max" in vars(args):
                parser.error("--n-max does not apply to --figure %s" % args.figure)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.outdir is None:
        args.outdir = os.environ.get("MIDPREDICT_OUTDIR", "midpredict-out")
    os.makedirs(args.outdir, exist_ok=True)
    try:
        _write_manifest(args, args.func(args))
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))

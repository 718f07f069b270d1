"""midpredict benchmark: CLI workloads timed end to end, traced per layer.

Run from the repository root:

    python3 bench/run.py --workload design_loop --seed 1 --seconds 28 --trace 0

Every operation goes through `midpredict.cli.dispatch` in this process, on
one thread, with midpredict imported from ./src. A run repeats whole passes
over the workload's operations until --seconds have gone by (at least one
pass after the warm-up pass) and checks every operation's outputs after
every pass. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1, untraced and traced passes alternate and
it carries the per-layer metrics instead. --workload all runs each workload
in its own process and prints one combined object. See bench/README.md.
"""

import os

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
# The host's CPU speed drifts by +-25 % over seconds to minutes (other
# tenants share the cores), which spread ten runs' raw times over a third of
# their median. Every timed span is therefore bracketed by a fixed
# pure-Python loop and rescaled to the speed at which that loop takes
# PROBE_REF_S, near the fastest the 2-core sandbox was seen to run it.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.0125


def probe():
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def timed(fn):
    """(raw seconds, seconds at the reference speed, result) of fn()."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return seconds, seconds * PROBE_REF_S / (0.5 * (before + probe())), result


def import_cli():
    """midpredict.cli from this checkout's src; exits with an error without it."""
    if not os.path.isfile(os.path.join(SRC, "midpredict", "__init__.py")):
        sys.exit("bench: no midpredict sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import midpredict.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: midpredict was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def time_setup(workload, seed):
    """Median time, at the reference speed, of a fresh interpreter importing
    midpredict.cli and preparing the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        _, seconds, proc = timed(lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True))
        samples.append(seconds)
        if proc.returncode != 0:
            sys.exit("bench: set-up failed: %s" % proc.stderr.strip())
    return statistics.median(samples)


def execute(cli, op):
    """Run one operation through the CLI; returns (raw s, reference s, checks.Result)."""
    import checks  # here, so that --setup-only does not load the reference code

    for entry in os.scandir(op.outdir):
        os.remove(entry.path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        raw, seconds, rc = timed(lambda: cli.dispatch(list(op.argv)))
    return raw, seconds, checks.Result(rc, out.getvalue(), err.getvalue(), op.outdir)


def run_pass(cli, ops):
    """Run every operation once and check it.

    Returns ({operation name: (raw s, reference s)}, {operation name: failure reason}).
    """
    import checks

    times, failures = {}, {}
    for op in ops:
        if op.needs is not None:
            try:
                gamma_m = checks.gain_margin_of(next(o.outdir for o in ops if o.name == op.needs))
            except (OSError, ValueError) as exc:
                failures[op.name] = "no gain margin from %s: %s" % (op.needs, exc)
                continue
            op = replace(op, argv=tuple(a.replace("{gamma_m}", gamma_m) for a in op.argv))
        raw, seconds, result = execute(cli, op)
        times[op.name] = (raw, seconds)
        reason = checks.verdict(op, result)
        if reason is not None:
            failures[op.name] = reason
    return times, failures


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(args):
    cli = import_cli()
    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, OUT)
    known = {op.name: op.fault for op in ops}
    began = time.perf_counter()
    passes = [run_pass(cli, ops)]  # the warm-up pass
    plain = [passes[0][0]]
    layers, overhead = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    while len(plain) < 2 or time.perf_counter() - began < args.seconds:
        passes.append(run_pass(cli, ops))
        plain.append(passes[-1][0])
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                passes.append(run_pass(cli, ops))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
            overhead.append(sum(s for _, s in passes[-1][0].values())
                            - sum(s for _, s in plain[-1].values()))
    # each operation's median untraced time after the warm-up pass
    names = [op.name for op in ops if any(op.name in t for t in plain[1:])]
    typical = {k: statistics.median(t[k][1] for t in plain[1:] if k in t) for k in names}
    raw = {k: statistics.median(t[k][0] for t in plain[1:] if k in t) for k in names}

    attempted = len(ops) * len(passes)
    failed = sum(len(f) for _, f in passes)
    unexpected = any(known[name] is None for _, f in passes for name in f)
    print("passes: %d untraced, %d in all" % (len(plain), len(passes)), file=sys.stderr)
    for name in names:
        print("op %-24s %9.4f s (%.4f s raw)" % (name, typical[name], raw[name]), file=sys.stderr)
    for name, reason in sorted({(n, r) for _, f in passes for n, r in f.items()}):
        tag = known[name] or "UNEXPECTED"
        print("failed %-22s [%s] %s" % (name, tag, reason), file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_s": sum(typical.values()),
            "slowest_op_s": max(typical.values()),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overhead)
        spans = os.path.join(OUT, args.workload, "spans.npz")
        tracer.dump(spans)
        print("spans: %s" % os.path.relpath(spans, ROOT))
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit_of(name)))
    print("operations attempted %d, failed %d" % (attempted, failed))
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so that peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("bench: workload %s exited %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        import_cli()
        workloads.build(args.workload, args.seed, OUT)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

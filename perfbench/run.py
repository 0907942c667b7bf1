#!/usr/bin/env python3
"""Benchmark of the normcat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports normcat from ./src.
Workloads: suites, combinatorial, large-inputs (each drives
normcat.cli.main(argv) in this process, one thread) and cli-cold (one
fresh `python -m normcat` per operation).  The seed fixes the inputs,
which the benchmark generates and writes under .perfbench_out/.

A run sets up, warms up on one operation of each kind, then repeats
whole rounds of operations until S seconds have passed.  Before each
operation it times a fixed pure-Python loop (the probe), and every time
it reports is scaled to the speed at which the probe takes PROBE_REF_S,
so that a shared host's swings in speed cancel out (see README.md).  After timing
and after peak memory is read it checks every distinct output against
the independent oracles in oracles.py.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes over one round and prints per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import os

# one BLAS thread, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import workloads
from tracer import COUNT_METRICS, SPAN_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60
# The probe: a fixed loop that touches nothing of normcat.  PROBE_REF_S is
# its median time on the reference host (README.md), so a scaled time
# reads as milliseconds there.  NEIGHBOURS probes around an operation give
# its host factor.
PROBE_LOOPS = 20000
PROBE_REF_S = 1.7e-3
NEIGHBOURS = 5
SETUP_PROBES = 3

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (sorted(SPAN_METRICS.values()) + list(COUNT_METRICS)
             + ["cli.import_ms", "linear.import_ms", "trace.pass_ms", "trace.overhead_ms"])


def probe():
    """Time of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scaled(times, probes):
    """Scale each time to the reference host speed.

    times[i] was measured right after probes[i]; it is multiplied by
    PROBE_REF_S over the median of the NEIGHBOURS probes around it.
    """
    half = NEIGHBOURS // 2
    out = []
    for i, dt in enumerate(times):
        lo = max(0, min(i - half, len(probes) - NEIGHBOURS))
        out.append(dt * PROBE_REF_S / statistics.median(probes[lo:lo + NEIGHBOURS]))
    return out


def pin_one_cpu():
    """Keep this process and its children on one CPU, the one the probe times."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled_setup(name, seed, workdir):
    """Set up between probes; returns the set-up time scaled to the
    reference host speed, with what setup() returns."""
    before = [probe() for _ in range(SETUP_PROBES)]
    cli, wl, setup_s, imports = setup(name, seed, workdir)
    probes = before + [probe() for _ in range(SETUP_PROBES)]
    return cli, wl, setup_s * PROBE_REF_S / statistics.median(probes), imports


def setup(name, seed, workdir):
    """Import normcat.cli and write the inputs: what set-up time covers."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import normcat.linear  # noqa: F401  (timed on its own: it pulls in numpy)
    t1 = time.perf_counter()
    import normcat.cli
    t2 = time.perf_counter()
    wl = workloads.build(name, seed, gen.Writer(workdir))
    t3 = time.perf_counter()
    imports = {"linear.import_ms": (t1 - t0) * 1e3, "cli.import_ms": (t2 - t0) * 1e3}
    return normcat.cli, wl, t3 - t0, imports


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def in_process_caller(cli):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc = "%s: %s" % (type(exc).__name__, exc)
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()
    return call


def cold_caller(env, flags=()):
    def call(argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-m", "normcat", *argv], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr
    return call


def percentile(xs, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def warm_up(call, wl):
    seen = set()
    for op in wl.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            call(op.argv)


def run_rounds(call, wl, seconds, results, probes=None):
    """Whole rounds until `seconds` have passed; returns the elapsed time.

    With `probes`, the probe is timed before each operation and appended.
    """
    i = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            k = i % len(wl.ops)
            if probes is not None:
                probes.append(probe())
            dt, rc, out, _ = call(wl.ops[k].argv)
            results.append((k, dt, rc, out))
            i += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed


def setup_samples(name, seed):
    """Set-up times of fresh processes doing the same set-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                               "--workload", name, "--seed", str(seed)],
                              env=dict(os.environ), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % proc.stderr.strip())
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _report(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check(wl, results):
    """(failed count, unexpected failures, self-check failures).

    Each distinct (operation, exit code, printed values) is checked once;
    every timed operation then takes the verdict of its output.
    """
    import oracles

    verdicts = {}
    failed, unexpected, faults = 0, [], set()
    accepted = {}
    for k, _, rc, out in results:
        op = wl.ops[k]
        report = _report(out)
        values = report.get("results") if isinstance(report, dict) and op.kind != "generate" \
            else report
        key = (k, rc if isinstance(rc, int) else str(rc), json.dumps(values, sort_keys=True))
        if key not in verdicts:
            verdicts[key] = oracles.accepts(op, rc, report)
            if verdicts[key]:
                accepted.setdefault(op.kind, []).append((op, report))
            elif op.known_fault:
                faults.add("%s (%s printed %s)" % (op.known_fault, op.kind, values))
            else:
                unexpected.append("%s %s: rc %s, %s" % (op.kind, " ".join(op.argv), rc,
                                                         str(values)[:200]))
        if not verdicts[key]:
            failed += 1
    bad_self = []
    for kind, got in sorted(accepted.items()):
        if kind not in oracles.SCALAR:
            continue
        usable = [(op, rep) for op, rep in got
                  if any(r["value"] not in (0.0, "inf") for r in rep["results"])]
        if usable and not oracles.self_check(*usable[0]):
            bad_self.append(kind)
    return failed, unexpected, sorted(faults), bad_self


def end_to_end(name, seed, seconds):
    workdir = os.path.join(OUT, "run-%s-%d-%d" % (name, seed, os.getpid()))
    pin_one_cpu()
    try:
        cli, wl, setup_s, _ = scaled_setup(name, seed, workdir)
        if wl.in_process:
            call = in_process_caller(cli)
        else:
            call = cold_caller(child_env())
        warm_up(call, wl)
        gc.collect()
        results, probes = [], []
        elapsed = run_rounds(call, wl, seconds, results, probes)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setups = [setup_s] + setup_samples(name, seed)
        failed, unexpected, faults, bad_self = check(wl, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = [dt for _, dt, _, _ in results]
    lat = host_scaled(raw, probes)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, wl.tail) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print("workload %s, seed %d: %d operations in %.2f s (%d-operation rounds), %d failed"
          % (name, seed, len(results), elapsed, wl.round_size, failed))
    print("unscaled: %.4f ops/s busy, p50 %.2f ms, p%d %.2f ms; median probe %.4f ms"
          % (len(raw) / sum(raw), percentile(raw, 50) * 1e3, wl.tail,
             percentile(raw, wl.tail) * 1e3, statistics.median(probes) * 1e3))
    print("latency_tail_ms is p%d of %d samples; setup_s is the median of %s"
          % (wl.tail, len(lat), ", ".join("%.4f" % s for s in setups)))
    units = dict(END_TO_END)
    for key, value in metrics.items():
        print("  %-16s %12.4f %s" % (key, value, units[key]))
    return results, failed, unexpected, faults, bad_self, \
        {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


IMPORT_LINE = "import time:"


def _import_ms(stderr, module):
    """Cumulative import time of `module` from python -X importtime output
    (0 when the process never imported it)."""
    for line in stderr.splitlines():
        if line.startswith(IMPORT_LINE):
            parts = [p.strip() for p in line[len(IMPORT_LINE):].split("|")]
            if len(parts) == 3 and parts[2] == module:
                return int(parts[1]) / 1e3
    return 0.0


def traced(name, seed, seconds):
    """Alternate untraced and traced passes over the first round."""
    workdir = os.path.join(OUT, "run-%s-%d-%d" % (name, seed, os.getpid()))
    tracer = Tracer()
    layer = dict.fromkeys(PER_LAYER, 0.0)
    try:
        cli, wl, _, imports = setup(name, seed, workdir)
        env = child_env()
        plain = in_process_caller(cli) if wl.in_process else cold_caller(env)
        warm_up(plain, wl)
        one_round = workloads.Workload(wl.ops[:wl.round_size], wl.round_size, wl.tail,
                                       wl.in_process)
        results, untraced_s, traced_s = [], [], []
        cold_imports = {"cli.import_ms": 0.0, "linear.import_ms": 0.0}
        t0 = time.perf_counter()
        while not traced_s or time.perf_counter() - t0 < seconds:
            untraced_s.append(run_rounds(plain, one_round, 0, results))
            if wl.in_process:
                tracer.install()
                try:
                    def op_call(argv):
                        tracer.op = len(results)
                        return plain(argv)
                    traced_s.append(run_rounds(op_call, one_round, 0, results))
                finally:
                    tracer.uninstall()
            else:
                spawn = cold_caller(env, ("-X", "importtime"))

                def op_call(argv):
                    t_ns = time.perf_counter_ns()
                    dt, rc, out, err = spawn(argv)
                    tracer.spans.append(["cold.spawn", t_ns, time.perf_counter_ns(), -1,
                                         len(results)])
                    for key, module in (("cli.import_ms", "normcat.cli"),
                                        ("linear.import_ms", "normcat.linear")):
                        cold_imports[key] += _import_ms(err, module)
                    return dt, rc, out, err
                traced_s.append(run_rounds(op_call, one_round, 0, results))
        passes = len(traced_s)
        for span, total in tracer.self_ms().items():
            if span in SPAN_METRICS:
                layer[SPAN_METRICS[span]] = total / passes
        for key in COUNT_METRICS:
            layer[key] = tracer.counts[key] // passes
        layer.update(imports if wl.in_process
                     else {k: v / passes for k, v in cold_imports.items()})
        layer["trace.pass_ms"] = statistics.median(untraced_s) * 1e3
        layer["trace.overhead_ms"] = (statistics.median(traced_s)
                                      - statistics.median(untraced_s)) * 1e3
        failed, unexpected, faults, bad_self = check(one_round, results)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("workload %s, seed %d: %d untraced and %d traced passes of %d operations"
          % (name, seed, len(untraced_s), passes, wl.round_size))
    units = {}
    for key in PER_LAYER:
        units[key] = "ms" if key.endswith("_ms") else ("bytes" if key.endswith("bytes_parsed")
                                                       else "count")
        print("  %-32s %14.4f %s" % (key, layer[key], units[key]))
    return results, failed, unexpected, faults, bad_self, \
        {k: {"value": layer[k], "unit": units[k]} for k in PER_LAYER}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used for set-up samples)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "normcat", "cli.py")):
        sys.stderr.write("perfbench: no normcat sources at %s; run from a checkout root\n" % SRC)
        return 2
    if args.setup_only:
        workdir = os.path.join(OUT, "setup-%d" % os.getpid())
        try:
            _, _, setup_s, _ = scaled_setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    run = traced if args.trace else end_to_end
    results, failed, unexpected, faults, bad_self, metrics = run(args.workload, args.seed,
                                                                 args.seconds)
    for fault in faults:
        print("known fault, counted as failed: %s" % fault)
    for line in unexpected:
        print("WRONG: %s" % line)
    for kind in bad_self:
        print("SELF-CHECK: the %s oracle accepted a value moved by 1e-6" % kind)
    correct = not unexpected and not bad_self
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

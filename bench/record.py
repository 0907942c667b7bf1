#!/usr/bin/env python3
"""Record a before/after benchmark of a change as one BENCH_<n>.json.

    python3 bench/record.py --out BENCH_23.json [--base HEAD] [--seed 4]

Run it from the root of a checkout.  The child is a copy of this
checkout as it stands (its tracked and untracked files, not the ignored
ones); the parent is `git archive --base`.  Both go into one temporary
directory, so that neither tree runs from another location.  For each
workload of BENCHMARK.json the recorder runs the unchanged
`perfbench/run.py` of each tree for the run length BENCHMARK.json sets,
parent and child in turn, for PAIRS pairs (the first of a pair
alternates, so that a drift of the host speed falls on both sides).  It
then times the micro-workloads below in process on each tree (each
timing the least of MICRO_REPS calls), runs the child's tier-1 suite,
and writes the medians, the quartiles and the raw pairs with the host,
Python and numpy versions.  See bench/README.md.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# end-to-end pairs per workload: the count a claimed gain is judged on
PAIRS = 10

# in-process micro-workloads: name -> (sizes, code run in the tree's
# interpreter with `n` and `reps` bound; it prints one time in seconds,
# the least of reps calls, on seeded inputs that do not depend on the
# tree: the least is the call that other load on the host disturbed
# least).  Each size runs MICRO_ROUNDS times a side, alternating.
MICRO_REPS, MICRO_ROUNDS = 30, 5
# the threshold searches on one seeded pair of n planar points a side,
# timed as f(x, y)
PLANAR_PAIR = """
import math, random, time
from normcat.metric import FiniteMetricSpace, gh_distance, min_dilatation_map
rng = random.Random(n)
x, y = [FiniteMetricSpace([p + str(i) for i in range(n)], [[math.dist(a, b) for b in ps] for a in ps])
        for p, ps in (("x", [(rng.random(), rng.random()) for _ in range(n)]),
                      ("y", [(rng.random(), rng.random()) for _ in range(n)]))]
ts = []
for _ in range(reps):
    t0 = time.perf_counter()
    f(x, y)
    ts.append(time.perf_counter() - t0)
print(min(ts))
"""
# prokhorov_distance(mu, nu) on one seeded base of n points in the unit
# cube, with mu and nu the two mass lists masses(rng, n) returns
MM_PAIR = """
import math, random, time
from normcat.measure import FiniteMMSpace, prokhorov_distance
from normcat.metric import FiniteMetricSpace
rng = random.Random(n)
ps = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
base = FiniteMetricSpace(["x%d" % i for i in range(n)], [[math.dist(a, b) for b in ps] for a in ps])
mu, nu = [FiniteMMSpace(base, dict(zip(base.points, w))) for w in masses(rng, n)]
ts = []
for _ in range(reps):
    t0 = time.perf_counter()
    prokhorov_distance(mu, nu)
    ts.append(time.perf_counter() - t0)
print(min(ts))
"""
# prokhorov_seminorm(f) on one seeded map of n points onto n points, a
# shuffle, with the points of each end in the unit cube and the masses
# the two lists masses(rng, n) returns
MM_MAP = """
import math, random, time
from normcat.measure import FiniteMMSpace, MMSpaceMap, prokhorov_seminorm
from normcat.metric import FiniteMetricSpace
rng = random.Random(n)
ends = []
for p, w in zip("xy", masses(rng, n)):
    ps = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
    base = FiniteMetricSpace([p + str(i) for i in range(n)], [[math.dist(a, b) for b in ps] for a in ps])
    ends.append(FiniteMMSpace(base, dict(zip(base.points, w))))
image = list(ends[1].points)
rng.shuffle(image)
f = MMSpaceMap(ends[0], ends[1], dict(zip(ends[0].points, image)))
ts = []
for _ in range(reps):
    t0 = time.perf_counter()
    prokhorov_seminorm(f)
    ts.append(time.perf_counter() - t0)
print(min(ts))
"""
# two measures of total 1, every mass drawn from [0.05, 1] before scaling
BALANCED = """
def masses(rng, n):
    draws = [[rng.uniform(0.05, 1.0) for _ in range(n)] for _ in range(2)]
    return [[w / sum(ws) for w in ws] for ws in draws]
"""
# nu on one point and mu on its neighbour: the bound nu(A) - mu(A) is 1
# on a quarter of the subsets, above the distance
LOOSE = """
def masses(rng, n):
    return [[float(i == 1) for i in range(n)], [float(i == 0) for i in range(n)]]
"""
MICRO = {
    "category.first_triangle_violation": ((30, 60, 120, 170), """
import math, random, time
import numpy as np
from normcat.category import first_triangle_violation, scale_tolerance
rng = random.Random(n)
ps = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
d = np.array([[math.dist(a, b) for b in ps] for a in ps])
tol = scale_tolerance(d)
ts = []
for _ in range(reps):
    t0 = time.perf_counter()
    first_triangle_violation(d, tol)
    ts.append(time.perf_counter() - t0)
print(min(ts))
"""),
    "metric.gh_distance": ((8, 10, 12, 14), "f = lambda x, y: gh_distance(x, y)" + PLANAR_PAIR),
    "metric.min_dilatation_map": ((8, 10, 12, 14),
                                  "f = lambda x, y: min_dilatation_map(x, y)" + PLANAR_PAIR),
    "measure.prokhorov_seminorm": ((3, 5, 11, 13), BALANCED + MM_MAP),
    "measure.prokhorov_distance": ((12, 14, 16), BALANCED + MM_PAIR),
    "measure.prokhorov_distance loose": ((16,), LOOSE + MM_PAIR),
}


def quartiles(values):
    """(first quartile, median, third quartile), linear between ranks."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent, child, better):
    """Quartiles of each side, the relative change of the medians and
    the pairs in which the child did better."""
    p, c = quartiles(parent), quartiles(child)
    sign = 1 if better == "higher" else -1
    return {"parent": dict(zip(("q1", "median", "q3"), p)),
            "child": dict(zip(("q1", "median", "q3"), c)),
            "change": (c[1] - p[1]) / p[1] if p[1] else None,
            "child_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, child)),
            "pairs": [[a, b] for a, b in zip(parent, child)]}


def perfbench(tree, workload, seed, seconds):
    """The last stdout line of one end-to-end perfbench run in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_one_cpu():
    """Keep the calling process on one CPU, as perfbench/run.py does."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def micro(tree, code, n, reps):
    """The time one micro-workload prints, run in a fresh interpreter of
    tree that stays on one CPU."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", "n, reps = %d, %d\n%s" % (n, reps, code)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True,
                          preexec_fn=pin_one_cpu)
    return float(proc.stdout.strip().splitlines()[-1])


def tier1(tree):
    """Wall time, summary line and slowest tests of the tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=8"], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [line.strip() for line in lines if re.match(r"\s*\d+\.\d+s (call|setup)", line)]
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": slowest}


def host():
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def sides(k):
    """The order of pair k: the first run alternates between the trees."""
    return ("parent", "child") if k % 2 == 0 else ("child", "parent")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev, into):
    """Unpack `git archive rev` into into/parent; (commit id, tree)."""
    commit = git("rev-parse", rev).decode().strip()
    tree = os.path.join(into, "parent")
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def copy_checkout(into):
    """Copy the checkout's tracked and untracked, not ignored, files into
    into/child; the tree."""
    tree = os.path.join(into, "child")
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        if name and os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(tree, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(tree, name))
    return tree


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="file to write, e.g. BENCH_23.json")
    p.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    p.add_argument("--seed", type=int, default=4)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        commit, parent = export(args.base, tmp)
        trees = {"parent": parent, "child": copy_checkout(tmp)}
        record = {"base": commit, "host": host(), "seed": args.seed,
                  "seconds": seconds, "workloads": {}, "micro": {}}
        for workload in [w["name"] for w in bench["workloads"]]:
            runs = {"parent": [], "child": []}
            for k in range(PAIRS):
                for side in sides(k):
                    run = perfbench(trees[side], workload, args.seed, seconds)
                    runs[side].append(run)
                    print("%s %s pair %d: %s" % (workload, side, k, json.dumps(run["metrics"])),
                          file=sys.stderr)
            record["workloads"][workload] = {
                "correct": [[a["correct"], b["correct"]] for a, b in zip(runs["parent"], runs["child"])],
                "failed": [[a["failed"], b["failed"]] for a, b in zip(runs["parent"], runs["child"])],
                "metrics": {name: summary([r["metrics"][name]["value"] for r in runs["parent"]],
                                          [r["metrics"][name]["value"] for r in runs["child"]],
                                          better[name])
                            for name in better}}
        for name, (sizes, code) in MICRO.items():
            for n in sizes:
                times = {"parent": [], "child": []}
                for k in range(MICRO_ROUNDS):
                    for side in sides(k):
                        times[side].append(1e3 * micro(trees[side], code, n, MICRO_REPS))
                record["micro"]["%s n=%d ms" % (name, n)] = summary(times["parent"],
                                                                    times["child"], "lower")
        record["tier1_child"] = tier1(trees["child"])
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

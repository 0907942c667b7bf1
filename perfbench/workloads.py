"""The four workloads: which operations one round holds, at which sizes.

Sizes are fixed per slot and only the data comes from the seed, so the
cost of each slot barely moves from seed to seed.  The slots are laid
out so that the median and the tail percentile each fall in the middle
of a group of slots of one kind and size, never on the edge between
two groups whose latencies differ (see README.md for the layout).

A run repeats whole rounds, so operations that fail on a known fault
are the same share of every run.
"""

import random

import gen
from gen import Op

COMBINATORIAL_INPUT_ROUNDS = 4


class Workload:
    """ops: the operations of a run, in order; a round is `round_size`
    consecutive ops and the run cycles through them.  tail: the latency
    percentile reported as latency_tail_ms."""

    def __init__(self, ops, round_size, tail, in_process=True):
        self.ops = ops
        self.round_size = round_size
        self.tail = tail
        self.in_process = in_process


def _norm(w, kind, payload, stem, fault=None):
    path = w.put(payload, stem)
    return Op("norm/" + kind, ["norm", "--kind", kind, "--map", path], [path], fault)


def _dist(w, kind, a, b, stem, fault=None):
    pa, pb = w.put(a, stem + "-a"), w.put(b, stem + "-b")
    return Op("dist/" + kind, ["dist", "--kind", kind, pa, pb], [pa, pb], fault)


def _space(rng, n, prefix):
    return gen.metric_space(gen.labels(n, prefix), gen.euclidean(rng, n))


def suites(rng, w):
    """`check --suite all --cases 50`, one distinct seed per operation."""
    seeds = [rng.randrange(1 << 31) for _ in range(64)]
    ops = [Op("check", ["check", "--suite", "all", "--cases", "50", "--seed", str(s)], [])
           for s in seeds]
    return Workload(ops, round_size=4, tail=55)


def heuristic_dil_fault(w):
    """The 5-point unit line into the 6-point line spaced 1.3 apart.

    6**5 > 3125 sends min_dilatation_map to its greedy search, which
    prints 1.0; the map x -> 1.3 x never shrinks a distance, so the
    distance is 0.0.  Fixed input: it fails the same way on every seed.
    """
    a = gen.metric_space(gen.labels(5, "p"), gen.line_dist([0.0, 1.0, 2.0, 3.0, 4.0]))
    b = gen.metric_space(gen.labels(6, "q"), gen.line_dist([1.3 * i for i in range(6)]))
    return _dist(w, "dil", a, b, "dil-fault", fault="dil-heuristic")


def combinatorial(rng, w):
    """Subset walks and branch-and-bound on 5-13 point inputs.

    The costs of these searches depend on the data, so the operation
    list holds COMBINATORIAL_INPUT_ROUNDS rounds, each with fresh inputs:
    a run then averages over several inputs per slot, and its figures
    move less from seed to seed.
    """
    fault = heuristic_dil_fault(w)
    ops = []
    for _ in range(COMBINATORIAL_INPUT_ROUNDS):
        ops += combinatorial_round(rng, w, fault)
    return Workload(ops, round_size=len(ops) // COMBINATORIAL_INPUT_ROUNDS, tail=90)


def combinatorial_round(rng, w, fault):
    """One round of 29 slots, by rising latency: 10 fast searches (dil,
    dil-plus and gh on 4-5 points, plus the fixed fault), 2 comp, 5 codiam at 12 points
    holding the median, 3 Prokhorov distances at 12 points and 2 dim,
    then 7 Prokhorov seminorms at 11 points holding the 90th percentile.
    """
    ops = []
    for _ in range(2):
        ops.append(_dist(w, "dil", _space(rng, 5, "a"), _space(rng, 5, "b"), "dil"))
    for _ in range(3):
        ops.append(_dist(w, "dil-plus", _space(rng, 5, "a"), _space(rng, 5, "b"), "dilp"))
    for n, m in ((4, 5), (5, 4), (5, 5), (5, 5)):
        ops.append(_dist(w, "gh", _space(rng, n, "a"), _space(rng, m, "b"), "gh"))
    ops.append(fault)
    for n in (10, 11):
        ops.append(_norm(w, "comp", gen.poset_map(rng, n + 2, n), "comp"))
    for _ in range(5):
        ops.append(_norm(w, "codiam", gen.metric_map(rng, 12, 12, multi=True), "codiam"))
    for _ in range(3):
        a, b = gen.mm_pair(rng, 12)
        ops.append(_dist(w, "prokhorov", a, b, "pdist"))
    for _ in range(2):
        ops.append(_norm(w, "dim", gen.simplicial_map(rng, 10, 7, 2), "dim"))
    for _ in range(7):
        ops.append(_norm(w, "prokhorov", gen.mm_map(rng, 11, 11), "pnorm"))
    return ops


def ill_conditioned_op_fault(w):
    """A fixed 6 x 6 matrix of condition number 1e7.

    singular_values squares the conditioning through A^T A and cuts the
    smallest Gram eigenvalue (1e-14) as a kernel, so the CLI prints inf;
    sigma_min is 1e-7 and the seminorm is -log(1e-7) = 16.118.
    """
    return _norm(w, "op", gen.conditioned_matrix(6, 1e7), "op-fault", fault="op-gram")


def large_inputs(rng, w):
    """Polynomial layers on large inputs: parsing, the O(n^3) triangle
    check, W1 transport and singular values.

    25 slots, by rising latency: the fixed fault, 8 cheaper solver calls
    (op on (n+5) x n matrices, n = 20 and 25, and w1 on 30 points), 7 op
    at n = 30 holding the median, 4 dearer ones (w1 on 40 points, op at
    n = 40), then 5 dil / dil-dual norms of function maps from a
    170-point to a 120-point space, which hold the 90th percentile.
    """
    ops = [ill_conditioned_op_fault(w)]

    def op(n):
        return _norm(w, "op", gen.gauss_matrix(rng, n + 5, n, 0.1), "op%d" % n)

    def w1(n):
        a, b = gen.mm_pair(rng, n)
        return _dist(w, "w1", a, b, "w1-%d" % n)

    ops += [op(20) for _ in range(3)] + [w1(30) for _ in range(3)] + [op(25) for _ in range(2)]
    ops += [op(30) for _ in range(7)]
    ops += [w1(40) for _ in range(2)] + [op(40) for _ in range(2)]
    for kind in ("dil", "dil-dual", "dil", "dil-dual", "dil"):
        ops.append(_norm(w, kind, gen.metric_map(rng, 170, 120), "big"))
    return Workload(ops, round_size=len(ops), tail=90)


def cli_cold(rng, w):
    """One fresh `python -m normcat` per operation on tiny inputs, so
    interpreter start and imports dominate."""
    ops = [
        _norm(w, "dil", gen.metric_map(rng, 3, 3, multi=True), "dil"),
        _norm(w, "prokhorov", gen.mm_map(rng, 3, 3), "pnorm"),
        _norm(w, "op", gen.gauss_matrix(rng, 3, 3, 1.0), "op"),
        _norm(w, "comp", gen.poset_map(rng, 4, 3), "comp"),
        _dist(w, "gh", _space(rng, 3, "a"), _space(rng, 3, "b"), "gh"),
        _dist(w, "w1", *gen.mm_pair(rng, 4), "w1"),
        _dist(w, "dil", _space(rng, 3, "a"), _space(rng, 4, "b"), "dil"),
    ]
    for kind in ("metric", "mm", "poset"):
        argv = ["generate", "--kind", kind, "--size", "5", "--seed", str(rng.randrange(1 << 31))]
        ops.append(Op("generate", argv, []))
    return Workload(ops, round_size=len(ops), tail=85, in_process=False)


BUILDERS = {
    "suites": suites,
    "combinatorial": combinatorial,
    "large-inputs": large_inputs,
    "cli-cold": cli_cold,
}


def build(name, seed, writer):
    return BUILDERS[name](random.Random("%s/%d" % (name, seed)), writer)

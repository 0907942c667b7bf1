"""Seeded inputs for the benchmark, written as instance JSON (docs/formats.md).

The generator is the benchmark's own, so a change to normcat.generate
cannot change what is measured.  It uses only the standard library:
set-up time and peak memory then show the program's imports and
nothing the benchmark adds.

Every builder takes a random.Random and returns plain JSON payloads;
`Op` pairs the CLI arguments of one operation with the files it reads,
and the oracles read those same files back on their own.
"""

import json
import math
import os


class Op:
    """One CLI invocation: its kind, its argv, the files it reads.

    known_fault names the program fault that makes this operation fail
    every time; such operations use fixed inputs that do not depend on
    the seed, so the failed share of a run is exact.
    """

    def __init__(self, kind, argv, files, known_fault=None):
        self.kind = kind
        self.argv = argv
        self.files = files
        self.known_fault = known_fault


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def labels(n, prefix):
    return ["%s%d" % (prefix, i) for i in range(n)]


def euclidean(rng, n, dim=3):
    """Distance matrix of n random points in the unit cube."""
    while True:
        pts = [tuple(rng.random() for _ in range(dim)) for _ in range(n)]
        dist = [[math.dist(a, b) for b in pts] for a in pts]
        if all(dist[i][j] > 0.0 for i in range(n) for j in range(n) if i != j):
            return dist


def line_dist(values):
    return [[abs(a - b) for b in values] for a in values]


def metric_space(points, dist):
    return {"kind": "metric_space", "points": points, "dist": dist}


def mm_space(points, dist, mass):
    return {"kind": "mm_space", "points": points, "dist": dist, "mass": mass}


def masses(rng, n, zero_share=0.0):
    """Positive masses normalised to total 1, some optionally zero."""
    raw = [0.0 if rng.random() < zero_share else rng.uniform(0.05, 1.0)
           for _ in range(n)]
    if not any(raw):
        raw[0] = 1.0
    total = sum(raw)
    return [v / total for v in raw]


def surjection(rng, n_src, n_tgt):
    """A map range(n_src) -> range(n_tgt) that hits every target index."""
    if n_src < n_tgt:
        raise ValueError("a surjection needs n_src >= n_tgt")
    vals = list(range(n_tgt)) + [rng.randrange(n_tgt) for _ in range(n_src - n_tgt)]
    rng.shuffle(vals)
    return vals


def metric_map(rng, n_src, n_tgt, multi=False):
    """A (multi-valued) map between two random Euclidean spaces."""
    xs, ys = labels(n_src, "x"), labels(n_tgt, "y")
    base = [rng.randrange(n_tgt) for _ in range(n_src)]
    assign = {}
    for i, x in enumerate(xs):
        vals = {base[i]}
        if multi and rng.random() < 0.3:
            vals.add(rng.randrange(n_tgt))
        assign[x] = [ys[j] for j in sorted(vals)]
    return {"kind": "map",
            "source": metric_space(xs, euclidean(rng, n_src)),
            "target": metric_space(ys, euclidean(rng, n_tgt)),
            "assign": assign}


def mm_map(rng, n_src, n_tgt):
    """A point surjection between two random mm-spaces of total mass 1."""
    xs, ys = labels(n_src, "x"), labels(n_tgt, "y")
    img = surjection(rng, n_src, n_tgt)
    return {"kind": "map",
            "source": mm_space(xs, euclidean(rng, n_src), masses(rng, n_src, 0.1)),
            "target": mm_space(ys, euclidean(rng, n_tgt), masses(rng, n_tgt, 0.1)),
            "assign": {x: ys[img[i]] for i, x in enumerate(xs)}}


def mm_pair(rng, n):
    """Two measures on one random base space."""
    pts = labels(n, "x")
    dist = euclidean(rng, n)
    return (mm_space(pts, dist, masses(rng, n, 0.1)),
            mm_space(pts, dist, masses(rng, n, 0.1)))


def transitive_closure(leq):
    n = len(leq)
    reach = [row[:] for row in leq]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def random_poset(rng, n, edge_prob):
    order = list(range(n))
    rng.shuffle(order)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                leq[order[a]][order[b]] = True
    return transitive_closure(leq)


def poset_map(rng, n_src, n_tgt, edge_prob=0.3, keep_prob=0.5):
    """An order-preserving surjection between random posets.

    The source order keeps a random part of the strict order pulled
    back along the map, so the map is order-preserving by construction.
    """
    tleq = random_poset(rng, n_tgt, edge_prob)
    img = surjection(rng, n_src, n_tgt)
    sleq = [[i == j for j in range(n_src)] for i in range(n_src)]
    for i in range(n_src):
        for j in range(n_src):
            a, b = img[i], img[j]
            if a != b and tleq[a][b] and rng.random() < keep_prob:
                sleq[i][j] = True
    sleq = transitive_closure(sleq)
    xs, ys = labels(n_src, "a"), labels(n_tgt, "b")
    return {"kind": "map",
            "source": {"kind": "top_space", "points": xs, "leq": sleq},
            "target": {"kind": "top_space", "points": ys, "leq": tleq},
            "assign": {x: ys[img[i]] for i, x in enumerate(xs)}}


def closure(facets):
    """All nonempty faces of the given facets, as sorted index tuples."""
    out = set()
    for f in facets:
        f = sorted(set(f))
        for mask in range(1, 1 << len(f)):
            out.add(tuple(f[i] for i in range(len(f)) if mask >> i & 1))
    return out


def simplicial_map(rng, n_src, n_edges, n_triangles, n_tgt=6):
    """A simplicial surjection onto a random complex of exact size.

    The target has n_tgt vertices, n_edges edges and n_triangles
    triangles, so it has exactly n_tgt + n_edges + n_triangles simplices
    and the subcomplex walk has a fixed length.  Source facets are random
    sets inside the preimage of a target simplex, so every source simplex
    maps onto a simplex.
    """
    pairs = [(a, b) for a in range(n_tgt) for b in range(a + 1, n_tgt)]
    while True:
        tris = rng.sample(sorted(t for t in closure([range(n_tgt)]) if len(t) == 3),
                          n_triangles)
        edges = {e for t in tris for e in closure([t]) if len(e) == 2}
        if len(edges) <= n_edges:
            break
    edges |= set(rng.sample([p for p in pairs if p not in edges], n_edges - len(edges)))
    tgt = sorted({(v,) for v in range(n_tgt)} | edges | set(tris), key=lambda s: (len(s), s))
    img = surjection(rng, n_src, n_tgt)
    pre = {}
    for i, t in enumerate(img):
        pre.setdefault(t, []).append(i)
    facets = [[i] for i in range(n_src)]
    for _ in range(n_src):
        t = rng.choice(tgt)
        pool = [i for v in t for i in pre[v]]
        k = rng.randint(1, min(len(pool), len(t) + 1))
        facets.append(rng.sample(pool, k))
    src = sorted(closure(facets), key=lambda s: (len(s), s))
    vs, ws = labels(n_src, "v"), labels(n_tgt, "w")
    return {"kind": "map",
            "source": {"kind": "simplicial", "vertices": vs,
                       "simplices": [[vs[i] for i in s] for s in src]},
            "target": {"kind": "simplicial", "vertices": ws,
                       "simplices": [[ws[i] for i in s] for s in tgt]},
            "assign": {v: ws[img[i]] for i, v in enumerate(vs)}}


def gauss_matrix(rng, m, n, scale):
    return {"kind": "linear_map",
            "entries": [[scale * rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(m)]}


def conditioned_matrix(n, cond):
    """A fixed n x n matrix with singular values spread from 1 to 1/cond.

    Q diag(s) Q with Q the symmetric orthogonal Householder reflector of
    the all-ones vector, so every entry is dense and the spectrum exact.
    """
    s = [cond ** (-i / (n - 1)) for i in range(n)]
    q = [[(1.0 if i == j else 0.0) - 2.0 / n for j in range(n)] for i in range(n)]
    entries = [[sum(q[i][k] * s[k] * q[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return {"kind": "linear_map", "entries": entries}


class Writer:
    """Names and writes the input files of one run under one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def put(self, payload, stem):
        self.count += 1
        path = os.path.join(self.root, "%03d-%s.json" % (self.count, stem))
        write_json(path, payload)
        return path

"""Seeded random instance builders shared by the test suites and the CLI.

All builders draw from a caller-supplied random.Random, so the same seed
reproduces the same instance everywhere.  Each builder imports the
module of what it builds, so generating one kind loads no other.
"""

import math


def default_labels(n, prefix="x"):
    return tuple("%s%d" % (prefix, i) for i in range(n))


def random_metric_space(rng, n, prefix="x"):
    """A random n-point metric space: vertices drawn in the unit cube
    with the Euclidean distance."""
    from .metric import FiniteMetricSpace
    if n < 1:
        raise ValueError("need at least one point")
    labels = default_labels(n, prefix)
    while True:
        coords = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
        dist = [[math.dist(a, b) for b in coords] for a in coords]
        if all(dist[i][j] > 0 for i in range(n) for j in range(n) if i != j):
            return FiniteMetricSpace(labels, dist)


def random_multimap(rng, source, target):
    """A random multi-valued map; every point gets a nonempty value set."""
    from .metric import MultiMap
    pts = list(target.points)
    assign = {}
    for x in source.points:
        k = rng.randint(1, len(pts))
        assign[x] = tuple(rng.sample(pts, k))
    return MultiMap(source, target, assign)


def random_function_map(rng, source, target):
    """A random single-valued map as a MultiMap."""
    from .metric import MultiMap
    pts = list(target.points)
    return MultiMap.from_function(source, target,
                                  {x: rng.choice(pts) for x in source.points})


def random_masses(rng, labels, normalize=False, allow_zero=True):
    """Nonnegative masses per label; optionally normalized to total 1."""
    out = {}
    for p in labels:
        v = rng.uniform(0.0, 1.0)
        if not allow_zero and v == 0.0:
            v = 0.5
        if allow_zero and rng.random() < 0.2:
            v = 0.0
        out[p] = v
    if normalize:
        total = sum(out.values())
        if total == 0.0:
            out = {p: 1.0 / len(out) for p in out}
        else:
            out = {p: v / total for p, v in out.items()}
    return out


def random_subset(rng, labels):
    return frozenset(p for p in labels if rng.random() < 0.5)


def random_testfn_values(rng, labels, grid=None):
    """Values in [0,1] per label, optionally snapped to an even grid."""
    if grid:
        return {p: rng.randint(0, grid) / grid for p in labels}
    return {p: rng.random() for p in labels}


def random_poset(rng, n, prefix="p"):
    """A random poset: acyclic edges along a shuffled order, each with
    probability 0.4, closed up."""
    from .topo import FiniteTopSpace, transitive_closure
    if n < 1:
        raise ValueError("need at least one point")
    labels = default_labels(n, prefix)
    order = list(range(n))
    rng.shuffle(order)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                leq[order[a]][order[b]] = True
    return FiniteTopSpace(labels, transitive_closure(leq))


def random_simplicial(rng, n, prefix="v"):
    """A random simplicial complex from at most n random facets."""
    from .discrete import SimplicialComplex
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = default_labels(n, prefix)
    facets = []
    for _ in range(rng.randint(0, n)):
        k = rng.randint(1, n)
        facets.append(rng.sample(list(labels), k))
    return SimplicialComplex.from_facets(labels, facets)


def random_mm_space(rng, n, prefix="x", normalize=False, fully_supported=False):
    """A random metric measure space on a random metric base."""
    from .measure import FiniteMMSpace
    base = random_metric_space(rng, n, prefix)
    mass = random_masses(rng, base.points, normalize=normalize,
                         allow_zero=not fully_supported)
    return FiniteMMSpace(base, mass, fully_supported=fully_supported)


def random_mm_map(rng, source, target):
    """A random total point map between two mm-spaces."""
    from .measure import MMSpaceMap
    pts = list(target.base.points)
    return MMSpaceMap(source, target,
                      {x: rng.choice(pts) for x in source.base.points})

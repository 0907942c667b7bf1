"""Finite metric spaces with multi-valued maps.

The central quantity is the dilatation seminorm: how much a map can
shrink a distance, sup0 of d(x, y) - d(y1, y2) over points and
selections y1 in f[x], y2 in f[y].  It comes in a pointwise and a
subset-capacity form (provably equal, tested), has a closed-form left
dual, and induces a distance between spaces.  The module also carries
the Gromov-Hausdorff distance and the searches used by
the norm-axiom checks (isometry search, expansive-map search).
"""

import itertools

import numpy as np

from .extreal import INF, NEG_INF, sup0
from .category import (FiniteCategory, FiniteMap, compose_maps, first_triangle_violation,
                       scale_tolerance)
from .capacity import CapacityInstance, capacity_norms
from .search import least_max, pair_rows, point_maps, subsets


class EmptySpace(ValueError):
    pass


class MultiValued(ValueError):
    pass


class FiniteMetricSpace:
    """Points with a distance matrix.

    allow_pseudo permits distinct points at distance zero; allow_quasi
    permits asymmetry (the triangle inequality is then checked in its
    directed form).  Distances must be finite and nonnegative.  The
    symmetry and triangle checks allow 1e-9 * max(1, largest distance).
    """

    def __init__(self, points, dist, allow_pseudo=False, allow_quasi=False):
        self.points = tuple(points)
        self.dist = tuple(tuple(map(float, row)) for row in dist)
        self.allow_pseudo = allow_pseudo
        self.allow_quasi = allow_quasi
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point ids")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix shape does not match points")
        self.index = {p: i for i, p in enumerate(self.points)}
        a = self.array = np.asarray(self.dist, dtype=float).reshape(n, n)
        hi = float(a.max(initial=0.0))
        tol = 1e-9 * max(1.0, hi)
        # Counts decide whether some entry is bad (nan fails every
        # comparison); only then does the loop run, to name it.  With every
        # entry finite, tol is scale_tolerance(a), and as fl(u - v) =
        # -fl(v - u), a - a^T > tol somewhere iff |a - a^T| > tol somewhere.
        if not (hi < INF and not np.count_nonzero(a.diagonal())
                and (np.count_nonzero(a >= 0.0) == n * n if allow_pseudo
                     else np.count_nonzero(a > 0.0) == n * (n - 1))
                and (allow_quasi or not np.count_nonzero(a - a.T > tol))):
            _reject_first_bad_entry(self.points, self.dist, scale_tolerance(a),
                                    allow_pseudo, allow_quasi)
        bad = first_triangle_violation(a, tol)
        if bad is not None:
            raise ValueError("triangle inequality fails on (%r, %r, %r)"
                             % tuple(self.points[i] for i in bad))

    def d(self, a, b):
        return self.dist[self.index[a]][self.index[b]]

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (isinstance(other, FiniteMetricSpace)
                and self.points == other.points and self.dist == other.dist)

    def __hash__(self):
        return hash((self.points, self.dist))

    def __repr__(self):
        return "FiniteMetricSpace(%r)" % (list(self.points),)


def _reject_first_bad_entry(points, d, tol, allow_pseudo, allow_quasi):
    """Raise for the first entry, row by row, that breaks the range,
    zero or symmetry rule; the diagonal entry is checked first in its row."""
    n = len(points)
    for i in range(n):
        if d[i][i] != 0.0:
            raise ValueError("nonzero diagonal at %r" % (points[i],))
        for j in range(n):
            v = d[i][j]
            if not (0.0 <= v < INF):
                raise ValueError("distance (%r, %r) outside [0, inf)" % (points[i], points[j]))
            if i != j and v == 0.0 and not allow_pseudo:
                raise ValueError("zero distance between distinct points %r, %r"
                                 % (points[i], points[j]))
            if not allow_quasi and abs(v - d[j][i]) > tol:
                raise ValueError("asymmetric distance at (%r, %r)" % (points[i], points[j]))


def line_space(values, labels=None):
    """Points on the real line with the absolute-value metric."""
    vals = [float(v) for v in values]
    if labels is None:
        labels = values
    dist = [[abs(a - b) for b in vals] for a in vals]
    return FiniteMetricSpace(labels, dist)


def two_point_space(r, labels=("p", "q")):
    """The two-point space S_r used as a probe."""
    return FiniteMetricSpace(labels, [[0.0, float(r)], [float(r), 0.0]],
                             allow_pseudo=(r == 0))


def one_point_space():
    return FiniteMetricSpace(("*",), ((0.0,),))


class MultiMap(FiniteMap):
    """Map between metric spaces assigning each source point a nonempty
    set of target points, kept in target order."""
    multivalued = True

    def __post_init__(self):
        super().__post_init__()
        canon = {}
        tidx = self.target.index
        for x, ys in self.assign.items():
            if not ys:
                raise ValueError("empty value set at %r" % (x,))
            canon[x] = tuple(sorted(set(ys), key=lambda y: tidx[y]))
        object.__setattr__(self, "assign", canon)

    @classmethod
    def from_function(cls, source, target, assign):
        return cls(source, target, {x: (y,) for x, y in assign.items()})

    @property
    def single_valued(self):
        return all(len(ys) == 1 for ys in self.assign.values())

    def value(self, x):
        """The unique value of a single-valued map at x."""
        ys = self.assign[x]
        if len(ys) != 1:
            raise MultiValued("map is multi-valued at %r" % (x,))
        return ys[0]


# -- diameters and the dilatation seminorm --------------------------------

def diameter(sp, subset):
    """sup0 of pairwise distances; the empty set has diameter 0."""
    pts = [sp.index[p] for p in subset]
    d = sp.dist
    return sup0(d[i][j] for i in pts for j in pts)


def _reduce_groups(red, a, groups):
    """out[i, j] = red of a[p, q] over p in groups[i] and q in groups[j],
    for nonempty groups of indices: two reduceat passes, rows then columns."""
    starts = list(itertools.accumulate([0] + [len(g) for g in groups]))[:-1]
    flat = [p for g in groups for p in g]
    return red.reduceat(red.reduceat(a.take(flat, 0), starts).take(flat, 1), starts, axis=1)


def _selection_gap(f, sign):
    """sup0 over point pairs and selections of sign * (d(x,y) - d(y1,y2)).

    Rounding is monotone (fl(u - v) never rises as v grows), so the
    best selection is the nearest pair for sign 1 and the farthest for
    sign -1: the target distances are reduced over each pair of value
    sets, and one subtraction against the source array is maximized.
    With K = sum of |f(x)| the temporaries hold K*m, n*K and n*n entries.
    """
    tix = f.target.index
    near = _reduce_groups(np.minimum if sign > 0 else np.maximum, f.target.array,
                          [[tix[y] for y in f.assign[x]] for x in f.source.points])
    gap = f.source.array - near if sign > 0 else near - f.source.array
    return max(0.0, float(gap.max(initial=0.0)))


def dilatation_norm(f):
    """sup0 over point pairs and selections of d(x,y) - d(y1,y2)."""
    return _selection_gap(f, 1.0)


def dilatation_norm_capacity(f):
    """Subset form: sup0 over target subsets A of diam(preimage of A) - diam(A),
    the seminorm of the diameter capacity.

    Exponential in the target size; used as the oracle against the
    pointwise form.
    """
    return capacity_norms(subsets(f.target.points), f.preimage,
                          lambda a: diameter(f.target, a),
                          lambda b: diameter(f.source, b))[0]


def dilatation_left_dual(f):
    """Closed form of the left dual: sup0 of d(y1,y2) - d(x,y) over selections."""
    return _selection_gap(f, -1.0)


def two_point_probe_dual(f):
    """Left dual realized by explicit two-point probes.

    For every ordered pair of distinct source points and every target
    selection, a probe from the two-point space at the selected target
    distance contributes dil(probe) - dil(f after probe).  The sup over
    probes equals the closed-form left dual when f is single-valued;
    for genuinely multi-valued maps composition pools the value sets,
    so the probe sup only sees the cheapest selection and can be
    strictly below the closed form.
    """
    best = 0.0
    pts = f.source.points
    for x in pts:
        for y in pts:
            if x == y:
                continue
            for y1 in f.assign[x]:
                for y2 in f.assign[y]:
                    r = f.target.d(y1, y2)
                    probe_space = two_point_space(r)
                    g = MultiMap.from_function(probe_space, f.source,
                                               {"p": x, "q": y})
                    term = dilatation_norm(g) - dilatation_norm(compose_maps(f, g))
                    if term > best:
                        best = term
    return best


def codiameter_seminorm(f):
    """How much the diameter can drop along preimages: sup0 over target
    subsets A with nonempty preimage of diam(A) - diam(preimage of A).

    Subsets of at most three points reach the same float.  For (a, b)
    attaining diam A either way round, A' = {a, b} if f^-1{a, b} is
    nonempty, else {a, b, c} for some c in A on the image, has diam A'
    = diam A as the same float and f^-1 A' inside f^-1 A, and fl(u - v)
    never rises as v grows.  So the value is the max over image points c
    and all a, b of D[a, b] - max(G over the pairs of {a, b, c}), D the
    target distance and G[p, q] the largest source distance between the
    fibres of p and q (both either way round; -inf at an empty fibre):
    one (m, m) pass per image point, O(m^3 + n^2) for m target and n
    source points.
    """
    src, tgt = f.source, f.target
    # a -inf row and column, put in every fibre, make empty fibres -inf
    far = np.pad(np.maximum(src.array, src.array.T), (0, 1), constant_values=NEG_INF)
    G = _reduce_groups(np.maximum, far, [[src.index[x] for x in xs] + [len(src.points)]
                                         for xs in f.fibres().values()])
    diag = G.diagonal()
    # reach[c, a] = max(G[c, a], G[c, c], G[a, a]); c runs over the image
    reach = np.maximum(np.maximum(G, diag[:, None]), diag)
    least = np.full(G.shape, INF)
    for r in reach[diag > NEG_INF]:
        np.minimum(least, np.maximum.outer(r, r), out=least)
    gaps = np.maximum(tgt.array, tgt.array.T) - np.maximum(G, least)
    return max(0.0, float(gaps.max(initial=0.0)))


def pullback_metric(f):
    """The source points re-measured through a single-valued map.

    d'(x, y) = d_target(f(x), f(y)); a pseudometric in general.  The
    identity assignment from the pullback space to the source followed
    by f never shrinks pullback distances, so that composite has
    dilatation norm zero.
    """
    if not f.single_valued:
        raise MultiValued("pullback needs a single-valued map")
    pts = f.source.points
    dy = f.target.dist
    tix = f.target.index
    img = [tix[f.value(x)] for x in pts]
    dist = [[dy[img[i]][img[j]] for j in range(len(pts))] for i in range(len(pts))]
    return FiniteMetricSpace(pts, dist, allow_pseudo=True)


# -- distances between spaces ----------------------------------------------

def _check_nonempty(x, y):
    if not x.points or not y.points:
        raise EmptySpace("distances need nonempty spaces")


def min_dilatation_map(x, y):
    """Smallest dilatation norm over single-valued maps x -> y, exactly,
    and the first map in lexicographic order that attains it: (value,
    assignment dict), by search.least_max.  Its rows are the pairs
    (x_j, y_v), slot j holding those of x_j, and the term of (x_j, y_v)
    against (x_i, y_w) reads both ordered pairs, so that a quasi-metric
    is read in full.  When |x| > |y| every map collapses two points, so
    the least distance in x is a lower bound.  Raises ValueError past
    search.MAX_NODES compatibility checks.
    """
    _check_nonempty(x, y)
    n, m = len(x.points), len(y.points)
    dx, dy = x.array, y.array

    def terms(j, v):
        t = dx[j, None, :, None] - dy[None, v, None, :]
        u = dx.T[j, None, :, None] - dy.T[None, v, None, :]
        return np.maximum(t, u, out=t)

    floor = _least_distance(x) if n > m else 0.0
    val, assign = least_max([range(i * m, i * m + m) for i in range(n)],
                            pair_rows(m, terms), floor)
    return val, {x.points[i]: y.points[assign[i]] for i in range(n)}


def _least_distance(sp):
    return min(v for i, row in enumerate(sp.dist) for j, v in enumerate(row) if i != j)


def dil_distance(x, y, symmetrize="none"):
    """Distance induced by the dilatation seminorm: min over maps, symmetrized."""
    _check_nonempty(x, y)
    fwd = min_dilatation_map(x, y)[0]
    if symmetrize == "none":
        return fwd
    bwd = min_dilatation_map(y, x)[0]
    if symmetrize == "plus":
        return (fwd + bwd) / 2.0
    raise ValueError("symmetrize must be 'none' or 'plus'")


def gh_distance(x, y):
    """Gromov-Hausdorff distance: half the least correspondence distortion.

    Every correspondence contains the graph of a map each way, and the
    union of two such graphs is again a correspondence, so the minimum
    is attained on pairs (phi: x -> y, psi: y -> x), searched exactly by
    search.least_max as one assignment, phi first.  Its rows are the
    pairs (x_a, y_b), phi slot a holding (x_a, .) and psi slot b holding
    (., y_b), and the term of two pairs is their distortion
    |d(x_a, x_c) - d(y_b, y_d)|.  When the sizes differ, the least
    distance in the larger space is a lower bound.  Raises ValueError
    past search.MAX_NODES compatibility checks.
    """
    _check_nonempty(x, y)
    n, m = len(x.points), len(y.points)
    dx, dy = x.array, y.array

    def terms(a, b):
        t = dx[a, None, :, None] - dy[None, b, None, :]
        return np.abs(t, out=t)

    floor = 0.0 if n == m else _least_distance(x if n > m else y)
    slots = [range(i * m, i * m + m) for i in range(n)] + [range(k, n * m, m) for k in range(m)]
    return least_max(slots, pair_rows(m, terms), floor)[0] / 2.0


def gh_correspondence_oracle(x, y):
    """Brute-force minimum distortion over all correspondences (tiny spaces).

    Enumerates every relation with surjective projections; exponential
    in |x| * |y|, capped at 16 pairs.
    """
    _check_nonempty(x, y)
    n, m = len(x.points), len(y.points)
    dx, dy = x.dist, y.dist
    best = INF
    for rel in subsets((i, a) for i in range(n) for a in range(m)):
        if len({i for i, _ in rel}) < n or len({a for _, a in rel}) < m:
            continue
        dis = 0.0
        for (i, a), (j, b) in itertools.combinations_with_replacement(rel, 2):
            t = abs(dx[i][j] - dy[a][b])
            if t > dis:
                dis = t
        if dis < best:
            best = dis
    return best / 2.0


# -- searches used by the norm axioms ---------------------------------------

def search_slack(*spaces):
    """The slack of the distance comparisons in the searches below:
    1e-9 times the largest distance in the given spaces."""
    return 1e-9 * max((v for sp in spaces for row in sp.dist for v in row), default=0.0)


def _shrinks(x, y):
    """The clash of two points under a map x -> y that shrinks distances."""
    dx, dy, tol = x.array, y.array, search_slack(x, y)
    return lambda j, v: ~((dy[None, v, None, :] >= dx[j, None, :, None] - tol)
                          & (dy.T[None, v, None, :] >= dx.T[j, None, :, None] - tol))


def find_expansive_map(x, y):
    """A map x -> y that never shrinks distances (dilatation norm 0), or None."""
    return next(point_maps(x.points, y.points, _shrinks(x, y)), None)


def zero_dilatation_endos(sp):
    """All self-maps with dilatation norm zero (never shrinking a distance)."""
    return list(point_maps(sp.points, sp.points, _shrinks(sp, sp)))


def isometry_search(x, y, ok=None):
    """A distance-preserving bijection x -> y, or None (certified, finite).

    ok(i, v), when given, must also hold for each point i sent to v.
    """
    n = len(x.points)
    if n != len(y.points):
        return None
    dx, dy, tol, same = x.array, y.array, search_slack(x, y), np.eye(n, dtype=bool)
    clash = lambda j, v: same[None, v, None, :] | ~(
        (abs(dy[None, v, None, :] - dx[j, None, :, None]) <= tol)
        & (abs(dy.T[None, v, None, :] - dx.T[j, None, :, None]) <= tol))
    return next(point_maps(x.points, y.points, clash, ok), None)


def is_isometry(f):
    """True when a single-valued map preserves every distance (and is bijective)."""
    if not f.single_valued:
        return False
    vals = [f.value(x) for x in f.source.points]
    if len(set(vals)) != len(f.target.points):
        return False
    tol = search_slack(f.source, f.target)
    for a in f.source.points:
        for b in f.source.points:
            if abs(f.source.d(a, b) - f.target.d(f.value(a), f.value(b))) > tol:
                return False
    return True


# -- capacity instances over the diameter ----------------------------------

# bound on the composition closure of diameter_capacity_instance
MAX_MORPHISMS = 400


def diameter_capacity_instance(spaces, generators, annihilated=(),
                               attach_pullbacks=()):
    """A finite category of metric spaces carrying the diameter capacity.

    spaces: {label: FiniteMetricSpace}; generators: {name: MultiMap}
    with endpoints given by matching the source/target spaces against
    the labels.  The category is closed under composition; morphisms
    named in attach_pullbacks (single-valued) additionally get their
    pullback space and the identity-assignment probe attached, which
    realizes the left-dual lower bound for surjective maps.  Generators
    keep their names unless equal to an earlier map, whose name they
    take (in annihilated too); an identity, probe or composite ("g.f")
    whose name is taken gets primes appended.  Returns (CapacityInstance,
    {morphism name: MultiMap}); the instance holds each morphism's
    capacity_norms of the diameter over every target subset, the empty
    one included, ready for dual_inequality_report.
    """
    spaces = dict(spaces)
    label_of = {sp: lab for lab, sp in spaces.items()}
    if len(label_of) != len(spaces):
        raise ValueError("space labels must refer to distinct spaces")

    maps = {}        # name -> MultiMap
    endpoints = {}   # name -> (src label, tgt label)
    by_key = {}      # (src, tgt, assign) -> canonical name
    reserved = set(generators)   # names only their own generator may take

    def key_of(mm):
        return (label_of[mm.source], label_of[mm.target],
                tuple(sorted(mm.assign.items())))

    def add_map(name, mm):
        """Register a map unless an equal one exists; return the kept name."""
        k = key_of(mm)
        if k in by_key:
            return by_key[k]
        while name in maps or name in reserved:
            name += "'"
        maps[name] = mm
        endpoints[name] = (label_of[mm.source], label_of[mm.target])
        by_key[k] = name
        return name

    ids = {}
    for lab, sp in spaces.items():
        ids[lab] = add_map("id_%s" % (lab,),
                           MultiMap(sp, sp, {x: (x,) for x in sp.points}))

    gen_names = {}
    for name, mm in generators.items():
        if mm.source not in label_of or mm.target not in label_of:
            raise ValueError("generator %r runs between unlabeled spaces" % (name,))
        reserved.discard(name)
        gen_names[name] = add_map(name, mm)

    def kept(name):
        if name not in gen_names:
            raise ValueError("%r is not a generator" % (name,))
        return gen_names[name]

    for name in attach_pullbacks:
        mm = maps[kept(name)]
        pull = pullback_metric(mm)
        if pull in label_of:
            # the map already preserves its pullback distances; the
            # probe degenerates to an existing identity assignment
            src = pull
        else:
            plab = "pullback_of_%s" % (name,)
            if plab in spaces:
                raise ValueError("label %r already taken" % (plab,))
            spaces[plab] = pull
            label_of[pull] = plab
            ids[plab] = add_map("id_%s" % (plab,),
                                MultiMap(pull, pull, {x: (x,) for x in pull.points}))
            src = pull
        probe = MultiMap.from_function(src, mm.source,
                                       {x: x for x in src.points})
        add_map("probe_%s" % (name,), probe)

    comp = {}
    work = True
    while work:
        work = False
        names = list(maps)
        for gname in names:
            for fname in names:
                if endpoints[fname][1] != endpoints[gname][0]:
                    continue
                if (gname, fname) in comp:
                    continue
                gf = compose_maps(maps[gname], maps[fname])
                k = key_of(gf)
                if k not in by_key:
                    if len(maps) >= MAX_MORPHISMS:
                        raise ValueError("composition closure exceeds %d morphisms" % (MAX_MORPHISMS,))
                    add_map("%s.%s" % (gname, fname), gf)
                    work = True
                comp[(gname, fname)] = by_key[k]

    mors = [(name, endpoints[name][0], endpoints[name][1]) for name in maps]
    cat = FiniteCategory(list(spaces), mors, ids, comp)

    norms = {name: capacity_norms(subsets(mm.target.points, nonempty=False), mm.preimage,
                                  lambda a: diameter(mm.target, a),
                                  lambda b: diameter(mm.source, b))
             for name, mm in maps.items()}
    inst = CapacityInstance(category=cat, norms=norms,
                            annihilated=tuple(map(kept, annihilated)))
    return inst, dict(maps)

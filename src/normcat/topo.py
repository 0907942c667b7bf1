"""Finite topological spaces and the component / dimension seminorms.

A finite topological space is encoded by its specialization preorder:
open sets are exactly the up-sets, closed sets the down-sets, and a
function between two such spaces is continuous exactly when it is
order-preserving.  Connectivity questions reduce to the comparability
graph.  The component seminorm measures how many pieces a preimage of
a connected set can fall into; the dimension seminorm does the same
for simplex dimension on finite simplicial complexes.
"""

import itertools
import math

import numpy as np

from .capacity import capacity_norms
from .category import FiniteMap, first_transitivity_violation
from .extreal import INF, ext_add, sup0
from .search import bitmask, cap_items, component_counts, down_sets, point_maps, subsets


class IncompatibleCarriers(ValueError):
    pass


class FiniteTopSpace:
    """Points plus a reflexive, transitive leq matrix (opens = up-sets)."""

    def __init__(self, points, leq):
        self.points = tuple(points)
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point ids")
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValueError("leq matrix shape does not match points")
        self.index = {p: i for i, p in enumerate(self.points)}
        for i in range(n):
            if not self.leq[i][i]:
                raise ValueError("leq not reflexive at %r" % (self.points[i],))
        bad = first_transitivity_violation(self.leq)
        if bad is not None:
            raise ValueError("leq not transitive on (%r, %r, %r)"
                             % tuple(self.points[i] for i in bad))

    def below(self, a, b):
        return self.leq[self.index[a]][self.index[b]]

    def comparable(self, a, b):
        return self.below(a, b) or self.below(b, a)

    def is_closed(self, subset):
        s = set(subset)
        return all(q in s for p in s for q in self.points if self.below(q, p))

    def down_closure(self, subset):
        cols = [self.index[p] for p in set(subset)]
        return frozenset(q for q, row in zip(self.points, self.leq)
                         if any(row[j] for j in cols))

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (isinstance(other, FiniteTopSpace)
                and self.points == other.points and self.leq == other.leq)

    def __hash__(self):
        return hash((self.points, self.leq))

    def __repr__(self):
        return "FiniteTopSpace(%r)" % (list(self.points),)


def transitive_closure(matrix):
    n = len(matrix)
    reach = [[bool(v) for v in row] for row in matrix]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return tuple(tuple(row) for row in reach)


def poset_space(points, pairs):
    """Space from generating relations (a <= b pairs); closure is applied."""
    points = tuple(points)
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[index[a]][index[b]] = True
    return FiniteTopSpace(points, transitive_closure(leq))


def discrete_space(points):
    points = tuple(points)
    return FiniteTopSpace(points, [[i == j for j in range(len(points))]
                                   for i in range(len(points))])


def sierpinski_space():
    """Two points, one open and one closed: the smallest connected non-T1 space."""
    return poset_space(("0", "1"), [("0", "1")])


class ContinuousPosetMap(FiniteMap):
    """Total order-preserving assignment; continuity for finite spaces."""

    def __post_init__(self):
        super().__post_init__()
        for a in self.source.points:
            for b in self.source.points:
                if self.source.below(a, b) and not self.target.below(self.assign[a], self.assign[b]):
                    raise ValueError(
                        "not order-preserving on (%r, %r)" % (a, b))


def connected_components(sp, subset):
    """Components of the comparability graph restricted to the subset."""
    remaining = set(subset)
    for p in remaining:
        if p not in sp.index:
            raise ValueError("unknown point %r" % (p,))
    out = []
    while remaining:
        seed = next(iter(remaining))
        block = {seed}
        frontier = [seed]
        while frontier:
            p = frontier.pop()
            for q in list(remaining):
                if q not in block and sp.comparable(p, q):
                    block.add(q)
                    frontier.append(q)
        remaining -= block
        out.append(frozenset(block))
    out.sort(key=lambda b: min(sp.index[p] for p in b))
    return tuple(out)


def fibre_components(f):
    """The connected components of each target point's fibre, in target
    point order: the points of the middle space of f's monotone-light
    factorization, onto which its monotone part maps each source point."""
    return [connected_components(f.source, fib) for fib in f.fibres().values()]


def _adjacency(sp, blocks):
    """adj[u]: the bitmask of the blocks holding a point comparable with
    one of block u's."""
    at = {sp.index[p]: u for u, block in enumerate(blocks) for p in block}
    near = [set() for _ in blocks]
    for i, u in at.items():
        near[u].update(at[j] for j in at if sp.leq[i][j] or sp.leq[j][i])
    return [bitmask(us) for us in near]


def component_seminorm(f):
    """sup0 over nonempty connected target subsets of log #components(preimage).

    An empty preimage over a connected set counts as infinite: a map of
    finite norm must hit every connected piece.  Every singleton is
    connected, so that is exactly a map that is not onto.  Otherwise the
    components of a preimage are those of the fibre components over the
    subset, two of them joined when some of their points are comparable;
    both counts, of the target subset and of its preimage, come from one
    search.component_counts walk each.
    """
    tgt = f.target
    cap_items(len(tgt))
    if len(set(f.assign.values())) < len(tgt):
        return INF
    connected = component_counts([[i] for i in range(len(tgt))],
                                 _adjacency(tgt, [[p] for p in tgt.points]))
    groups, nodes = [], []
    for comps in fibre_components(f):
        groups.append(range(len(nodes), len(nodes) + len(comps)))
        nodes += comps
    pieces = component_counts(groups, _adjacency(f.source, nodes))
    # log increases, so the largest count over a connected subset gives
    # the sup0 of the logs: each count is at least 1, and an empty target
    # has no connected subset
    return math.log(max(itertools.compress(pieces, [c == 1 for c in connected]), default=1))


def component_capacity_form(f):
    """Capacity form over all nonempty target subsets.

    term = log #components(preimage) - log #components(subset); provably
    equal to component_seminorm, kept as its independent check.  Written
    out rather than as capacity_norms: here an empty preimage makes the
    form infinite, while capacity_norms skips a preimage whose capacity
    (log 0 = -inf) is -inf.
    """
    tgt = f.target
    terms = []
    for c in subsets(tgt.points):
        pre = f.preimage(c)
        if not pre:
            return INF
        terms.append(math.log(len(connected_components(f.source, pre)))
                     - math.log(len(connected_components(tgt, c))))
    return sup0(terms)


def monotone_light_report(f):
    """Fiber anatomy of a continuous map.

    monotone: every fiber nonempty and connected; light: every fiber's
    components are singletons; closed: images of closed sets are closed;
    mon_defect: sup0 over points of log #components(fiber), infinite on
    empty fibers.

    The closed sets are the unions of the down-sets of points, so an
    order-preserving f is closed exactly when f(down x) = down f(x) for
    every x (Barmak, Algebraic Topology of Finite Topological Spaces).
    """
    src, tgt = f.source, f.target
    monotone = True
    light = True
    defects = []
    for comps in fibre_components(f):
        if not comps:
            monotone = False
            defects.append(INF)
            continue
        if len(comps) != 1:
            monotone = False
        if any(len(b) > 1 for b in comps):
            light = False
        defects.append(math.log(len(comps)))
    closed = all(frozenset(f.assign[q] for q in src.down_closure((x,)))
                 == tgt.down_closure((f.assign[x],)) for x in src.points)
    return {"monotone": monotone, "light": light, "closed": closed,
            "mon_defect": sup0(defects)}


# -- dimension seminorm on simplicial complexes ------------------------------

def _dim_value(simplices):
    """log(1 + max simplex dimension) of a simplex set; empty counts 0."""
    return math.log(max(map(len, simplices), default=1))


def dimension_seminorm(vmap):
    """Fiber and capacity forms of the dimension seminorm of a simplicial map.

    fiber_form: sup0 over target vertices y of the dim value of f^-1(y).
    capacity_form: sup0 over the subcomplexes C of the dim value of
    f^-1(C) minus that of C.  Empty preimages count 0 (a non-surjective
    inclusion should not be infinitely singular for dimension reasons).

    Only the empty C and the principal subcomplexes cl(t), the faces of
    one target simplex t, are read, each as the handle (t,): its preimage
    is {s : f(s) <= t} and its dim value log|t|.  Lemma: the sup is the
    same, bit for bit.  For C with a nonempty preimage, let s* be a
    largest simplex of f^-1(C) and t = f(s*).  Then cl(t) <= C and s* is
    largest in f^-1(cl t) too, so cl(t)'s term fl(log|s*| - log|t|) is
    >= C's, as log is monotone on integers and fl(a - b) is monotone in
    b.  A C with an empty preimage has a term <= 0, the empty handle's.
    """
    src, tgt = vmap.source, vmap.target

    images = [(s, frozenset(vmap.assign[v] for v in s)) for s in src.simplices]

    def preimage_simplices(handle):
        return frozenset(s for s, image in images for t in handle if image <= t)

    fiber_form = sup0([_dim_value(preimage_simplices((frozenset([y]),)))
                       for y in tgt.vertices])
    handles = [()] + [(t,) for t in tgt.simplices]
    capacity_form = capacity_norms(handles, preimage_simplices,
                                   _dim_value, _dim_value)[0]
    return {"fiber_form": fiber_form, "capacity_form": capacity_form}


def topological_norm(poset_map=None, vmap=None):
    """Component part plus dimension part.

    Either part may be omitted and counts 0; when both are present they
    must describe one map: equal point/vertex carriers and the same
    assignment.
    """
    if poset_map is None and vmap is None:
        raise ValueError("need at least one of poset_map, vmap")
    if poset_map is not None and vmap is not None:
        if (set(poset_map.source.points) != set(vmap.source.vertices)
                or set(poset_map.target.points) != set(vmap.target.vertices)
                or poset_map.assign != vmap.assign):
            raise IncompatibleCarriers("poset and simplicial parts disagree")
    comp = 0.0 if poset_map is None else component_seminorm(poset_map)
    dim = 0.0 if vmap is None else dimension_seminorm(vmap)["capacity_form"]
    return ext_add(comp, dim)


# -- enumeration used by exhaustive checks -----------------------------------

def all_posets(n):
    """All posets on n labeled points, one representative per isomorphism class."""
    if n > 5:
        raise ValueError("poset enumeration is limited to 5 points")
    labels = tuple("p%d" % i for i in range(n))
    return [FiniteTopSpace(labels, leq) for leq in _orders(n)] if n else []


def _orders(n):
    """One leq matrix per isomorphism class of posets on n points.

    Every such poset is one on n - 1 points plus a new maximal point
    whose strict down-set is a down-set of the old one; the extensions
    are kept up to the least relabeled matrix.
    """
    if n == 0:
        return [()]
    idx = range(n)
    seen, out = set(), []
    for old in _orders(n - 1):
        # fewer points below comes first: a linear extension
        ext = sorted(idx[:-1], key=lambda q: sum(row[q] for row in old))
        pos = {q: k for k, q in enumerate(ext)}
        below = [[pos[p] for p in idx[:-1] if p != q and old[p][q]] for q in ext]
        for down in down_sets(below):
            under = {ext[k] for k in down}
            leq = [row + (p in under,) for p, row in enumerate(old)] + [(False,) * (n - 1) + (True,)]
            canon = min(tuple(tuple(leq[p[i]][p[j]] for j in idx) for i in idx)
                        for p in itertools.permutations(idx))
            if canon not in seen:
                seen.add(canon)
                out.append(tuple(leq))
    return out


def all_order_preserving_maps(x, y):
    """Every continuous map between two finite spaces (exhaustive), in
    lexicographic order of y's points."""
    lx, ly = np.array(x.leq), np.array(y.leq)
    # x_j to y_v clashes with x_i to y_w when v, w lose an order of j, i
    clash = lambda j, v: ((lx[j, None, :, None] & ~ly[None, v, None, :])
                          | (lx.T[j, None, :, None] & ~ly.T[None, v, None, :]))
    return [ContinuousPosetMap(x, y, f) for f in point_maps(x.points, y.points, clash)]

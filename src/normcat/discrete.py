"""Set-level instances: finite functions with the fiber-size norm,
simplicial complexes, normed monoids with the two-sided construction,
and cost systems on square-free words.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .extreal import INF, ext_log, sup1
from .category import FiniteCategory, FiniteMap, monoid_category
from .search import point_maps, subsets


class NonInjective(ValueError):
    pass


class NotSimplicial(ValueError):
    pass


class NotAMorphism(ValueError):
    pass


class NotSquareFree(ValueError):
    pass


# -- finite functions ------------------------------------------------------

class FiniteFunction(FiniteMap):
    """A total function between two finite sets, given as tuples."""


def set_norm(f):
    """log of the largest fiber size (floored at 1); zero iff injective."""
    return ext_log(sup1(len(xs) for xs in f.fibres().values()))


def csb_witness(f, g):
    """Given injective f: X -> Y and g: Y -> X, return a bijection X -> Y.

    On finite sets the two injections force |X| = |Y|, so f itself is
    bijective and is returned (as an assignment dict) after checking
    surjectivity.  Raises NonInjective if either map has fibers.
    """
    if set_norm(f) > 0:
        raise NonInjective("first map is not injective")
    if set_norm(g) > 0:
        raise NonInjective("second map is not injective")
    if set(f.source) != set(g.target) or set(f.target) != set(g.source):
        raise ValueError("maps do not run between the same two sets")
    if len(f.source) != len(f.target) or {f(x) for x in f.source} != set(f.target):
        raise RuntimeError("injective endo-pair failed to be surjective")
    return dict(f.assign)


def function_category(sets):
    """The category of all functions between the given finite sets.

    sets: {label: tuple of points}.  Returns (category, norms, funcs)
    with norms the set norm of every morphism.
    """
    labels = list(sets)
    mors = []
    funcs = {}
    by_key = {}
    for a in labels:
        for b in labels:
            src, tgt = sets[a], sets[b]
            for values in itertools.product(tgt, repeat=len(src)):
                # the repr names each (a, b, values) once, whatever
                # separators the labels and points contain
                name = repr((a, b, values))
                funcs[name] = FiniteFunction(src, tgt, dict(zip(src, values)))
                mors.append((name, a, b))
                by_key[(a, b, values)] = name
    ids = {a: by_key[(a, a, tuple(sets[a]))] for a in labels}
    ends = {name: (a, b) for name, a, b in mors}
    comp = {}
    for fname, f in funcs.items():
        fa, fb = ends[fname]
        for gname, g in funcs.items():
            ga, gb = ends[gname]
            if ga != fb:
                continue
            values = tuple(g(f(x)) for x in f.source)
            comp[(gname, fname)] = by_key[(fa, gb, values)]
    cat = FiniteCategory(labels, mors, ids, comp)
    norms = {name: set_norm(fn) for name, fn in funcs.items()}
    return cat, norms, funcs


# -- simplicial complexes --------------------------------------------------

class SimplicialComplex:
    """Downward-closed family of nonempty vertex subsets, singletons included."""

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate point ids")
        simp = set(frozenset(s) for s in simplices)
        for s in simp:
            if not s:
                raise ValueError("the empty set is not a simplex")
            if not s <= vset:
                raise ValueError("simplex %r uses unknown vertices" % (sorted(s),))
            for v in s:
                smaller = s - {v}
                if smaller and smaller not in simp:
                    raise ValueError("not downward closed at %r" % (sorted(s),))
        for v in vset:
            if frozenset([v]) not in simp:
                raise ValueError("missing singleton for vertex %r" % (v,))
        self.simplices = frozenset(simp)

    @classmethod
    def from_facets(cls, vertices, facets):
        simp = set(frozenset([v]) for v in vertices)
        stack = [frozenset(f) for f in facets]
        while stack:
            s = stack.pop()
            if not s or s in simp:
                continue
            simp.add(s)
            for v in s:
                smaller = s - {v}
                if smaller:
                    stack.append(smaller)
        return cls(vertices, simp)

    @property
    def points(self):
        return self.vertices

    @property
    def dim(self):
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def facets(self):
        return [s for s in self.simplices
                if not any(s < t for t in self.simplices)]

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and set(self.vertices) == set(other.vertices)
                and self.simplices == other.simplices)

    def __repr__(self):
        return "SimplicialComplex(%r, %d simplices)" % (list(self.vertices), len(self.simplices))


class SimplicialMap(FiniteMap):
    """Vertex map sending every simplex onto a simplex."""

    def __post_init__(self):
        super().__post_init__()
        for s in self.source.simplices:
            image = frozenset(self.assign[v] for v in s)
            if image not in self.target.simplices:
                raise NotSimplicial(
                    "image %r of simplex %r is not a simplex" % (sorted(image), sorted(s)))


def _injective_simplicial_maps(x, y):
    """Every injective simplicial map x -> y, lexicographic in the vertex
    orders: the search keeps edges on edges, then checks every simplex."""
    xs, ys = x.vertices, y.vertices
    edges = lambda sp, vs: np.array([[frozenset((a, b)) in sp.simplices for b in vs] for a in vs])
    ex, ey, same = edges(x, xs), edges(y, ys), np.eye(len(ys), dtype=bool)
    # x_j to y_v clashes with x_i to y_w when v is w or the edge ji is lost
    clash = lambda j, v: same[None, v, None, :] | (ex[j, None, :, None] & ~ey[None, v, None, :])
    for assign in point_maps(xs, ys, clash):
        if all(frozenset(assign[u] for u in s) in y.simplices for s in x.simplices):
            yield assign


def find_simplicial_isomorphism(x, y):
    """A simplicial isomorphism x -> y, or None when there is none."""
    if len(x.vertices) != len(y.vertices) or len(x.simplices) != len(y.simplices):
        return None
    for assign in _injective_simplicial_maps(x, y):
        back = {w: v for v, w in assign.items()}
        if all(frozenset(back[w] for w in t) in x.simplices for t in y.simplices):
            return assign
    return None


def find_injective_simplicial_map(x, y):
    """An injective simplicial map x -> y, or None."""
    if len(x.vertices) > len(y.vertices):
        return None
    return next(_injective_simplicial_maps(x, y), None)


def simplicial_mutual_embedding(x, y):
    """Zero-norm simplicial maps both ways, if any: (x->y, y->x) or None."""
    f = find_injective_simplicial_map(x, y)
    if f is None:
        return None
    g = find_injective_simplicial_map(y, x)
    if g is None:
        return None
    return f, g


# -- normed monoids and the two-sided norm construction ---------------------

@dataclass(frozen=True)
class NormedMonoid:
    """A finite monoid with a subadditive norm vanishing at the unit."""
    op: Callable
    unit: object
    norm: Callable
    elements: Sequence
    inv: Optional[Callable] = None

    @classmethod
    def from_table(cls, elements, table, unit, norm):
        """A monoid from its table (a dict on pairs, or rows in element
        order); monoid_category checks the monoid laws."""
        elements = tuple(elements)
        if isinstance(table, dict):
            tab = dict(table)
        else:
            tab = {(a, b): table[i][j] for i, a in enumerate(elements)
                   for j, b in enumerate(elements)}
        monoid_category(elements, lambda g, f: tab.get((g, f)), unit)
        if norm[unit] > 1e-12:
            raise ValueError("norm of the unit must be 0")
        for a in elements:
            for b in elements:
                if norm[tab[(a, b)]] > norm[a] + norm[b] + 1e-9:
                    raise ValueError("norm not subadditive at (%r, %r)" % (a, b))
        return cls(op=lambda a, b: tab.get((a, b)), unit=unit,
                   norm=lambda e: norm[e], elements=elements)


def cyclic_group(n):
    """Z/n with the word-length norm for the generators +-1.

    Built from its formulas, so any order n >= 1 costs the same; the
    elements are range(n), and any integer stands for its residue.
    """
    return NormedMonoid(op=lambda a, b: (a + b) % n, unit=0,
                        norm=lambda a: float(min(a % n, -a % n)),
                        elements=range(n), inv=lambda a: -a % n)


def grothendieck_norm(m, fplus, fminus, a, b):
    """Norm of the two-sided morphism (fplus, fminus): a -> b.

    The pair is a morphism exactly when fplus * a == b * fminus; its
    norm is norm(fplus) + norm(fminus).  A sum of two finite norms past
    the largest float raises OverflowError.
    """
    left = m.op(fplus, a)
    right = m.op(b, fminus)
    if left is None or right is None or left != right:
        raise NotAMorphism(
            "(%r, %r) is not a morphism %r -> %r" % (fplus, fminus, a, b))
    terms = m.norm(fplus), m.norm(fminus)
    total = terms[0] + terms[1]
    if total == INF and max(terms) < INF:
        raise OverflowError("the norm %r + %r is too large for a float" % terms)
    return total


def group_norm_category(n):
    """The two-sided-norm category of Z/n: objects are group elements,
    hom(a, b) carries one morphism (fplus, fminus) per fplus, with
    fminus = -b + fplus + a and the norm of grothendieck_norm.
    Returns (category, norms).
    """
    m = cyclic_group(n)
    objs = list(m.elements)
    # each name formatted once, in morphism order
    names = {(fp, a, b): "g%d:%d>%d" % (fp, a, b)
             for a in objs for b in objs for fp in objs}
    mors = [(nm, a, b) for (fp, a, b), nm in names.items()]
    norms = {nm: grothendieck_norm(m, fp, m.op(m.op(m.inv(b), fp), a), a, b)
             for (fp, a, b), nm in names.items()}
    ids = {a: names[m.unit, a, a] for a in objs}
    comp = {(names[gp, b, c], names[fp, a, b]): names[m.op(gp, fp), a, c]
            for a in objs for b in objs for c in objs for fp in objs for gp in objs}
    cat = FiniteCategory(objs, mors, ids, comp)
    return cat, norms


# -- cost systems on square-free words --------------------------------------

@dataclass(frozen=True)
class CostSystem:
    """Nonnegative (possibly infinite) costs on ordered pairs of distinct points."""
    points: tuple
    cost: dict

    def __post_init__(self):
        for x in self.points:
            for y in self.points:
                if x == y:
                    continue
                v = self.cost.get((x, y))
                if v is None or v < 0:
                    raise ValueError("missing or negative cost for (%r, %r)" % (x, y))


def word_cost(cs, word):
    """Sum of step costs along a word; immediate repetitions are rejected.

    A step of infinite cost gives infinity; a sum of finite steps past
    the largest float raises OverflowError.
    """
    word = tuple(word)
    if not word:
        raise ValueError("the empty word has no endpoints; use a one-point word")
    for u, v in zip(word, word[1:]):
        if u == v:
            raise NotSquareFree("immediate repetition at %r" % (u,))
    total = 0.0
    for u, v in zip(word, word[1:]):
        step = cs.cost[(u, v)]
        if step == INF:
            return INF
        total += step
    if total == INF:
        raise OverflowError("the word cost is too large for a float")
    return total


def cost_pseudometric(cs):
    """Largest pseudometric below the symmetrized cost: all-pairs shortest paths."""
    from .category import PqMetricMatrix
    pts = list(cs.points)
    n = len(pts)
    d = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = min(cs.cost[(pts[i], pts[j])], cs.cost[(pts[j], pts[i])])
            if c < d[i][j]:
                d[i][j] = c
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return PqMetricMatrix(tuple(pts), tuple(tuple(row) for row in d))


def cost_category(cs):
    """A finite composition-closed piece of the word category of a cost system.

    Morphisms are the words that are strictly increasing in the point
    order; composition concatenates at the shared endpoint.  Returns
    (category, norms).
    """
    pts = list(cs.points)
    idx = {p: i for i, p in enumerate(pts)}
    words = [tuple(w) for w in subsets(pts)]

    def name(w):
        # the reprs keep ("a>b",) and ("a", "b") apart
        return "w:" + ">".join(map(repr, w))

    mors = [(name(w), w[0], w[-1]) for w in words]
    ids = {p: name((p,)) for p in pts}
    comp = {}
    for w1 in words:
        for w2 in words:
            if w1[-1] != w2[0]:
                continue
            merged = w1 + w2[1:]
            if all(idx[a] < idx[b] for a, b in zip(merged, merged[1:])):
                comp[(name(w2), name(w1))] = name(merged)
    # only keep words that stay composable inside the selection: increasing
    # words always are, so the table above is total on composable pairs
    cat = FiniteCategory(pts, mors, ids, comp)
    norms = {name(w): word_cost(cs, w) for w in words}
    return cat, norms

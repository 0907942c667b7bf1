"""Finite categories with norm data on their morphisms.

A category here is a fully enumerated gadget: finitely many objects,
finitely many named morphisms, an explicit composition table.  A norm
assignment is a map from morphism names into [0, inf].  On top of that
this module provides the axiom checkers (seminorm and norm), the left
and right dual seminorms, the induced point-quasi-metric on objects and
the wide subcategory of zero-norm morphisms.

Composition is written compose(g, f) = "g after f", defined exactly
when target(f) == source(g).

The morphisms of every concrete category in this package are
FiniteMaps: total assignments between the carriers of two finite
spaces, each subclass adding its own structure check.
"""

from dataclasses import dataclass, field

import numpy as np

from . import search
from .extreal import INF, is_norm_value


class CategoryError(ValueError):
    """Construction data does not describe a category."""


# slack of the norm axioms: a value within AXIOM_TOL of its bound passes
AXIOM_TOL = 1e-9


def carrier(space):
    """The points of a finite space: a tuple is its own points."""
    return space if isinstance(space, tuple) else space.points


@dataclass(frozen=True)
class FiniteMap:
    """A total assignment from the source carrier into the target carrier.

    Subclasses check their own structure in __post_init__ after calling
    this one; a subclass with multivalued = True (MultiMap) assigns each
    point a tuple of values.
    """
    source: object
    target: object
    assign: dict
    multivalued = False

    def __post_init__(self):
        if set(self.assign) != set(carrier(self.source)):
            raise ValueError("assignment keys must be exactly the source points")
        tgt = set(carrier(self.target))
        for x in self.assign:
            for y in self.values(x):
                if y not in tgt:
                    raise ValueError("value %r at %r is not a target point" % (y, x))

    def values(self, x):
        return self.assign[x] if self.multivalued else (self.assign[x],)

    def __call__(self, x):
        return self.assign[x]

    def preimage(self, subset):
        """The source points with a value in subset."""
        s = set(subset)
        return frozenset(x for x in self.assign if not s.isdisjoint(self.values(x)))

    def fibres(self):
        """{y: the source points with y among their values, a tuple in source order}"""
        out = {y: [] for y in carrier(self.target)}
        for x in carrier(self.source):
            for y in self.values(x):
                out[y].append(x)
        return {y: tuple(xs) for y, xs in out.items()}


def compose_maps(g, f):
    """g after f, of g's class; defined when f.target == g.source.  A
    multivalued g takes at x the union of its values over f's values."""
    if f.target != g.source:
        raise ValueError("maps are not composable")
    if g.multivalued:
        assign = {x: tuple({z for y in f.values(x) for z in g.values(y)}) for x in f.assign}
    else:
        assign = {x: g(f(x)) for x in f.assign}
    return type(g)(f.source, g.target, assign)


@dataclass(frozen=True)
class Morphism:
    name: str
    src: object
    tgt: object


class FiniteCategory:
    """Objects, morphisms and an explicit, checked composition table.

    morphisms: iterable of (name, src, tgt)
    identities: {object: morphism name}
    compose: {(g_name, f_name): result_name} meaning "g after f"

    Composition is kept as one int32 table over morphism indices, in
    the order of `morphisms`: table[g, f] is the index of "g after f",
    -1 off the composable pairs.  ends[m] holds the object indices of
    the source and target of morphism m, and names[m] its name.
    """

    def __init__(self, objects, morphisms, identities, compose):
        self.objects = tuple(objects)
        at = {x: i for i, x in enumerate(self.objects)}
        if len(at) != len(self.objects):
            raise CategoryError("duplicate object ids")
        self._mor = {}
        for name, src, tgt in morphisms:
            if name in self._mor:
                raise CategoryError("duplicate morphism name %r" % (name,))
            if src not in at or tgt not in at:
                raise CategoryError("morphism %r has endpoints outside the object set" % (name,))
            self._mor[name] = Morphism(name, src, tgt)
        self.identity = dict(identities)
        for obj in self.objects:
            e = self.identity.get(obj)
            if e is None or e not in self._mor:
                raise CategoryError("missing identity for object %r" % (obj,))
            m = self._mor[e]
            if m.src != obj or m.tgt != obj:
                raise CategoryError("identity of %r has wrong endpoints" % (obj,))
        self.names = tuple(self._mor)
        self._index = index = {name: i for i, name in enumerate(self.names)}
        ends = [(at[m.src], at[m.tgt]) for m in self._mor.values()]
        self.ends = np.array(ends, dtype=np.int32).reshape(-1, 2)
        self.table = np.full((len(ends), len(ends)), -1, dtype=np.int32)
        for (g, f), r in compose.items():
            i, j, k = index.get(g), index.get(f), index.get(r)
            if i is None or j is None or k is None:
                raise CategoryError("composition entry (%r, %r) -> %r mentions unknown morphisms" % (g, f, r))
            if ends[j][1] != ends[i][0]:
                raise CategoryError("composition entry (%r, %r) is not composable" % (g, f))
            if ends[k] != (ends[j][0], ends[i][1]):
                raise CategoryError("composite of (%r, %r) has wrong endpoints" % (g, f))
            self.table[i, j] = k
        self._check_table()

    def _check_table(self):
        """Totality on the composable pairs, then the unit laws, then
        associativity; each reports its first failure in the order of
        loops over f, then g, in morphism order."""
        table, names = self.table, self.names
        src, tgt = self.ends.T
        missing = (tgt[:, None] == src[None, :]) & (table.T < 0)   # [f, g]
        if missing.any():
            f, g = np.argwhere(missing)[0].tolist()
            raise CategoryError("missing composite for composable pair (%r, %r)" % (names[g], names[f]))
        ids = np.array([self._index[self.identity[x]] for x in self.objects], dtype=np.intp)
        m = np.arange(len(names))
        left = table[ids[tgt], m] != m
        bad = left | (table[m, ids[src]] != m)
        if bad.any():
            i = int(bad.argmax())
            raise CategoryError("%s identity law fails at %r"
                                % ("left" if left[i] else "right", names[i]))
        bad = self._first_associativity_failure()
        if bad is not None:
            raise CategoryError("associativity fails on (%r, %r, %r)" % bad)

    def _first_associativity_failure(self):
        """The first composable (h, g, f) with h(gf) != (hg)f, or None.

        First in the triple loop's order: f, then g, then h, each in
        morphism order.  Pairs (g, f) are grouped by tgt(g), so h runs
        over the morphisms out of one object per group, and taken in
        blocks whose int32 temporaries hold at most search.BLOCK_FLOATS
        elements, which keeps peak memory flat.
        """
        table, ends = self.table, self.ends
        firsts = []   # (f, g, h) indices, the first failure of each group
        for x in range(len(self.objects)):
            into = np.flatnonzero(ends[:, 1] == x)
            hs = np.flatnonzero(ends[:, 0] == x)
            # composable (f, g) with tgt(g) = x, f-major as in the loop
            fs, gi = np.nonzero(ends[:, 1, None] == ends[into, 0][None, :])
            gs = into[gi]
            step = max(1, search.BLOCK_FLOATS // len(hs))
            for lo in range(0, len(fs), step):
                f = fs[lo:lo + step, None]
                g = gs[lo:lo + step, None]
                bad = table[table[hs, g], f] != table[hs, table[g, f]]
                if bad.any():
                    i, j = np.argwhere(bad)[0].tolist()
                    firsts.append((fs[lo + i], gs[lo + i], hs[j]))
                    break
        if not firsts:
            return None
        f, g, h = min(firsts)
        return self.names[h], self.names[g], self.names[f]

    # -- queries ---------------------------------------------------------

    @property
    def morphisms(self):
        return self._mor

    def compose(self, g, f):
        """Name of 'g after f'; KeyError off the composable pairs."""
        r = self.table[self._index[g], self._index[f]]
        if r < 0:
            raise KeyError((g, f))
        return self.names[r]


def validate_norm_assignment(cat, norms):
    """Every morphism must carry exactly one value in [0, inf]; returns
    the values as a float vector in morphism order."""
    missing = [n for n in cat.morphisms if n not in norms]
    if missing:
        raise CategoryError("norm assignment misses morphisms: %r" % (sorted(missing)[:5],))
    extra = [n for n in norms if n not in cat.morphisms]
    if extra:
        raise CategoryError("norm assignment mentions unknown morphisms: %r" % (sorted(extra)[:5],))
    bad = [n for n, v in norms.items() if not is_norm_value(v)]
    if bad:
        raise CategoryError("norm values outside [0, inf]: %r" % (sorted(bad)[:5],))
    return np.array([norms[n] for n in cat.names], dtype=float)


@dataclass
class AxiomReport:
    ok: bool
    n1_violations: list = field(default_factory=list)   # (identity name, value)
    n2_violations: list = field(default_factory=list)   # (g, f, composite, excess)


def check_seminorm_axioms(cat, norms):
    """N1: identities have norm 0.  N2: norm(g after f) <= norm(g) + norm(f).

    Violations are listed f-major, then g, in morphism order.
    """
    v = validate_norm_assignment(cat, norms)
    rep = AxiomReport(ok=True)
    for obj in cat.objects:
        e = cat.identity[obj]
        if norms[e] > AXIOM_TOL:
            rep.n1_violations.append((e, norms[e]))
    t = cat.table.T   # t[f, g] = g after f
    over = (t >= 0) & (v[np.where(t >= 0, t, 0)] > v[None, :] + v[:, None] + AXIOM_TOL)
    names = cat.names
    for f, g in np.argwhere(over).tolist():
        g, f, r = names[g], names[f], names[t[f, g]]
        bound = norms[g] + norms[f]   # both >= 0, no inf - inf possible
        rep.n2_violations.append((g, f, r, norms[r] - bound))
    rep.ok = not rep.n1_violations and not rep.n2_violations
    return rep


@dataclass
class NormAxiomReport:
    ok: bool
    seminorm: AxiomReport
    n3_pairs_checked: list = field(default_factory=list)   # (X, Y) with modulators both ways
    n3_violations: list = field(default_factory=list)      # (X, Y) without a zero-norm isomorphism
    n4_pairs: list = field(default_factory=list)           # (X, Y, witness) where the inf is 0 and attained


def _hom_minima(cat, v):
    """(x, y, m) for each nonempty hom set, x-major, with x and y object
    indices and m the first morphism from x to y of least value in v."""
    src, tgt = cat.ends.T
    order = np.lexsort((np.arange(len(v)), v, tgt, src))
    s, t = src[order], tgt[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
    return zip(s[first].tolist(), t[first].tolist(), order[first].tolist())


def check_norm_axioms(cat, norms):
    """Seminorm axioms plus N3 (mutual modulators give a norm isomorphism) and N4.

    N4 asks that a vanishing infimum over a hom set is witnessed by an
    actual zero-norm morphism; on a finite category the infimum is a
    minimum, so this passes vacuously and the report just lists the
    pairs where the minimum is zero together with a witness.
    """
    sem = check_seminorm_axioms(cat, norms)
    v = validate_norm_assignment(cat, norms)
    rep = NormAxiomReport(ok=True, seminorm=sem)
    src, tgt = cat.ends.T
    ids = np.array([cat._index[cat.identity[x]] for x in cat.objects], dtype=np.intp)
    zero = v <= AXIOM_TOL
    n = len(cat.objects)
    # has[x, y]: a modulator x -> y; iso[f]: zero-norm f: x -> y has a
    # zero-norm g: y -> x with g after f = id x and f after g = id y
    has = np.zeros((n, n), dtype=bool)
    has[src[zero], tgt[zero]] = True
    iso = ((zero[:, None] & zero[None, :])
           & (cat.table.T == ids[src][:, None]) & (cat.table == ids[tgt][:, None])).any(axis=1)
    found = np.zeros((n, n), dtype=bool)
    found[src[iso], tgt[iso]] = True
    for x, y in np.argwhere(has & has.T).tolist():
        pair = (cat.objects[x], cat.objects[y])
        rep.n3_pairs_checked.append(pair)
        if not found[x, y]:
            rep.n3_violations.append(pair)
    for x, y, best in _hom_minima(cat, v):
        if v[best] <= AXIOM_TOL:
            rep.n4_pairs.append((cat.objects[x], cat.objects[y], cat.names[best]))
    rep.ok = sem.ok and not rep.n3_violations
    return rep


def dual_seminorm(cat, norms, side):
    """Left or right dual of a norm assignment, computed over the category itself.

    left:  |f|*L = sup0 over f' into source(f) of  norm(f') - norm(f after f')
    right: |f|*R = sup0 over f'' out of target(f) of norm(f'') - norm(f'' after f)

    Quantification runs over the morphisms present in the finite
    category.  Terms whose composite has infinite norm contribute
    nothing; an infinite norm(f') against a finite composite gives inf.
    """
    v = validate_norm_assignment(cat, norms)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    # row f, column h: f after h (left) or h after f (right)
    t = cat.table if side == "left" else cat.table.T
    b = v[np.where(t >= 0, t, 0)]
    keep = (t >= 0) & (b < INF)
    terms = v[None, :] - np.where(keep, b, 0.0)
    # sup0 keeps its floor 0.0 unless a term exceeds it, so a -0.0 term never wins
    out = np.max(terms, axis=1, initial=0.0, where=keep & (terms > 0.0))
    return dict(zip(cat.names, out.tolist()))


def scale_tolerance(d):
    """1e-9 * max(1, largest finite entry of the distance array d)."""
    return 1e-9 * max(1.0, float(d[np.isfinite(d)].max(initial=0.0)))


# a bound past the largest float is inf, as in the triple loop, and no warning
@np.errstate(over="ignore")
def first_triangle_violation(dist, tol):
    """The lexicographically first (i, j, k) with d[i][k] > d[i][j] + d[j][k] + tol, or None.

    Rows i are taken in blocks whose (block, n, n) temporaries hold at
    most search.BLOCK_FLOATS elements, so memory stays flat as n grows.

    When d spans several blocks and equals its transpose exactly, the
    block of rows lo.. reads only the columns k >= lo.  For k < i the
    triple (i, j, k) is the same float comparison as its mirror
    (k, j, i), since d[k][i] = d[i][k], fl(d[k][j] + d[j][i]) =
    fl(d[i][j] + d[j][k]), and the same tol is added; the mirror comes
    first, so the first violation has k >= i, whatever the signs of the
    entries.
    """
    d = np.asarray(dist, dtype=float)
    n = len(d)
    step = max(1, search.BLOCK_FLOATS // max(1, n * n))
    mirror = step < n and np.array_equal(d, d.T)
    # a block is laid out as (i, k, j), k from c on, and reads
    # src[k][j] = d[j][k]; a symmetric d is read as itself, row by row
    src = d if mirror else d.T
    for lo in range(0, n, step):
        rows, c = d[lo:lo + step], lo if mirror else 0
        # d[i][j] + d[j][k] + tol, rounded as the triple loop rounds it;
        # tol goes in place, so that a block holds one float temporary
        bound = rows[:, None, :] + src[None, c:, :]
        bound += tol
        bad = rows[:, c:, None] > bound
        if np.count_nonzero(bad):
            i, j, k = np.argwhere(bad.transpose(0, 2, 1))[0].tolist()
            return lo + i, j, k + c
    return None


def first_transitivity_violation(leq):
    """The lexicographically first (i, j, k) with leq[i][j] and leq[j][k]
    but not leq[i][k], or None: a 0/1 relation is transitive exactly when
    its complement 1 - leq satisfies the triangle inequality."""
    rel = np.asarray(leq, dtype=bool)
    return first_triangle_violation(1.0 - rel.reshape(len(rel), len(rel)), 0.0)


def _reject_first_bad_entry(labels, d, tol):
    """Raise for the first entry, row by row, that breaks the diagonal
    or sign rule; the diagonal entry is checked first in its row."""
    n = len(labels)
    for i in range(n):
        if abs(d[i][i]) > tol:
            raise ValueError("nonzero diagonal at %r" % (labels[i],))
        for j in range(n):
            if d[i][j] < 0:
                raise ValueError("negative distance at (%r, %r)" % (labels[i], labels[j]))


@dataclass(frozen=True)
class PqMetricMatrix:
    """A point-quasi-metric: zero diagonal and the triangle inequality.

    Symmetry is not required, infinite entries are allowed.
    """
    labels: tuple
    dist: tuple

    def __post_init__(self):
        n = len(self.labels)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix shape does not match labels")
        d = np.asarray(self.dist, dtype=float).reshape(n, n)
        tol = scale_tolerance(d)
        # d reads None as nan and "1" as 1.0; the loop raises TypeError on them
        if (np.asarray(self.dist).dtype.kind not in "biuf"
                or np.count_nonzero(d.diagonal() > tol) or np.count_nonzero(d < 0)):
            _reject_first_bad_entry(self.labels, self.dist, tol)
        bad = first_triangle_violation(d, tol)
        if bad is not None:
            i, j, k = bad
            raise ValueError(
                "triangle inequality fails: d(%r,%r) > d(%r,%r) + d(%r,%r)"
                % (self.labels[i], self.labels[k], self.labels[i],
                   self.labels[j], self.labels[j], self.labels[k]))

    def value(self, a, b):
        return self.dist[self.labels.index(a)][self.labels.index(b)]


def induced_pqmetric(cat, norms, symmetrize="none"):
    """Distance between objects: the smallest norm over the hom set (inf if empty).

    symmetrize: "none" (raw quasi-metric), "max", "plus" (half-sum), or a
    real p >= 1 for the p-th root of the sum of p-th powers.
    """
    v = validate_norm_assignment(cat, norms)
    objs = cat.objects
    n = len(objs)
    raw = [[INF] * n for _ in range(n)]
    for i, j, best in _hom_minima(cat, v):
        raw[i][j] = norms[cat.names[best]]
    if symmetrize == "none":
        out = raw
    elif symmetrize == "max":
        out = [[max(raw[i][j], raw[j][i]) for j in range(n)] for i in range(n)]
    elif symmetrize == "plus":
        out = [[(raw[i][j] + raw[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    else:
        p = float(symmetrize)
        if p < 1:
            raise ValueError("p-symmetrization needs p >= 1")

        def pmean(a, b):
            if a == INF or b == INF:
                return INF
            return (a ** p + b ** p) ** (1.0 / p)

        out = [[pmean(raw[i][j], raw[j][i]) for j in range(n)] for i in range(n)]
    return PqMetricMatrix(tuple(objs), tuple(tuple(row) for row in out))


def modulator_subcategory(cat, norms):
    """The wide subcategory of zero-norm morphisms (modulators).

    Requires the seminorm axioms: N1 puts every identity inside, N2
    keeps the selection closed under composition.  A violation surfaces
    as a CategoryError.
    """
    zero = validate_norm_assignment(cat, norms) <= AXIOM_TOL
    for obj in cat.objects:
        if norms[cat.identity[obj]] > AXIOM_TOL:
            raise CategoryError("identity of %r has nonzero norm; N1 fails" % (obj,))
    mors = [(m.name, m.src, m.tgt) for m, z in zip(cat.morphisms.values(), zero) if z]
    keep = np.flatnonzero(zero)
    t = cat.table[np.ix_(keep, keep)].T   # t[f, g] = g after f, f-major as in the loop
    names = [name for name, _, _ in mors]
    comp = {}
    for f, g in np.argwhere(t >= 0).tolist():
        r = int(t[f, g])
        if not zero[r]:
            raise CategoryError(
                "zero-norm morphisms are not closed under composition "
                "(%r after %r has positive norm); N2 must fail" % (names[g], names[f]))
        comp[(names[g], names[f])] = cat.names[r]
    return FiniteCategory(cat.objects, mors, dict(cat.identity), comp)


# -- small builders, used by tests and the instance corpus ---------------

def identity_only_category(labels):
    """The discrete category on the given objects."""
    mors = [("id_%s" % (x,), x, x) for x in labels]
    ids = {x: "id_%s" % (x,) for x in labels}
    comp = {(m, m): m for m, _, _ in [(n, s, t) for n, s, t in mors]}
    return FiniteCategory(labels, mors, ids, comp)


def monoid_category(elements, op, unit):
    """One-object category "*" whose morphisms are the monoid elements.

    compose(g, f) = op(g, f), so the monoid product is read as
    "g after f".  FiniteCategory checks the unit and associativity laws;
    an op that returns None or leaves the elements, or a unit that is
    not an element, raises CategoryError here.
    """
    names = {e: "m_%r" % (e,) for e in elements}
    if unit not in names:
        raise CategoryError("unit %r is not an element" % (unit,))
    comp = {}
    for f in elements:
        for g in elements:
            r = op(g, f)
            if r is None or r not in names:
                raise CategoryError("operation leaves the elements at (%r, %r)" % (g, f))
            comp[(names[g], names[f])] = names[r]
    mors = [(names[e], "*", "*") for e in elements]
    return FiniteCategory(["*"], mors, {"*": names[unit]}, comp)

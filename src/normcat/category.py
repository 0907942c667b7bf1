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
from .extreal import INF, is_norm_value, sup0


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
    this one; MultiMap overrides values() to return a value set.
    """
    source: object
    target: object
    assign: dict

    def __post_init__(self):
        if set(self.assign) != set(carrier(self.source)):
            raise ValueError("assignment keys must be exactly the source points")
        tgt = set(carrier(self.target))
        for x in self.assign:
            for y in self.values(x):
                if y not in tgt:
                    raise ValueError("value %r at %r is not a target point" % (y, x))

    def values(self, x):
        return (self.assign[x],)

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
    """

    def __init__(self, objects, morphisms, identities, compose):
        self.objects = tuple(objects)
        obj_set = set(self.objects)
        if len(obj_set) != len(self.objects):
            raise CategoryError("duplicate object ids")
        self._mor = {}
        for name, src, tgt in morphisms:
            if name in self._mor:
                raise CategoryError("duplicate morphism name %r" % (name,))
            if src not in obj_set or tgt not in obj_set:
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
        self._comp = dict(compose)
        self._into = {obj: [] for obj in self.objects}
        self._outof = {obj: [] for obj in self.objects}
        for m in self._mor.values():
            self._into[m.tgt].append(m.name)
            self._outof[m.src].append(m.name)
        self._check_table()

    def _check_table(self):
        mor = self._mor
        comp = self._comp
        for (g, f), r in comp.items():
            if g not in mor or f not in mor or r not in mor:
                raise CategoryError("composition entry (%r, %r) -> %r mentions unknown morphisms" % (g, f, r))
            if mor[f].tgt != mor[g].src:
                raise CategoryError("composition entry (%r, %r) is not composable" % (g, f))
            if mor[r].src != mor[f].src or mor[r].tgt != mor[g].tgt:
                raise CategoryError("composite of (%r, %r) has wrong endpoints" % (g, f))
        # totality on composable pairs
        for f in mor.values():
            for g in self._outof[f.tgt]:
                if (g, f.name) not in comp:
                    raise CategoryError("missing composite for composable pair (%r, %r)" % (g, f.name))
        # identity laws
        for m in mor.values():
            if comp[(self.identity[m.tgt], m.name)] != m.name:
                raise CategoryError("left identity law fails at %r" % (m.name,))
            if comp[(m.name, self.identity[m.src])] != m.name:
                raise CategoryError("right identity law fails at %r" % (m.name,))
        bad = self._first_associativity_failure()
        if bad is not None:
            raise CategoryError("associativity fails on (%r, %r, %r)" % bad)

    def _first_associativity_failure(self):
        """The first composable (h, g, f) with h(gf) != (hg)f, or None.

        First in the triple loop's order: f, then g, then h, each in
        morphism order.  The table holds composites as morphism indices
        (-1 off the composable pairs).  Pairs (g, f) are grouped by
        tgt(g), so h runs over one outof list per group, and taken in
        blocks whose int32 temporaries hold at most search.BLOCK_FLOATS
        elements, which keeps peak memory flat.
        """
        index = {name: i for i, name in enumerate(self._mor)}
        table = np.full((len(index), len(index)), -1, dtype=np.int32)
        for (g, f), r in self._comp.items():
            table[index[g], index[f]] = index[r]
        obj = {x: i for i, x in enumerate(self.objects)}
        ends = np.array([(obj[m.src], obj[m.tgt]) for m in self._mor.values()],
                        dtype=np.int32)
        firsts = []   # (f, g, h) indices, the first failure of each group
        for x in self.objects:
            into = np.array([index[g] for g in self._into[x]], dtype=np.int32)
            hs = np.array([index[h] for h in self._outof[x]], dtype=np.int32)
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
        names = list(self._mor)
        f, g, h = min(firsts)
        return names[h], names[g], names[f]

    # -- queries ---------------------------------------------------------

    @property
    def morphisms(self):
        return self._mor

    def morphism(self, name):
        return self._mor[name]

    def compose(self, g, f):
        """Name of 'g after f'."""
        return self._comp[(g, f)]

    def hom(self, x, y):
        return [n for n in self._outof[x] if self._mor[n].tgt == y]

    def into(self, x):
        return list(self._into[x])

    def outof(self, x):
        return list(self._outof[x])


def validate_norm_assignment(cat, norms):
    """Every morphism must carry exactly one value in [0, inf]."""
    missing = [n for n in cat.morphisms if n not in norms]
    if missing:
        raise CategoryError("norm assignment misses morphisms: %r" % (sorted(missing)[:5],))
    extra = [n for n in norms if n not in cat.morphisms]
    if extra:
        raise CategoryError("norm assignment mentions unknown morphisms: %r" % (sorted(extra)[:5],))
    bad = [n for n, v in norms.items() if not is_norm_value(v)]
    if bad:
        raise CategoryError("norm values outside [0, inf]: %r" % (sorted(bad)[:5],))


@dataclass
class AxiomReport:
    ok: bool
    n1_violations: list = field(default_factory=list)   # (identity name, value)
    n2_violations: list = field(default_factory=list)   # (g, f, composite, excess)


def check_seminorm_axioms(cat, norms):
    """N1: identities have norm 0.  N2: norm(g after f) <= norm(g) + norm(f)."""
    validate_norm_assignment(cat, norms)
    rep = AxiomReport(ok=True)
    for obj in cat.objects:
        e = cat.identity[obj]
        if norms[e] > AXIOM_TOL:
            rep.n1_violations.append((e, norms[e]))
    for f in cat.morphisms.values():
        for g in cat.outof(f.tgt):
            r = cat.compose(g, f.name)
            bound = norms[g] + norms[f.name]   # both >= 0, no inf - inf possible
            if norms[r] > bound + AXIOM_TOL:
                rep.n2_violations.append((g, f.name, r, norms[r] - bound))
    rep.ok = not rep.n1_violations and not rep.n2_violations
    return rep


@dataclass
class NormAxiomReport:
    ok: bool
    seminorm: AxiomReport
    n3_pairs_checked: list = field(default_factory=list)   # (X, Y) with modulators both ways
    n3_violations: list = field(default_factory=list)      # (X, Y) without a zero-norm isomorphism
    n4_pairs: list = field(default_factory=list)           # (X, Y, witness) where the inf is 0 and attained


def check_norm_axioms(cat, norms):
    """Seminorm axioms plus N3 (mutual modulators give a norm isomorphism) and N4.

    N4 asks that a vanishing infimum over a hom set is witnessed by an
    actual zero-norm morphism; on a finite category the infimum is a
    minimum, so this passes vacuously and the report just lists the
    pairs where the minimum is zero together with a witness.
    """
    sem = check_seminorm_axioms(cat, norms)
    rep = NormAxiomReport(ok=True, seminorm=sem)
    mods = {}   # (X, Y) -> list of zero-norm morphisms
    for m in cat.morphisms.values():
        if norms[m.name] <= AXIOM_TOL:
            mods.setdefault((m.src, m.tgt), []).append(m.name)
    for x in cat.objects:
        for y in cat.objects:
            fwd = mods.get((x, y), [])
            bwd = mods.get((y, x), [])
            if not fwd or not bwd:
                continue
            rep.n3_pairs_checked.append((x, y))
            idx, idy = cat.identity[x], cat.identity[y]
            found = any(
                cat.compose(g, f) == idx and cat.compose(f, g) == idy
                for f in fwd for g in bwd)
            if not found:
                rep.n3_violations.append((x, y))
    for x in cat.objects:
        for y in cat.objects:
            hom = cat.hom(x, y)
            if not hom:
                continue
            best = min(hom, key=lambda n: norms[n])
            if norms[best] <= AXIOM_TOL:
                rep.n4_pairs.append((x, y, best))
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
    validate_norm_assignment(cat, norms)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out = {}
    for f in cat.morphisms.values():
        terms = []
        if side == "left":
            for fp in cat.into(f.src):
                comp = cat.compose(f.name, fp)
                a, b = norms[fp], norms[comp]
                if b == INF:
                    continue
                terms.append(INF if a == INF else a - b)
        else:
            for fpp in cat.outof(f.tgt):
                comp = cat.compose(fpp, f.name)
                a, b = norms[fpp], norms[comp]
                if b == INF:
                    continue
                terms.append(INF if a == INF else a - b)
        out[f.name] = sup0(terms)
    return out


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
    validate_norm_assignment(cat, norms)
    objs = cat.objects
    n = len(objs)
    raw = [[INF] * n for _ in range(n)]
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            hom = cat.hom(x, y)
            if hom:
                raw[i][j] = min(norms[m] for m in hom)
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
    validate_norm_assignment(cat, norms)
    keep = {n for n, v in norms.items() if v <= AXIOM_TOL}
    for obj in cat.objects:
        if cat.identity[obj] not in keep:
            raise CategoryError("identity of %r has nonzero norm; N1 fails" % (obj,))
    mors = [(m.name, m.src, m.tgt) for m in cat.morphisms.values() if m.name in keep]
    comp = {}
    for f in mors:
        for g in mors:
            if cat.morphism(f[0]).tgt == cat.morphism(g[0]).src:
                r = cat.compose(g[0], f[0])
                if r not in keep:
                    raise CategoryError(
                        "zero-norm morphisms are not closed under composition "
                        "(%r after %r has positive norm); N2 must fail" % (g[0], f[0]))
                comp[(g[0], f[0])] = r
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

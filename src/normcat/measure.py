"""Metric measure spaces and the Prokhorov seminorm.

Everything is computed on breakpoints: the mass of a thickening is a
step function of the radius, so each infimum over radii is an exact
min/max over finitely many candidates and the headline identities hold
without float tolerances beyond accumulation noise.
"""

from dataclasses import dataclass

from .category import FiniteMap
from .extreal import INF
from .capacity import SubobjectFamily, Capacity
from .search import solve, subsets


class BaseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMMSpace:
    """A finite metric space with a nonnegative mass per point."""
    base: object
    mass: dict
    fully_supported: bool = False

    def __post_init__(self):
        if set(self.mass) != set(self.base.points):
            raise ValueError("mass keys must be exactly the base points")
        for p, m in self.mass.items():
            if not (0.0 <= m < INF):
                raise ValueError("mass at %r outside [0, inf)" % (p,))
            if self.fully_supported and m == 0.0:
                raise ValueError("zero mass at %r in a fully supported space" % (p,))

    def measure(self, subset):
        return sum(self.mass[p] for p in subset)

    def volume(self):
        return sum(self.mass.values())

    @property
    def points(self):
        return self.base.points


class MMSpaceMap(FiniteMap):
    """Total point map between two mm-spaces (masses ride along, unchecked)."""


def compose_mm_maps(g, f):
    if (f.target.base.points != g.source.base.points
            or f.target.base.dist != g.source.base.dist):
        raise ValueError("maps are not composable")
    return MMSpaceMap(f.source, g.target,
                      {x: g.assign[f.assign[x]] for x in f.assign})


def _dist_to_subset(base, x, subset):
    idxs = [base.index[p] for p in subset]
    if not idxs:
        return INF
    i = base.index[x]
    return min(base.dist[i][j] for j in idxs)


def _steps(sp, subset):
    """Breakpoints and cumulative masses of the thickening step function.

    Returns (ts, ms) with ts[0] = 0 and ms[i] the mass within closed
    distance ts[i] of the subset; points at infinite distance (empty
    subset) never enter.
    """
    dists = {}
    for x in sp.base.points:
        d = _dist_to_subset(sp.base, x, subset)
        if d < INF:
            dists[x] = d
    ts = sorted(set(dists.values()) | {0.0})
    ms = []
    for t in ts:
        ms.append(sum(sp.mass[x] for x, d in dists.items() if d <= t))
    return ts, ms


def prokhorov_capacity(sp, subset, v):
    """Least delta > 0 with mass(open delta-thickening) + delta >= v.

    Exact: the mass term is a left-continuous step function of delta,
    so the infimum is a min over breakpoint intervals.  v <= 0 gives 0.
    """
    if v <= 0:
        return 0.0
    ts, ms = _steps(sp, subset)
    best = INF
    for i, t in enumerate(ts):
        nxt = ts[i + 1] if i + 1 < len(ts) else INF
        req = v - ms[i]
        if req <= t:
            cand = t
        elif req <= nxt:
            cand = req
        else:
            continue
        if cand < best:
            best = cand
    return best


def capacity_value_kinks(sp, subset):
    """All v where v -> prokhorov_capacity(sp, subset, v) can change slope."""
    ts, ms = _steps(sp, subset)
    out = set()
    for m in ms:
        for t in ts:
            if t < INF:
                out.add(m + t)
    out.add(0.0)
    return sorted(out)


def _threshold_closed(sp, subset, shift, v):
    """Least delta > 0 with mass(closed (shift+delta)-thickening) + delta >= v."""
    if v <= 0:
        return 0.0
    dists = {}
    for x in sp.base.points:
        d = _dist_to_subset(sp.base, x, subset)
        if d < INF:
            dists[x] = d
    # mass jumps happen at the original distance values; deciding ball
    # membership there (rather than at shift + (d - shift), which can
    # round below d) keeps the branch structure exact
    ts = sorted({d for d in dists.values() if d > shift} | {shift})
    best = INF
    for i, t in enumerate(ts):
        u = max(t - shift, 0.0)
        nxt = ts[i + 1] - shift if i + 1 < len(ts) else INF
        m = sum(sp.mass[x] for x, d in dists.items() if d <= t)
        cand = max(u, v - m)
        if cand < nxt and cand < best:
            best = cand
    return best


def prokhorov_seminorm(f):
    """Least delta making every target set catchable in the source.

    inf over delta > 0 such that for every target subset A and radius
    r >= 0: source mass of the (r+delta)-thickened preimage plus delta
    dominates the target mass of the r-thickened A.  Per (A, r-interval)
    the threshold is exact; the result is their maximum.
    """
    src, tgt = f.source, f.target
    best = 0.0
    for a in subsets(tgt.base.points):
        b = f.preimage(a)
        ss, vs = _steps(tgt, a)
        for s, v in zip(ss, vs):
            cand = _threshold_closed(src, b, s, v)
            if cand > best:
                best = cand
    return best


def prokhorov_seminorm_capacity_form(f):
    """Oracle route: sup over subsets and value kinks of the capacity gap."""
    src, tgt = f.source, f.target
    best = 0.0
    for a in subsets(tgt.base.points):
        b = f.preimage(a)
        kinks = set(capacity_value_kinks(tgt, a)) | set(capacity_value_kinks(src, b))
        kinks.add(max(kinks) + 1.0)
        for v in kinks:
            term = prokhorov_capacity(src, b, v) - prokhorov_capacity(tgt, a, v)
            if term > best:
                best = term
    return best


def prokhorov_distance(mu_sp, nu_sp, symmetrize=False):
    """inf over delta > 0 with mu(open delta-thickening of A) + delta >= nu(A) for all A."""
    if (mu_sp.base.points != nu_sp.base.points
            or mu_sp.base.dist != nu_sp.base.dist):
        raise BaseMismatch("the two measures must share one base metric space")
    best = 0.0
    for a in subsets(mu_sp.base.points):
        cand = prokhorov_capacity(mu_sp, a, nu_sp.measure(a))
        if cand > best:
            best = cand
    if symmetrize:
        return (best + prokhorov_distance(nu_sp, mu_sp, symmetrize=False)) / 2.0
    return best


def volume_norm(sp):
    """Norm of the unique map from the empty mm-space, reported with the volume.

    The empty source turns the capacity gap into v - c_P(A, v); the sup
    over subsets and value kinks is exact and never exceeds the volume.
    """
    vol = sp.volume()
    best = 0.0
    for a in subsets(sp.base.points, nonempty=False):
        kinks = set(capacity_value_kinks(sp, a))
        kinks.add(max(kinks) + vol + 1.0)
        for v in kinks:
            term = v - prokhorov_capacity(sp, a, v)
            if term > best:
                best = term
    if best > vol + 1e-9:
        raise RuntimeError("norm of the initial map %r exceeds the volume %r" % (best, vol))
    return {"norm_of_initial": best, "volume": vol}


def prokhorov_family(sp, v_values):
    """Subobject handles (A, v) ordered by reversed inclusion and growing v.

    c_P shrinks when A grows and grows with v, so this is the order that
    makes it a monotone capacity.  Returns (family, capacity).
    """
    vs = sorted(set(float(v) for v in v_values))
    subs = map(frozenset, subsets(sp.base.points, nonempty=False, limit=10))
    fam = SubobjectFamily(
        carrier=sp,
        handles=tuple((a, v) for a in subs for v in vs),
        leq=lambda h1, h2: h2[0] <= h1[0] and h1[1] <= h2[1],
        is_empty=lambda h: len(h[0]) == 0)
    cap = Capacity(lambda h: prokhorov_capacity(sp, h[0], h[1]),
                   direction="monotone")
    return fam, cap


def measure_isometry_search(a, b):
    """A bijective isometry matching masses pointwise, both up to 1e-9, or None."""
    n = len(a.base.points)
    if n != len(b.base.points):
        return None
    da, db = a.base.dist, b.base.dist
    pa, pb = a.base.points, b.base.points
    masses = [[v for v in range(n) if abs(a.mass[pa[i]] - b.mass[pb[v]]) <= 1e-9]
              for i in range(n)]
    ok = lambda j, v, i, w: (v != w and abs(db[v][w] - da[j][i]) <= 1e-9
                             and abs(db[w][v] - da[i][j]) <= 1e-9)
    out = next(solve(masses, ok), None)
    return None if out is None else dict(zip(pa, (pb[k] for k in out)))

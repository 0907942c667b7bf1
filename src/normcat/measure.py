"""Metric measure spaces and the Prokhorov seminorm.

Everything is computed on breakpoints: the mass of a thickening is a
step function of the radius, so each infimum over radii is an exact
min/max over finitely many candidates and the headline identities hold
without float tolerances beyond accumulation noise.
"""

import bisect
from dataclasses import dataclass

from .category import FiniteMap
from .extreal import INF
from .metric import isometry_search
from .search import MAX_ITEMS, level_sums, subset_rows, subset_sums, subsets


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


def _column(sp, subset):
    """The distance from each point of sp to subset, inf for the empty subset."""
    d, idxs = sp.base.dist, [sp.base.index[p] for p in subset]
    return [min([row[j] for j in idxs], default=INF) for row in d]


def _steps(sp, subset):
    """Breakpoints and cumulative masses of the thickening step function.

    Returns (ts, ms) with ts[0] = 0 and ms[i] the mass within closed
    distance ts[i] of the subset; points at infinite distance (empty
    subset) never enter.
    """
    if not subset:
        return [0.0], [0]
    return level_sums(_column(sp, subset), [sp.mass[p] for p in sp.points])


def _capacity(ts, ms, v):
    """prokhorov_capacity from the steps (ts, ms) of the thickening.

    Each interval's candidate is at least the one before, so the first
    candidate inside its interval is the least; the last interval never
    ends.
    """
    if v <= 0:
        return 0.0
    for i, t in enumerate(ts):
        nxt = ts[i + 1] if i + 1 < len(ts) else INF
        req = v - ms[i]
        if req <= t:
            return t
        if req <= nxt:
            return req


def prokhorov_capacity(sp, subset, v):
    """Least delta > 0 with mass(open delta-thickening) + delta >= v.

    Exact: the mass term is a left-continuous step function of delta,
    so the infimum is a min over breakpoint intervals, met first at the
    interval holding it.  v <= 0 gives 0.
    """
    return _capacity(*_steps(sp, subset), v)


def _kinks(ts, ms):
    out = {m + t for m in ms for t in ts if t < INF}
    out.add(0.0)
    return sorted(out)


def capacity_value_kinks(sp, subset):
    """All v where v -> prokhorov_capacity(sp, subset, v) can change slope."""
    return _kinks(*_steps(sp, subset))


def _threshold(ts, ms, shift, v, floor):
    """max(floor, least delta > 0 with mass(closed (shift+delta)-thickening)
    + delta >= v), from the steps (ts, ms) of the thickening.

    The least delta is at most v minus the mass within shift, so floor
    is returned at once when that bound does not exceed it.  Mass jumps
    happen at the original distance values; deciding ball membership
    there (rather than at shift + (t - shift), which can round below t)
    keeps the branch structure exact.  Each interval's candidate is at
    least the end of the interval before, so the first that fits its
    interval is the least; the last interval never ends.
    """
    j = bisect.bisect_right(ts, shift)
    m = ms[j - 1] if j else 0
    if v - m <= floor:
        return floor
    for t, nxt in zip([shift] + ts[j:], ts[j:] + [INF]):
        cand = max(max(t - shift, 0.0), v - m)
        if cand < nxt - shift:
            return max(floor, cand)
        m = ms[j]
        j += 1


def _masses(sp):
    """The masses in point order and, within the subset cap, their
    subset_sums table."""
    w = [sp.mass[p] for p in sp.points]
    return w, (subset_sums(w) if len(w) <= MAX_ITEMS else None)


def prokhorov_seminorm(f):
    """Least delta making every target set catchable in the source.

    inf over delta > 0 such that for every target subset A and radius
    r >= 0: source mass of the (r+delta)-thickened preimage plus delta
    dominates the target mass of the r-thickened A.  Per (A, r-interval)
    the threshold is exact; the result is their maximum.

    One subset walk carries, for each A, the target's distances to A and
    the source's distances to f^-1(A) in one row (min over the points
    of A); masses come from exact point-order sums.
    """
    src, tgt = f.source, f.target
    n = len(tgt.points)
    walk = subset_rows([_column(tgt, [q]) + _column(src, f.fiber(q)) for q in tgt.points])
    tmass, smass = _masses(tgt), _masses(src)
    best = 0.0
    for _, row in walk:
        ts, ms = level_sums(row[n:], *smass)
        for s, v in zip(*level_sums(row[:n], *tmass)):
            best = _threshold(ts, ms, s, v, best)
    return best


def prokhorov_seminorm_capacity_form(f):
    """Oracle route: sup over subsets and value kinks of the capacity gap.

    Written out rather than as capacity_norms over handles (A, v): every
    kink of A is evaluated on the steps of A and of its preimage, built
    once per subset, which such handles would rebuild for every kink.
    """
    src, tgt = f.source, f.target
    best = 0.0
    for a in subsets(tgt.base.points):
        src_steps, tgt_steps = _steps(src, f.preimage(a)), _steps(tgt, a)
        kinks = set(_kinks(*src_steps)) | set(_kinks(*tgt_steps))
        kinks.add(max(kinks) + 1.0)
        for v in kinks:
            term = _capacity(*src_steps, v) - _capacity(*tgt_steps, v)
            if term > best:
                best = term
    return best


def prokhorov_distance(mu_sp, nu_sp, symmetrize=False):
    """inf over delta > 0 with mu(open delta-thickening of A) + delta >= nu(A) for all A.

    One subset walk carries each A's distances; nu(A) and the masses of
    the thickenings come from exact point-order sums.
    """
    if (mu_sp.base.points != nu_sp.base.points
            or mu_sp.base.dist != nu_sp.base.dist):
        raise BaseMismatch("the two measures must share one base metric space")
    walk = subset_rows([_column(mu_sp, [p]) for p in mu_sp.points])
    (mu_w, mu_sums), (_, nu_sums) = _masses(mu_sp), _masses(nu_sp)
    best = 0.0
    for mask, row in walk:
        v = nu_sums[mask]
        # the capacity is at most nu(A) - mu(A), the mass outside A it needs
        if v - mu_sums[mask] > best:
            best = max(best, _capacity(*level_sums(row, mu_w, mu_sums), v))
    if symmetrize:
        return (best + prokhorov_distance(nu_sp, mu_sp, symmetrize=False)) / 2.0
    return best


def volume_norm(sp):
    """Norm of the unique map from the empty mm-space, reported with the volume.

    The empty source turns the capacity gap into v - c_P(A, v); the sup
    over subsets and value kinks is exact and never exceeds the volume.
    Written out rather than as capacity_norms for the reason given at
    prokhorov_seminorm_capacity_form: one subset's steps serve all its
    kinks.
    """
    vol = sp.volume()
    best = 0.0
    for a in subsets(sp.base.points, nonempty=False):
        steps = _steps(sp, a)
        kinks = set(_kinks(*steps))
        kinks.add(max(kinks) + vol + 1.0)
        for v in kinks:
            term = v - _capacity(*steps, v)
            if term > best:
                best = term
    if best > vol + 1e-9:
        raise RuntimeError("norm of the initial map %r exceeds the volume %r" % (best, vol))
    return {"norm_of_initial": best, "volume": vol}


def prokhorov_family(sp, v_values):
    """Handles (A, v) with their order and the Prokhorov capacity on them.

    (A, v) <= (B, w) when B is inside A and v <= w: c_P shrinks when A
    grows and grows with v, so this is the order that makes it a
    monotone capacity.  Returns (handles, leq, capacity), the arguments
    of check_capacity_monotone.
    """
    vs = sorted(set(float(v) for v in v_values))
    subs = map(frozenset, subsets(sp.base.points, nonempty=False, limit=10))
    return (tuple((a, v) for a in subs for v in vs),
            lambda h1, h2: h2[0] <= h1[0] and h1[1] <= h2[1],
            lambda h: prokhorov_capacity(sp, h[0], h[1]))


def measure_isometry_search(a, b):
    """A bijective isometry matching masses pointwise, or None.

    Distances match up to metric.search_slack and masses up to 1e-9
    times the larger total mass.
    """
    tol = 1e-9 * max(a.volume(), b.volume())
    pa, pb = a.base.points, b.base.points
    return isometry_search(a.base, b.base,
                           lambda i, v: abs(a.mass[pa[i]] - b.mass[pb[v]]) <= tol)

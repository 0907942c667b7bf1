"""The exhaustive searches behind the seminorms, their axioms and the
induced distances.

A seminorm here is a supremum over the subobjects of a finite target,
so its exact value is one walk over subsets; the norm axioms (N3 in
particular) ask for maps found by a search over point assignments; a
distance is a least worst case over maps.  Every walk has a fixed
order, so every value and every first witness is reproducible.
"""

import array
import bisect
import math

# bound on the compatibility checks of one search before it gives up
MAX_NODES = 5_000_000

# bound on the items of one subset walk
MAX_ITEMS = 16


def subsets(items, nonempty=True, limit=MAX_ITEMS):
    """Every subset of items as a list, in bitmask order.

    Subset k holds items[i] for each bit i set in k, in item order, so
    the empty subset (left out when nonempty) comes first and the full
    one last.  Raises ValueError, before anything is yielded, when there
    are more than limit items.
    """
    items = tuple(items)
    n = len(items)
    _cap(n, limit)
    return ([items[i] for i in range(n) if mask >> i & 1]
            for mask in range(1 if nonempty else 0, 1 << n))


def _cap(n, limit=MAX_ITEMS):
    if n > limit:
        raise ValueError("subset enumeration is limited to %d elements, got %d" % (limit, n))


def subset_rows(cols):
    """(mask, row) for every nonempty subset S of the columns, where bit i
    of mask is set for each i in S and row[x] = min(cols[i][x] for i in S).

    Depth first: S + [j] follows S for every j above the largest item of
    S, and its row is one elementwise min of the row of S with cols[j],
    so at most len(cols) + 1 rows are alive at once.  Same cap and error
    as subsets, raised before anything is yielded.
    """
    _cap(len(cols))

    def walk():
        # (item, mask, row) per level of the branch; the root is the empty set
        branch, i = [(-1, 0, [math.inf] * (len(cols[0]) if cols else 0))], 0
        while True:
            if i < len(cols):
                _, mask, row = branch[-1]
                mask, row = mask | 1 << i, [b if b < a else a for a, b in zip(row, cols[i])]
                branch.append((i, mask, row))
                yield mask, row
                i += 1
            elif len(branch) > 1:
                i = branch.pop()[0] + 1
            else:
                return

    return walk()


def subset_sums(weights):
    """sums[mask]: the weights at the bits of mask added left to right in
    index order, bit-identical to sum() over those weights in order.

    Entry mask is the entry without its highest bit plus that bit's
    weight, so the table costs one addition per entry.
    """
    _cap(len(weights))
    sums = array.array("d", [0.0])
    for w in weights:
        sums.extend(array.array("d", (s + w for s in sums)))
    return sums


def level_sums(row, weights, sums=None):
    """(levels, totals): the distinct finite values of row, increasing, and
    for each level t the weights[x] with row[x] <= t added left to right
    in index order, bit-identical to sum() over them.  With sums, the
    subset_sums table of weights, each total is one lookup."""
    if sums is None:
        levels = sorted({t for t in row if t < math.inf})
        return levels, [sum([w for w, d in zip(weights, row) if d <= t]) for t in levels]
    levels, totals, mask = [], [], 0
    for x in sorted(range(len(row)), key=row.__getitem__):
        t = row[x]
        if t == math.inf:
            break
        mask |= 1 << x
        if levels and levels[-1] == t:
            totals[-1] = sums[mask]
        else:
            levels.append(t)
            totals.append(sums[mask])
    return levels, totals


def _charge(nodes, k):
    nodes[0] += k
    if nodes[0] > MAX_NODES:
        raise ValueError("search is limited to %d nodes" % (MAX_NODES,))


def solve(domains, compatible, nodes=None):
    """Every list a with a[i] in domains[i] and compatible(j, a[j], i, a[i])
    for all j < i, in lexicographic order of the domains.

    Forward checking: placing a[i] removes the values that clash with it
    from every later domain, and a prefix that empties one is not
    extended.  Each call of compatible is one node, counted in the
    one-item list nodes (shared by the searches handed it); past
    MAX_NODES the search raises ValueError.
    """
    nodes = [0] if nodes is None else nodes

    def extend(a, doms):
        if not doms:
            yield a
            return
        i, later = len(a), doms[1:]
        for v in doms[0]:
            rest = []
            for k, dom in enumerate(later, i + 1):
                _charge(nodes, len(dom))
                dom = [w for w in dom if compatible(i, v, k, w)]
                if not dom:
                    break
                rest.append(dom)
            else:
                yield from extend(a + [v], rest)

    return extend([], [list(d) for d in domains])


def least_max(domains, term, floor):
    """The least cost over lists a with a[i] in domains[i], and the first
    list in lexicographic order that attains it; (inf, None) when a
    domain is empty.

    A list costs max(floor, term(j, a[j], i, a[i]) for j < i), and floor
    must bound every cost from below.  A greedy dive gives the bound ub
    from above; unless ub is floor, bisecting the distinct terms between
    them finds the least r at which solve finds a list with every term
    at most r.  The scan of the terms and the decisions share one count.
    """
    if not all(domains):
        return math.inf, None
    n = len(domains)
    a, ub = [], floor
    for i in range(n):
        costs = [max([ub] + [term(j, a[j], i, w) for j in range(i)]) for w in domains[i]]
        ub = min(costs)
        a.append(domains[i][costs.index(ub)])
    if ub == floor:
        # the dive took the first value of cost floor at every slot, so it
        # is the first list of cost floor
        return ub, a
    nodes = [0]
    _charge(nodes, sum(len(domains[j]) * len(domains[i]) for i in range(n) for j in range(i)))
    cands = sorted({floor, ub} | {t for i in range(n) for j in range(i) for v in domains[j]
                                  for w in domains[i] if floor < (t := term(j, v, i, w)) < ub})
    first = {}

    def feasible(r):
        first[r] = next(solve(domains, lambda j, v, i, w: term(j, v, i, w) <= r, nodes), None)
        return first[r] is not None

    # ub is feasible, so bisect ends on a candidate it tested
    best = cands[bisect.bisect_left(cands, True, key=feasible)]
    return best, first[best]

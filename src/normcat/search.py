"""The exhaustive searches behind the seminorms, their axioms and the
induced distances.

A seminorm here is a supremum over the subobjects of a finite target,
so its exact value is one walk over subsets, or over the down-sets of
an order when the subobjects are those; the norm axioms (N3 in
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


def subset_rows(cols, combine=min):
    """(mask, row) for every nonempty subset S of the columns, where bit i
    of mask is set for each i in S and row[x] = combine(cols[i][x] for i
    in S), with combine min or max.

    Depth first: S + [j] follows S for every j above the largest item of
    S, and its row is one elementwise combine of the row of S with
    cols[j], starting from the empty row (inf under min, -inf under max),
    so at most len(cols) + 1 rows are alive at once.  Same cap and error
    as subsets, raised before anything is yielded.
    """
    _cap(len(cols))
    if combine is min:
        empty, join = math.inf, lambda row, col: [b if b < a else a for a, b in zip(row, col)]
    else:
        empty, join = -math.inf, lambda row, col: [b if b > a else a for a, b in zip(row, col)]

    def walk():
        # (item, mask, row) per level of the branch; the root is the empty set
        branch, i = [(-1, 0, [empty] * (len(cols[0]) if cols else 0))], 0
        while True:
            if i < len(cols):
                _, mask, row = branch[-1]
                mask, row = mask | 1 << i, join(row, cols[i])
                branch.append((i, mask, row))
                yield mask, row
                i += 1
            elif len(branch) > 1:
                i = branch.pop()[0] + 1
            else:
                return

    return walk()


def subset_maxima(cols, keys):
    """tops for every nonempty subset S of the columns, in the order of
    subset_rows(cols, max): tops[t] is T[S] for the table

        T[{}] = -inf,  T[S] = max(T[S without its highest item i],
                                  row[k] for k in keys[t][i]),

    where row is the walk's row of S.  When column i holds, at each
    position, the largest distance either way round between that
    position's point and the points of item i, and keys[t][i] lists the
    positions of those points, T[S] is the diameter of the points of the
    items of S (-inf when there are none): the row of S holds every
    distance from the points of i to the points of S.  One table per
    key list, built like the subset_sums table, so a subset costs one
    read per key.  Same cap as subset_rows, raised before anything is
    yielded.
    """
    walk = subset_rows(cols, max)
    tables = [array.array("d", [-math.inf]) * 2 ** len(cols) for _ in keys]

    def tops():
        for mask, row in walk:
            i = mask.bit_length() - 1
            rest = mask ^ 1 << i
            out = []
            for table, key in zip(tables, keys):
                top = table[rest]
                for k in key[i]:
                    if row[k] > top:
                        top = row[k]
                table[mask] = top
                out.append(top)
            yield out

    return tops()


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


def down_sets(below):
    """Every down-set of a finite poset, as the increasing list of its items.

    The items are 0 .. len(below) - 1 numbered in a linear extension:
    item i lies above the items in below[i], all less than i (its covers
    are enough).  Depth first over the items in order, each is first
    left out and then put in when everything in below[i] is in, so the
    empty set comes first and every branch ends in a down-set.  Each
    decision on an item is one node; past MAX_NODES the walk raises
    ValueError.  Iterative, so a poset of any height stays within the
    recursion limit.
    """
    n, nodes = len(below), [0]
    chosen, items = [False] * n, []

    def walk():
        i = 0
        while True:
            # leave out every item from i on, then step back to the last
            # left-out item that can go in, leaving out those after it
            _charge(nodes, n - i)
            yield list(items)
            i = n - 1
            while i >= 0 and (chosen[i] or not all(chosen[j] for j in below[i])):
                if chosen[i]:
                    chosen[i] = False
                    items.pop()
                i -= 1
            if i < 0:
                return
            _charge(nodes, 1)
            chosen[i] = True
            items.append(i)
            i += 1

    return walk()


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
    at most r, and each list found lowers the upper end to its own cost.
    The scan of the terms, the decisions and the costs share one count.
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
    # every candidate below lo is infeasible, and hi indexes the cost of
    # the cheapest list found (len(cands) before the first).  A list found
    # at r is the first with every term at most r, so, solve yielding in
    # lexicographic order, also the first with every term at most its cost
    lo, hi, first = 0, len(cands), None
    while lo < hi:
        mid = (lo + hi) // 2
        r = cands[mid]
        a = next(solve(domains, lambda j, v, i, w: term(j, v, i, w) <= r, nodes), None)
        if a is None:
            lo = mid + 1
        else:
            _charge(nodes, n * (n - 1) // 2)
            cost = max([floor] + [term(j, a[j], i, a[i]) for i in range(n) for j in range(i)])
            hi, first = bisect.bisect_left(cands, cost), a
    return cands[hi], first

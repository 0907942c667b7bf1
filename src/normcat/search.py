"""The exhaustive searches behind the seminorms, their axioms and the
induced distances.

A seminorm here is a supremum over the subobjects of a finite target,
so its exact value is one walk over subsets, or over the down-sets of
an order when the subobjects are those; the norm axioms (N3 in
particular) ask for maps found by a search over point assignments; a
distance is a least worst case over maps; fits finds both over a
table of terms between pairs (point, value).  Every walk has a fixed
order, so every value and every first witness is reproducible.
"""

import math

import numpy as np

# bound on the compatibility checks of one search before it gives up
MAX_NODES = 5_000_000

# bound on the items of one subset walk
MAX_ITEMS = 16

# bound on the floats of one block of a subset table or of a term table
BLOCK_FLOATS = 2 ** 14

# the empty mask's entry in a subset table of int32 ranks
INT32_MAX = 2 ** 31 - 1


def subsets(items, nonempty=True, limit=MAX_ITEMS):
    """Every subset of items as a list, in bitmask order.

    Subset k holds items[i] for each bit i set in k, in item order, so
    the empty subset (left out when nonempty) comes first and the full
    one last.  Raises ValueError, before anything is yielded, when there
    are more than limit items.
    """
    items = tuple(items)
    n = len(items)
    cap_items(n, limit)
    return ([items[i] for i in range(n) if mask >> i & 1]
            for mask in range(1 if nonempty else 0, 1 << n))


def cap_items(n, limit=MAX_ITEMS):
    """Raise the one ValueError of every subset walk when n items are
    more than limit."""
    if n > limit:
        raise ValueError("subset enumeration is limited to %d elements, got %d" % (limit, n))


def subset_table(cols, width=None):
    """Every subset's row of an (n, m) array of columns, rows[mask] the
    least of cols[i] over the bits i of mask (inf for the empty mask, or
    INT32_MAX in a table of int32), yielded as blocks (start,
    rows[start:start + k]) in bitmask order.

    The rows of the low items are built by doubling, rows[2^i + S] =
    min(rows[S], cols[i]); that table is the first block (read-only)
    and every later block takes its min with the row of one subset of
    the high items.  A block has 2^k rows for the largest k <= n with
    2^k * width <= BLOCK_FLOATS (or one row), where width, the floats
    per row of the caller's largest array, defaults to m.  Every entry
    is a min of the columns' own floats, so exact in any order.  Same
    cap and error as subsets, raised before anything is allocated.
    """
    n, m = cols.shape
    cap_items(n)
    # lo low items, whose 2^lo rows make one block
    lo = min(n, max(1, BLOCK_FLOATS // max(1, width or m)).bit_length() - 1)

    def blocks():
        low = np.empty((1 << lo, m), dtype=cols.dtype)
        low[0] = math.inf if cols.dtype.kind == "f" else INT32_MAX
        for i in range(lo):
            np.minimum(low[:1 << i], cols[i], out=low[1 << i:2 << i])
        low.flags.writeable = False
        yield 0, low
        for high in range(1, 1 << (n - lo)):
            picked = cols[[lo + j for j in range(n - lo) if high >> j & 1]]
            yield high << lo, np.minimum(low, picked.min(axis=0))

    return blocks()


def subset_sums(weights):
    """sums[mask]: the weights at the bits of mask added left to right in
    index order, bit-identical to sum() over those weights in order.

    Built by doubling, sums[2^i + S] = sums[S] + weights[i], so the
    table costs one addition per entry.
    """
    cap_items(len(weights))
    return _double(np.zeros(1 << len(weights)), weights)


def _double(sums, weights):
    """subset_sums of weights written into sums, whose entry 0 is 0."""
    k = 1
    for w in weights:
        np.add(sums[:k], w, sums[k:k + k])
        k += k
    return sums


def rank_table(cols, sides, width=None):
    """(blocks, sort, sums) for an (n, m) array of columns split, left
    to right, into one side per list of weights in sides, a column per
    point.

    Each entry is ranked once among its side's entries, after the sides
    before it, ties broken by position, so a rank stands for one float
    and one point.  blocks is subset_table on those int32 ranks: the
    least rank over a subset is the rank of a least float.  sort(rows),
    for rows of a block, gives (d, totals), a column per row: one int32
    sort orders each side of a row in its own positions, d is the
    distance at each position and totals the side's weights within it,
    added in index order like sum().  On a side of at most MAX_ITEMS
    points a total is one lookup in sums by the running sum of the bits
    of the points so far (inside a tie group, part of the group): sums
    holds each such side's subset_sums table from the last entry of the
    one before it on, so for one side it is that table.  A larger side's
    totals run over the points in order.  Same cap and error as subsets,
    raised before anything is allocated.
    """
    n, m = cols.shape
    cap_items(n)
    # column by column, so that each side's entries are one run and the
    # column of an entry is its position // n
    flat = cols.T.ravel()
    order = flat.argsort(kind="stable")
    # each column's point as a bit of its side, 0 past the cap; each
    # capped side's start in sums, and each other side's columns
    bit, tables, plain, lo, top = [], [], [], 0, 0
    for weights in sides:
        k = len(weights)
        if lo:
            # the entries of this side and the later ones go stably after
            # the rest, so that each side's ranks follow the sides before
            order = order.take((order >= n * lo).argsort(kind="stable"))
        if k > MAX_ITEMS:
            bit += [0] * k
            plain.append((lo, lo + k, weights))
        else:
            bit += [1 << i for i in range(k)]
            tables.append((top, weights))
            top += (1 << k) - 1
        lo += k
    ranks = np.empty(n * m, dtype=np.int32)
    ranks[order] = np.arange(n * m, dtype=np.int32)
    # down a sorted row the bits add up to the full masks of the sides
    # before plus the side's mask so far
    vals, bits = flat.take(order), np.array(bit, dtype=np.intp).repeat(n).take(order)
    sums = np.zeros(top + 1)
    # the last side first: a side's entry 0 is the full mask's entry of
    # the table before it, written after it
    for at, weights in reversed(tables):
        _double(sums[at:at + (1 << len(weights))], weights)

    def sort(rows):
        # in place on a copy: on a small block np.sort's wrapper costs
        # more than the sort
        r = rows.copy()
        r.sort(axis=1)
        r = r.T
        d, masks = vals.take(r), bits.take(r)
        totals = sums.take(np.add.accumulate(masks, axis=0, out=masks))
        for lo, hi, weights in plain:
            dists, level, part = vals.take(rows[:, lo:hi].T), d[lo:hi], totals[lo:hi]
            part.fill(0.0)
            for x, w in enumerate(weights):
                part += np.where(dists[x] <= level, w, 0.0)
        return d, totals

    return subset_table(ranks.reshape(m, n).T, width), sort, sums


def level_sums(row, weights):
    """(levels, totals): the distinct finite values of row, increasing, and
    for each level t the sum() of the weights[x] with row[x] <= t, in
    index order."""
    levels = sorted({t for t in row if t < math.inf})
    return levels, [sum([w for w, d in zip(weights, row) if d <= t]) for t in levels]


def bitmask(indices):
    """The int with bit i set for each i in indices."""
    return sum(1 << i for i in set(indices))


def component_counts(groups, adj):
    """counts[mask]: the number of connected components of the graph on
    the nodes of the groups at the bits of mask, where groups[i] lists
    group i's nodes and adj[u] is the bitmask of node u's neighbours
    (a symmetric relation).

    Depth first over the groups, each step adding a group above the
    highest one in: its nodes join the parent's components, each a
    bitmask of nodes, one at a time, and a node merges every component
    that meets its neighbours.  Only the walk's stack, at most n calls
    deep, holds component lists, never a table of them.  Same cap and
    error as subsets, raised before anything is allocated.
    """
    n = len(groups)
    cap_items(n)
    counts = [0] * (1 << n)

    def walk(mask, start, comps):
        for i in range(start, n):
            merged = comps
            for u in groups[i]:
                near, joined, rest = adj[u], 1 << u, []
                for c in merged:
                    if c & near:
                        joined |= c
                    else:
                        rest.append(c)
                rest.append(joined)
                merged = rest
            child = mask | 1 << i
            counts[child] = len(merged)
            if i + 1 < n:
                walk(child, i + 1, merged)

    walk(0, 0, [])
    return counts


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


def fits(slots, rows, r, nodes=None):
    """Every list a with a[i] in range(len(slots[i])) whose terms
    T[p_j, p_i], j < i, are all at most r, p_i = slots[i][a[i]], in
    lexicographic order (slots and rows as for least_max; T may be a
    bool table, read as 0 and 1).

    Forward checking (Haralick and Elliott, Artificial Intelligence 14,
    1980) over bitmasks read from blocks of at most BLOCK_FLOATS floats
    of T (or one row): placing a value ands each later slot's domain
    with the mask of the values whose term against it is at most r, and
    a placement that empties one is not extended.  Each value a domain
    holds when so checked is one node, counted in the one-item list
    nodes (shared by the searches handed it); past MAX_NODES, or when
    len(T) ** 2 is past it, the search raises ValueError.
    """
    if not slots or not slots[0]:
        return iter([] if slots else [[]])
    return _fits(slots, *_layout(slots), rows, r, [0] if nodes is None else nodes)


def _layout(slots):
    """(cols, word, size): the slots' rows, each padded with -1, a bit in no
    domain, to the words of 8, 16, 32 or 64 bits the largest takes; the
    numpy type of a word; and len(T), whose square must fit the count."""
    longest = max(map(len, slots))
    bits = next(b for b in (8, 16, 32, 64) if longest <= b or b == 64)
    cols = []
    for slot in slots:
        cols.extend(slot)
        cols.extend([-1] * (-(-longest // bits) * bits - len(slot)))
    cols = np.array(cols)
    size = int(cols.max()) + 1
    if size * size > MAX_NODES:
        raise ValueError("search is limited to %d nodes" % (MAX_NODES,))
    return cols, "<u%d" % (bits // 8), size


def _fits(slots, cols, word, size, rows, r, nodes):
    """The lists of fits, on the _layout of slots."""
    # masks[p][k]: the int with bit w set when T[p, slots[k][w]] <= r
    step, masks = max(1, BLOCK_FLOATS // size), []
    for lo in range(0, size, step):
        ok = (rows(lo, min(size, lo + step)) <= r).take(cols, axis=1)
        masks += np.packbits(ok, axis=1, bitorder="little").view(word).tolist()
    per = len(cols) // len(slots) // 64
    if per > 1:
        # a slot of more than 64 values spans several words
        masks = [[sum(ws[s + t] << 64 * t for t in range(per)) for s in range(0, len(ws), per)]
                 for ws in masks]
    a = [0] * len(slots)
    # frame i: (values of slot i still to try, domains of the slots after i)
    stack = [((1 << len(slots[0])) - 1, [(1 << len(slot)) - 1 for slot in slots[1:]])]
    while stack:
        todo, later = stack[-1]
        if not todo:
            stack.pop()
            continue
        i = len(stack) - 1
        low = todo & -todo
        stack[-1] = (todo ^ low, later)
        w = a[i] = low.bit_length() - 1
        if not later:
            yield list(a)
            continue
        mask = masks[slots[i][w]]
        rest, count = [], 0
        for k, dom in enumerate(later, i + 1):
            count += dom.bit_count()
            dom &= mask[k]
            if not dom:
                break
            rest.append(dom)
        _charge(nodes, count)
        if len(rest) == len(later):
            stack.append((rest[0], rest[1:]))


def point_maps(xs, ys, clash, ok=None):
    """Every map, as a dict in lexicographic order, of the points xs to the
    values ys with ok(j, v) for xs[j] sent to ys[v] (when ok is given) under
    which no two points clash: fits at r = 0 on pair_rows(len(ys), clash)."""
    m = len(ys)
    slots = [[j * m + v for v in range(m) if ok is None or ok(j, v)] for j in range(len(xs))]
    return ({p: ys[slot[k] % m] for p, slot, k in zip(xs, slots, a)}
            for a in fits(slots, pair_rows(m, clash), 0))


def least_max(slots, rows, floor):
    """The least cost over lists a with a[i] in range(len(slots[i])), and
    the first list in lexicographic order that attains it; (inf, None)
    when a slot is empty.

    slots[i] lists the rows of one term table T that slot i's values
    stand for, in order, and rows(lo, hi) returns T[lo:hi] as a float
    array, T having a row for each of 0 .. the largest row in slots.  A
    list costs max(floor, T[p_j, p_i] for j < i), p_i the row of a[i],
    and floor must bound every cost from below.  A greedy dive, reading
    the rows of the values it chooses, gives the bound ub from above;
    unless ub is floor, bisecting the distinct entries of T between them
    finds the least r at which fits yields a list, and each list found
    lowers the upper end to its own cost.  So an entry that
    no earlier slot reads against a later one must be at most floor or
    repeat one that is read.  Rows come in blocks of at most BLOCK_FLOATS
    floats (or one row), and the dive keeps only its last block.  The
    table, len(T) ** 2 floats, must fit the node count before it is
    built; the scan of its terms, which merges them into the distinct
    ones as it goes, the decisions and the costs share that count.
    """
    if not all(slots):
        return math.inf, None
    size = 1 + max(map(max, slots), default=0)
    step = max(1, BLOCK_FLOATS // size)
    a, ub, run, start, block = [], floor, None, -step, None
    for i, slot in enumerate(slots):
        k = 0
        if run is not None:
            # a value costs the worst term of the chosen rows against it,
            # or ub when none is worse: take the first at ub, if any
            c = run[slice(slot.start, slot.stop, slot.step) if type(slot) is range
                    else slot].tolist()
            k = next((w for w, t in enumerate(c) if t <= ub), None)
            if k is None:
                ub = min(c)
                k = c.index(ub)
        a.append(k)
        if i + 1 < len(slots):
            p = slot[k]
            if not start <= p < start + step:
                start = p - p % step
                block = rows(start, min(size, start + step))
            run = block[p - start] if run is None else np.maximum(run, block[p - start])
    if ub == floor:
        # the dive took the first value of cost floor at every slot, so it
        # is the first list of cost floor
        return ub, a
    layout = _layout(slots)
    nodes, lens = [0], [len(slot) for slot in slots]
    _charge(nodes, (sum(lens) ** 2 - sum(k * k for k in lens)) // 2)
    table, terms = np.empty((size, size)), []
    # terms: the in-range entries of each block, held in all; after a
    # merge, terms[0] holds the distinct ones of the blocks before it,
    # merged of them
    held = merged = 0
    for lo in range(0, size, step):
        rest = block if lo == start else rows(lo, min(size, lo + step))
        table[lo:lo + step] = rest
        terms.append(rest[(rest > floor) & (rest < ub)])
        held += len(terms[-1])
        # a term recurs in many rows: merging whenever the pending
        # entries outnumber the distinct ones holds about those only.
        # The blocks are let go before the sort, which then works in place
        if held - merged > max(merged, BLOCK_FLOATS):
            terms = [np.concatenate(terms)]
            terms[0] = _unique(terms[0])
            held = merged = len(terms[0])
    del block, rest
    cands = _distinct(floor, np.concatenate(terms), ub)
    del terms
    n = len(slots)
    # every candidate below lo is infeasible, and hi indexes the cost of
    # the cheapest list found (len(cands) before the first).  A list found
    # at r is the first with every term at most r, so, the decision
    # searching in lexicographic order, also the first with every term at
    # most its cost
    lo, hi, first = 0, len(cands), None
    while lo < hi:
        mid = (lo + hi) // 2
        # the search of fits, on one layout of the slots for every decision
        a = next(_fits(slots, *layout, lambda p, q: table[p:q], cands[mid], nodes), None)
        if a is None:
            lo = mid + 1
        else:
            _charge(nodes, n * (n - 1) // 2)
            ps = [slot[k] for slot, k in zip(slots, a)]
            cost = max([floor] + [table.item(ps[j], ps[i]) for i in range(n) for j in range(i)])
            hi, first = int(np.searchsorted(cands, cost)), a
    return float(cands[hi]), first


def _distinct(floor, terms, ub):
    """The array of floor, the distinct values of terms in increasing
    order, and ub, sorting terms in place."""
    return np.concatenate(([floor], _unique(terms), [ub]))


def _unique(terms):
    """The distinct values of the float array terms in increasing order,
    sorting terms in place."""
    terms.sort()
    keep = np.empty(len(terms), dtype=bool)
    keep[:1] = True
    np.not_equal(terms[1:], terms[:-1], out=keep[1:])
    return terms[keep]


def pair_rows(m, terms):
    """rows(lo, hi) over a table whose rows are the pairs (point j, value
    v), numbered j * m + v, where terms(js, vs), for slices, gives the
    array over (j, v, i, w) of the terms of (j, v) against (i, w).  At
    most three calls: the part of a point the range starts in, the whole
    points, and the part it ends in."""
    def rows(lo, hi):
        parts = []
        while lo < hi:
            j = lo // m
            if lo % m or hi - lo < m:
                end = min(hi, j * m + m)
                t = terms(slice(j, j + 1), slice(lo - j * m, end - j * m))
            else:
                end = hi - hi % m
                t = terms(slice(j, end // m), slice(None))
            parts.append(t.reshape(t.shape[0] * t.shape[1], -1))
            lo = end
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return rows

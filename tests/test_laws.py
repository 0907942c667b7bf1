"""Each law has one check: transitivity through the triangle scan, the
monoid laws through FiniteCategory, closedness through down-sets, and
the Z/n category through its group.  The hand-written loops these
replaced live on here as oracles."""

import itertools
import json
import random
import time

import pytest

from normcat import cli, discrete
from normcat.category import (CategoryError, FiniteCategory, first_transitivity_violation,
                              monoid_category)
from normcat.discrete import NormedMonoid, cyclic_group, grothendieck_norm, group_norm_category
from normcat.topo import (
    ContinuousPosetMap,
    FiniteTopSpace,
    all_order_preserving_maps,
    all_posets,
    discrete_space,
    monotone_light_report,
    transitive_closure,
)


def loop_first_intransitive(leq):
    """The triple loop the transitivity checks used to run."""
    n = len(leq)
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return i, j, k
    return None


def seeded_relations(count, seed, reflexive):
    """Raw, closed and perturbed 0/1 relations on 0 to 12 points."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = rng.randint(0, 12)
        p = rng.choice((0.1, 0.3, 0.6))
        rel = [[rng.random() < p for _ in range(n)] for _ in range(n)]
        if reflexive:
            for i in range(n):
                rel[i][i] = True
        if t % 3:
            rel = [list(row) for row in transitive_closure(rel)]
        if t % 3 == 2 and n > 1:
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(n), 2)
                rel[i][j] = not rel[i][j]
        out.append(rel)
    return out


def message(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def test_triangle_scan_finds_the_loops_first_intransitive_triple():
    rels = seeded_relations(1200, 1, reflexive=False)
    assert {loop_first_intransitive(r) is None for r in rels} == {True, False}
    for rel in rels:
        assert first_transitivity_violation(rel) == loop_first_intransitive(rel)


def test_top_space_rejects_the_same_first_triple_as_the_loop():
    for rel in seeded_relations(1200, 2, reflexive=True):
        points = tuple("p%d" % i for i in range(len(rel)))
        bad = loop_first_intransitive(rel)
        want = None if bad is None else (
            "leq not transitive on (%r, %r, %r)" % tuple(points[i] for i in bad))
        assert message(lambda: FiniteTopSpace(points, rel)) == want


def loop_validate_order(hs, leq):
    """The partial-order check capacity.validate_order ran: h**2 + h**3
    calls of leq.  Tests of product orders use it as the reference."""
    for a in hs:
        if not leq(a, a):
            raise ValueError("leq not reflexive at %r" % (a,))
    for a in hs:
        for b in hs:
            if a != b and leq(a, b) and leq(b, a):
                raise ValueError("leq not antisymmetric on (%r, %r)" % (a, b))
    for a in hs:
        for b in hs:
            if not leq(a, b):
                continue
            for c in hs:
                if leq(b, c) and not leq(a, c):
                    raise ValueError("leq not transitive on (%r, %r, %r)" % (a, b, c))


def test_all_posets_keeps_exactly_the_transitive_antisymmetric_relations():
    # the walk over every relation, independent of the one-point extensions
    for n in range(1, 5):
        idx = range(n)
        strict = [(i, j) for i in idx for j in idx if i != j]
        classes = set()
        for chosen in itertools.product((False, True), repeat=len(strict)):
            leq = [[i == j for j in idx] for i in idx]
            for (i, j), on in zip(strict, chosen):
                leq[i][j] = on
            if loop_first_intransitive(leq) is None and not any(
                    leq[i][j] and leq[j][i] for i, j in strict):
                classes.add(min(tuple(tuple(leq[p[i]][p[j]] for j in idx) for i in idx)
                                for p in itertools.permutations(idx)))
        got = {min(tuple(tuple(sp.leq[p[i]][p[j]] for j in idx) for i in idx)
                   for p in itertools.permutations(idx)) for sp in all_posets(n)}
        assert got == classes


def walk_closed(f):
    """Images of closed sets are closed, by the walk over every subset."""
    src, tgt = f.source, f.target
    pts = src.points
    for mask in range(2 ** len(pts)):
        d = [pts[i] for i in range(len(pts)) if mask >> i & 1]
        if src.is_closed(d) and not tgt.is_closed({f.assign[x] for x in d}):
            return False
    return True


def test_closedness_by_down_sets_matches_the_closed_set_walk():
    posets = [sp for n in range(1, 5) for sp in all_posets(n)]
    counts = {True: 0, False: 0}
    for x in posets:
        for y in posets:
            for f in all_order_preserving_maps(x, y):
                closed = monotone_light_report(f)["closed"]
                assert closed == walk_closed(f), f.assign
                counts[closed] += 1
    assert min(counts.values()) > 1000


def test_closedness_has_no_subset_cap():
    src = discrete_space(tuple("x%d" % i for i in range(20)))
    tgt = discrete_space(("y",))
    f = ContinuousPosetMap(src, tgt, {x: "y" for x in src.points})
    rep = monotone_light_report(f)
    assert rep["closed"] is True and rep["monotone"] is False


def test_group_norm_category_keeps_its_names_and_norms():
    for n in range(1, 9):
        cat, norms = group_norm_category(n)
        want = {}
        for a in range(n):
            for b in range(n):
                for fp in range(n):
                    fm = (fp + a - b) % n
                    want["g%d:%d>%d" % (fp, a, b)] = (float(min(fp, n - fp))
                                                      + float(min(fm, n - fm)))
        assert norms == want
        assert list(cat.morphisms) == list(want)
        for a, b, c, fp, gp in itertools.product(range(n), repeat=5):
            got = cat.compose("g%d:%d>%d" % (gp, b, c), "g%d:%d>%d" % (fp, a, b))
            assert got == "g%d:%d>%d" % ((fp + gp) % n, a, c)


def loop_group_norm_category(n):
    """The nested loops group_norm_category used to run, formatting each
    name once per use: (morphisms, norms, identities, composition)."""
    m = cyclic_group(n)
    objs = list(m.elements)
    mors, norms = [], {}

    def name(fp, a, b):
        return "g%d:%d>%d" % (fp, a, b)

    for a in objs:
        for b in objs:
            for fp in objs:
                fm = m.op(m.op(m.inv(b), fp), a)
                nm = name(fp, a, b)
                mors.append((nm, a, b))
                norms[nm] = grothendieck_norm(m, fp, fm, a, b)
    ids = {a: name(m.unit, a, a) for a in objs}
    comp = {}
    for a in objs:
        for b in objs:
            for c in objs:
                for fp in objs:
                    for gp in objs:
                        comp[(name(gp, b, c), name(fp, a, b))] = name(m.op(gp, fp), a, c)
    return mors, norms, ids, comp


def test_group_norm_category_equals_the_nested_loop_build(monkeypatch):
    # same morphisms, norms and identities, and the composition dict it
    # passes to the constructor in the same key order, so validation
    # meets the entries as before
    passed = []

    def recording(objects, morphisms, identities, compose):
        passed.append(compose)
        return FiniteCategory(objects, morphisms, identities, compose)

    monkeypatch.setattr(discrete, "FiniteCategory", recording)
    for n in range(1, 7):
        cat, norms = group_norm_category(n)
        mors, want_norms, ids, comp = loop_group_norm_category(n)
        assert [(m.name, m.src, m.tgt) for m in cat.morphisms.values()] == mors
        assert list(norms.items()) == list(want_norms.items())
        assert cat.identity == ids
        assert list(passed.pop().items()) == list(comp.items())


def test_cyclic_group_reads_integers_as_residues():
    z5 = cyclic_group(5)
    assert [z5.norm(a) for a in (7, -3, 2, 12)] == [2.0, 2.0, 2.0, 2.0]
    assert grothendieck_norm(z5, 7, 2, 0, 0) == grothendieck_norm(z5, 2, 2, 0, 0) == 4.0


def run_groth(tmp_path, capsys, **fields):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dict(kind="group_morphism", **fields)))
    code = cli.main(["norm", "--kind", "groth", "--map", str(path)])
    return code, capsys.readouterr()


def test_groth_norm_of_a_large_group_is_immediate(tmp_path, capsys):
    t0 = time.perf_counter()
    code, out = run_groth(tmp_path, capsys, n=1000000, fplus=700000, fminus=700002, a=5, b=3)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out.out)["results"] == [{"name": "grothendieck_norm", "value": 599998.0,
                                               "status": "exact",
                                               "route": "discrete.grothendieck_norm"}]


def test_groth_norm_too_large_for_a_float_exits_2(tmp_path, capsys):
    code, out = run_groth(tmp_path, capsys, n=2 ** 1100, fplus=2 ** 1099, fminus=2 ** 1099,
                          a=0, b=0)
    assert code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")


def test_an_operation_leaving_the_elements_is_a_category_error():
    with pytest.raises(CategoryError, match="leaves the elements"):
        monoid_category([0, 1], lambda g, f: 2, 0)
    with pytest.raises(CategoryError, match="leaves the elements"):
        monoid_category([0, 1], lambda g, f: None, 0)
    with pytest.raises(CategoryError, match="not an element"):
        monoid_category([0, 1], lambda g, f: g, 2)
    with pytest.raises(CategoryError, match="leaves the elements"):
        NormedMonoid.from_table([0, 1], [[0, 1], [1, 2]], 0, {0: 0.0, 1: 1.0})
    with pytest.raises(CategoryError, match="leaves the elements"):
        NormedMonoid.from_table([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1}, 0,
                                {0: 0.0, 1: 1.0})


def test_from_table_checks_the_monoid_laws_through_the_category():
    # 0 * 0 = 1, so 0 is no unit
    with pytest.raises(CategoryError, match="identity law fails"):
        NormedMonoid.from_table([0, 1], [[1, 1], [1, 1]], 0, {0: 0.0, 1: 1.0})
    # rock-paper-scissors with a unit: (r p) s = s but r (p s) = r
    elems = ["e", "r", "p", "s"]
    win = {("r", "p"): "p", ("p", "s"): "s", ("s", "r"): "r"}
    table = {}
    for a in elems:
        for b in elems:
            if a == "e" or b == "e":
                table[(a, b)] = b if a == "e" else a
            elif a == b:
                table[(a, b)] = a
            else:
                table[(a, b)] = win.get((a, b)) or win[(b, a)]
    with pytest.raises(CategoryError, match="associativity fails"):
        NormedMonoid.from_table(elems, table, "e", {e: 0.0 for e in elems})
    z = NormedMonoid.from_table(range(3), [[(a + b) % 3 for b in range(3)] for a in range(3)],
                                0, {0: 0.0, 1: 1.0, 2: 1.0})
    assert z.op(2, 2) == 1 and z.elements == (0, 1, 2)

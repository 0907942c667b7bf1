"""Finite categories, axiom checkers, duals, induced distances."""

import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from normcat import search
from normcat.extreal import INF
from normcat.extreal import sup0
from normcat.category import (
    AXIOM_TOL, AxiomReport, CategoryError, FiniteCategory, NormAxiomReport,
    check_seminorm_axioms, check_norm_axioms,
    dual_seminorm, induced_pqmetric, modulator_subcategory,
    identity_only_category, monoid_category, PqMetricMatrix,
    first_triangle_violation, scale_tolerance,
)
from normcat.discrete import CostSystem, cost_category, function_category, group_norm_category


def two_object_iso_category():
    """X <-> Y with f, g mutually inverse."""
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("f", "X", "Y"), ("g", "Y", "X")]
    comp = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("f", "idX"): "f", ("idY", "f"): "f",
        ("g", "idY"): "g", ("idX", "g"): "g",
        ("g", "f"): "idX", ("f", "g"): "idY",
    }
    return FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)


def walking_idempotent_pair():
    """f: X->Y and g: Y->X with g after f = p and f after g = q, both idempotent.

    All six morphisms get norm zero: modulators exist both ways but no
    invertible zero-norm pair does, so N3 fails.
    """
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"),
            ("f", "X", "Y"), ("g", "Y", "X"),
            ("p", "X", "X"), ("q", "Y", "Y")]
    comp = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("f", "idX"): "f", ("idY", "f"): "f",
        ("g", "idY"): "g", ("idX", "g"): "g",
        ("p", "idX"): "p", ("idX", "p"): "p",
        ("q", "idY"): "q", ("idY", "q"): "q",
        ("g", "f"): "p", ("f", "g"): "q",
        ("p", "p"): "p", ("q", "q"): "q",
        ("f", "p"): "f", ("q", "f"): "f",
        ("g", "q"): "g", ("p", "g"): "g",
    }
    cat = FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)
    norms = {m: 0.0 for m in cat.morphisms}
    return cat, norms


def split_idempotent():
    """f: X -> Y and g: Y -> X with g after f = idX and f after g = e, an
    idempotent other than idY; all norms zero.  g is a one-sided inverse
    only, so the modulators both ways give no isomorphism and N3 fails."""
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("f", "X", "Y"), ("g", "Y", "X"),
            ("e", "Y", "Y")]
    comp = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("f", "idX"): "f", ("idY", "f"): "f",
        ("g", "idY"): "g", ("idX", "g"): "g",
        ("e", "idY"): "e", ("idY", "e"): "e",
        ("g", "f"): "idX", ("f", "g"): "e",
        ("e", "e"): "e", ("e", "f"): "f", ("g", "e"): "g",
    }
    cat = FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)
    return cat, {m: 0.0 for m in cat.morphisms}


def zmod_word_norms(n):
    elements = list(range(n))
    cat = monoid_category(elements, lambda g, f: (g + f) % n, 0)
    norms = {"m_%d" % e: float(min(e, n - e)) for e in elements}
    return cat, norms


# -- construction checks ---------------------------------------------------

def test_missing_identity_is_rejected():
    with pytest.raises(CategoryError):
        FiniteCategory(["X"], [("f", "X", "X")], {}, {("f", "f"): "f"})


def test_missing_composite_is_rejected():
    mors = [("idX", "X", "X"), ("p", "X", "X")]
    comp = {("idX", "idX"): "idX", ("p", "idX"): "p", ("idX", "p"): "p"}
    # (p, p) missing
    with pytest.raises(CategoryError):
        FiniteCategory(["X"], mors, {"X": "idX"}, comp)


def test_broken_associativity_is_rejected():
    # a three-element "multiplication" that is not associative
    elements = [0, 1, 2]
    table = {(a, b): (a * b + a) % 3 for a in elements for b in elements}
    def op(g, f):
        return table[(g, f)]
    # op(0, f) = 0*f+0 = 0, so 0 is not a unit and the unit law fires
    # before associativity is checked
    with pytest.raises(CategoryError, match=r"^left identity law fails at 'm_1'$"):
        monoid_category(elements, op, 0)
    # 0 is a unit here, but (1*1)*1 = 2*1 = 1 while 1*(1*1) = 1*2 = 2
    unital = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
              (1, 1): 2, (1, 2): 2, (2, 1): 1, (2, 2): 1}
    with pytest.raises(CategoryError,
                       match=r"^associativity fails on \('m_1', 'm_1', 'm_1'\)$"):
        monoid_category(elements, lambda g, f: unital[(g, f)], 0)


def looped_law_failure(morphisms, identities, comp):
    """The unit and associativity laws checked by the plain triple loop:
    the message of the first failure, or None.  Associativity runs f in
    morphism order, then g, then h, each in morphism order."""
    ends = {name: (src, tgt) for name, src, tgt in morphisms}
    outof = {}
    for name, src, _ in morphisms:
        outof.setdefault(src, []).append(name)
    for name, (src, tgt) in ends.items():
        if comp[(identities[tgt], name)] != name:
            return "left identity law fails at %r" % (name,)
        if comp[(name, identities[src])] != name:
            return "right identity law fails at %r" % (name,)
    for f, (_, ftgt) in ends.items():
        for g in outof[ftgt]:
            gf = comp[(g, f)]
            for h in outof[ends[g][1]]:
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    return "associativity fails on (%r, %r, %r)" % (h, g, f)
    return None


def category_data(cat):
    mors = [(m.name, m.src, m.tgt) for m in cat.morphisms.values()]
    comp = {(g, f): cat.compose(g, f) for f, _, b in mors for g, c, _ in mors if b == c}
    return list(cat.objects), mors, dict(cat.identity), comp


def transformation_monoid(n):
    """All maps of range(n) into itself, composed as functions."""
    maps = list(itertools.product(range(n), repeat=n))
    return monoid_category(maps, lambda g, f: tuple(g[x] for x in f), tuple(range(n)))


def test_associativity_check_finds_the_loops_first_triple():
    cost = {(i, j): float(1 + (i * 7 + j * 3) % 5) for i in range(4) for j in range(4) if i != j}
    bases = [group_norm_category(n)[0] for n in (2, 3, 4)]
    bases += [function_category({"A": (0, 1), "B": (0, 1, 2)})[0],
              cost_category(CostSystem((0, 1, 2, 3), cost))[0],
              transformation_monoid(3)]
    data = [category_data(cat) for cat in bases]
    for objects, mors, ids, comp in data:
        assert looped_law_failure(mors, ids, comp) is None
        FiniteCategory(objects, mors, ids, comp)
    rng = random.Random(4410)
    kinds = []
    for trial in range(150):
        objects, mors, ids, comp = data[trial % len(data)]
        ends = {name: (src, tgt) for name, src, tgt in mors}
        hom = {}
        for name, src, tgt in mors:
            hom.setdefault((src, tgt), []).append(name)
        comp = dict(comp)
        # swap 1-3 composites for other morphisms with the same endpoints;
        # two trials in three keep the unit laws by sparing identity pairs
        units = set(ids.values()) if trial % 3 else set()
        pairs = [p for p, r in comp.items() if len(hom[ends[r]]) > 1 and not units & set(p)]
        for pair in rng.sample(pairs, rng.randint(1, 3)):
            comp[pair] = rng.choice([m for m in hom[ends[comp[pair]]] if m != comp[pair]])
        want = looped_law_failure(mors, ids, comp)
        if want is None:
            FiniteCategory(objects, mors, ids, comp)
        else:
            with pytest.raises(CategoryError) as err:
                FiniteCategory(objects, mors, ids, comp)
            assert str(err.value) == want
        kinds.append(want and want.split()[0])
    assert kinds.count("associativity") >= 100, kinds


def test_degenerate_categories_build():
    assert FiniteCategory([], [], {}, {}).objects == ()
    assert len(identity_only_category(["X", "Y", "Z"]).morphisms) == 3
    assert len(group_norm_category(1)[0].morphisms) == 1
    assert len(monoid_category([0], lambda g, f: 0, 0).morphisms) == 1


def test_associativity_check_memory_stays_within_a_few_blocks():
    cat, _ = group_norm_category(8)
    m = len(cat.morphisms)
    block = 4 * search.BLOCK_FLOATS   # bytes of one int32 block
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cat._check_table()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the totality check's m x m boolean masks stay under 4 m^2 bytes (the
    # size of the table, which __init__ fills); beyond them: the (block, |h|)
    # temporaries, the intp copy numpy makes of an int32 index array, and
    # one group's pairs
    assert peak - 4 * m * m <= 8 * block, (peak, m)


def test_identity_endpoints_checked():
    mors = [("idX", "X", "Y")]
    with pytest.raises(CategoryError):
        FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idX"}, {})


def test_duplicate_morphism_names_rejected():
    mors = [("f", "X", "X"), ("f", "X", "X")]
    with pytest.raises(CategoryError):
        FiniteCategory(["X"], mors, {"X": "f"}, {("f", "f"): "f"})


# -- axiom checkers --------------------------------------------------------

def test_n1_violation_detected():
    cat = identity_only_category(["X", "Y"])
    norms = {"id_X": 0.1, "id_Y": 0.0}
    rep = check_seminorm_axioms(cat, norms)
    assert not rep.ok
    assert ("id_X", 0.1) in rep.n1_violations
    assert rep.n2_violations == []


def test_n2_violation_detected():
    cat, norms = zmod_word_norms(4)
    norms = dict(norms)
    norms["m_2"] = 5.0   # |1 + 1| = 5 > 1 + 1
    rep = check_seminorm_axioms(cat, norms)
    assert not rep.ok
    assert any(v[0] == "m_1" and v[1] == "m_1" for v in rep.n2_violations)


def test_word_norm_on_cyclic_group_is_a_seminorm():
    cat, norms = zmod_word_norms(6)
    assert check_seminorm_axioms(cat, norms).ok


def test_function_category_passes_norm_axioms():
    cat, norms, _ = function_category({"a": (1,), "b": (1, 2), "c": (1, 2, 3)})
    rep = check_norm_axioms(cat, norms)
    assert rep.seminorm.ok
    assert rep.ok
    assert rep.n3_violations == []
    # the diagonal pairs are always checked; cross pairs need modulators both ways
    assert ("a", "a") in rep.n3_pairs_checked
    # every hom set here is nonempty and injections exist a->b, so N4 pairs exist
    assert any(p[:2] == ("a", "b") for p in rep.n4_pairs)


def test_n3_violation_on_idempotent_pair():
    cat, norms = walking_idempotent_pair()
    rep = check_norm_axioms(cat, norms)
    assert rep.seminorm.ok
    assert not rep.ok
    assert ("X", "Y") in rep.n3_violations or ("Y", "X") in rep.n3_violations


def test_n4_reported_vacuously_true():
    cat, norms = walking_idempotent_pair()
    rep = check_norm_axioms(cat, norms)
    # minima are attained with zero norm everywhere in this instance
    assert any(p[0] == "X" and p[1] == "Y" for p in rep.n4_pairs)


# -- duals -----------------------------------------------------------------

def test_duals_vanish_on_identity_only_category():
    cat = identity_only_category(["A", "B", "C"])
    norms = {m: 0.0 for m in cat.morphisms}
    for side in ("left", "right"):
        dual = dual_seminorm(cat, norms, side)
        assert all(v == 0.0 for v in dual.values())


def test_dual_equals_norm_on_cyclic_group_with_word_norm():
    # symmetric norms on a group make both duals reproduce the norm
    for n in (4, 5):
        cat, norms = zmod_word_norms(n)
        for side in ("left", "right"):
            dual = dual_seminorm(cat, norms, side)
            for name in norms:
                assert abs(dual[name] - norms[name]) < 1e-12


def test_duals_of_any_assignment_are_seminorms():
    rng = random.Random(20240817)
    cat, _, _ = function_category({"a": (1,), "b": (1, 2)})
    for trial in range(25):
        norms = {}
        for name in cat.morphisms:
            # identities get arbitrary values too: duals repair N1 anyway
            if rng.random() < 0.1:
                norms[name] = INF
            else:
                norms[name] = rng.uniform(0, 5)
        for side in ("left", "right"):
            dual = dual_seminorm(cat, norms, side)
            rep = check_seminorm_axioms(cat, dual)
            assert rep.ok, (side, rep.n1_violations, rep.n2_violations)


def test_biduals_bounded_by_seminorm():
    # requires the base assignment to satisfy N2, which set norms do
    cat, norms, _ = function_category({"a": (1, 2), "b": (1, 2, 3)})
    for first, then in (("left", "left"), ("right", "right")):
        dual = dual_seminorm(cat, norms, first)
        bidual = dual_seminorm(cat, dual, then)
        for name in norms:
            assert bidual[name] <= norms[name] + 1e-9


def test_dual_with_infinite_norms_follows_conventions():
    # hom(X,X) = {id, p} with |p| = inf: the left dual of p must skip the
    # inf-composite terms and pick up inf from the inf-norm probe
    mors = [("idX", "X", "X"), ("p", "X", "X")]
    comp = {("idX", "idX"): "idX", ("p", "idX"): "p",
            ("idX", "p"): "p", ("p", "p"): "p"}
    cat = FiniteCategory(["X"], mors, {"X": "idX"}, comp)
    norms = {"idX": 0.0, "p": INF}
    dual = dual_seminorm(cat, norms, "left")
    # terms at p: f'=idX gives comp=p (inf, skipped); f'=p gives comp=p (skipped)
    assert dual["p"] == 0.0
    norms2 = {"idX": 0.0, "p": 2.0}
    dual2 = dual_seminorm(cat, norms2, "left")
    # p after p = p: term |p| - |p.p| = 0; idX probe: 0 - 2
    assert dual2["p"] == 0.0


# -- induced distances -----------------------------------------------------

def test_induced_pqmetric_two_object_example():
    cat = two_object_iso_category()
    norms = {"idX": 0.0, "idY": 0.0, "f": 3.0, "g": 1.0}
    raw = induced_pqmetric(cat, norms, "none")
    assert raw.value("X", "Y") == 3.0
    assert raw.value("Y", "X") == 1.0
    assert induced_pqmetric(cat, norms, "plus").value("X", "Y") == 2.0
    assert induced_pqmetric(cat, norms, "max").value("X", "Y") == 3.0
    assert induced_pqmetric(cat, norms, 1).value("X", "Y") == 4.0
    p2 = induced_pqmetric(cat, norms, 2).value("X", "Y")
    assert abs(p2 - math.sqrt(10)) < 1e-12


def test_induced_pqmetric_infinite_when_hom_empty():
    cat = identity_only_category(["X", "Y"])
    norms = {m: 0.0 for m in cat.morphisms}
    raw = induced_pqmetric(cat, norms, "none")
    assert raw.value("X", "Y") == INF
    assert raw.value("X", "X") == 0.0
    # max/plus keep infinite entries infinite
    assert induced_pqmetric(cat, norms, "max").value("X", "Y") == INF
    assert induced_pqmetric(cat, norms, 2).value("Y", "X") == INF


def test_pqmetric_matrix_validation():
    with pytest.raises(ValueError):
        PqMetricMatrix(("a", "b"), ((0.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        PqMetricMatrix(("a", "b", "c"),
                       ((0.0, 1.0, 5.0), (1.0, 0.0, 1.0), (5.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        PqMetricMatrix(("a", "b"), ((0.0, -1.0), (1.0, 0.0)))


def test_pqmetric_matrix_with_infinite_entries():
    # an empty hom set gives inf, which is consistent when no path is finite
    PqMetricMatrix(("a", "b", "c"), ((0.0, 1.0, 2.0), (INF, 0.0, 1.0), (INF, INF, 0.0)))
    PqMetricMatrix(("a", "b"), ((0.0, INF), (INF, 0.0)))
    with pytest.raises(ValueError, match=r"d\('a','c'\) > d\('a','b'\) \+ d\('b','c'\)"):
        PqMetricMatrix(("a", "b", "c"), ((0.0, 1.0, INF), (INF, 0.0, 1.0), (INF, INF, 0.0)))


def looped_pq_check(labels, dist):
    """PqMetricMatrix's validation as it was written before the entry
    rules became numpy reductions: one Python pass over every entry."""
    n = len(labels)
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError("distance matrix shape does not match labels")
    d = np.asarray(dist, dtype=float).reshape(n, n)
    tol = scale_tolerance(d)
    for i in range(n):
        if abs(dist[i][i]) > tol:
            raise ValueError("nonzero diagonal at %r" % (labels[i],))
        for j in range(n):
            if dist[i][j] < 0:
                raise ValueError("negative distance at (%r, %r)" % (labels[i], labels[j]))
    bad = first_triangle_violation(d, tol)
    if bad is not None:
        i, j, k = bad
        raise ValueError(
            "triangle inequality fails: d(%r,%r) > d(%r,%r) + d(%r,%r)"
            % (labels[i], labels[k], labels[i], labels[j], labels[j], labels[k]))


def outcome(check, *args):
    """None when check passes, else the type and message of what it raised."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def perturbed_pq_rows(rng):
    """Path lengths of a random weighted digraph on 0-6 points (inf off
    its reach) with up to three entries broken: a diagonal just above or
    below the tolerance, negative, nan, +-inf, None, strings, bools, or a
    ragged row."""
    n = rng.randint(0, 6)
    d = [[0.0 if i == j else (rng.uniform(0.5, 2.0) if rng.random() < 0.7 else INF)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    for _ in range(rng.randint(0, 3) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(7)
        if kind == 0:
            tol = 1e-9 * max([1.0] + [v for row in d for v in row
                                      if isinstance(v, float) and v < INF])
            d[i][i] = rng.choice([0.5, 1.5, 2.5, -1.5, 0.0]) * tol
        elif kind == 1:
            d[i][j] = -rng.choice([1e-12, 1.0])
        elif kind == 2:
            d[i][j] = rng.choice([math.nan, INF, -INF])
        elif kind == 3:
            d[i][j] = None
        elif kind == 4:
            d[i][j] = rng.choice(["1.5", "0", "far"])
        elif kind == 5:
            d[i][j] = rng.choice([True, False])
        else:
            d[i][j] = rng.uniform(0.0, 5.0)
    if n and rng.random() < 0.1:
        i = rng.randrange(n)
        d[i] = d[i][:-1] if rng.random() < 0.5 else d[i] + [1.0]
    return tuple("p%d" % i for i in range(n)), tuple(tuple(row) for row in d)


def test_pqmetric_validation_names_the_entry_the_loop_named():
    rng = random.Random(15003)
    seen = set()
    for _ in range(600):
        labels, dist = perturbed_pq_rows(rng)
        want = outcome(looped_pq_check, labels, dist)
        assert outcome(PqMetricMatrix, labels, dist) == want, (labels, dist)
        seen.add(None if want is None else (want[0], " ".join(want[1].split()[:2])))
    assert seen >= {None, (TypeError, "bad operand"), (TypeError, "'<' not"),
                    (ValueError, "could not"), (ValueError, "distance matrix"),
                    (ValueError, "nonzero diagonal"), (ValueError, "negative distance"),
                    (ValueError, "triangle inequality")}


def brute_force_violation(d, tol):
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k] + tol:
                    return i, j, k
    return None


# whole matrices, and blocks of rows that split one, down to one row a block
TRIANGLE_BLOCKS = (search.BLOCK_FLOATS, 147, 30, 1)


def test_triangle_helper_matches_the_triple_loop(monkeypatch):
    rng = random.Random(20)
    verdicts = set()
    for trial in range(300):
        n = rng.randint(0, 30)
        if trial % 2:
            # collinear points: many triangles hold with equality
            xs = [rng.uniform(0.0, 10.0) for _ in range(n)]
            d = [[abs(a - b) for b in xs] for a in xs]
        else:
            ps = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
            d = [[math.dist(a, b) for b in ps] for a in ps]
        if n > 1 and trial % 3:
            i, k = rng.sample(range(n), 2)
            d[i][k] = rng.choice([d[i][k] * rng.uniform(0.5, 1.5),
                                  d[i][k] + 1e-10, d[i][k] + 1e-8, INF])
        want = brute_force_violation(d, 1e-9)
        for block in TRIANGLE_BLOCKS:
            monkeypatch.setattr(search, "BLOCK_FLOATS", block)
            assert first_triangle_violation(d, 1e-9) == want, block
        verdicts.add(want is None)
    assert verdicts == {True, False}


def planted_triangle_rows(rng, n):
    """A quarter-rounded planar distance matrix on n points (many ties),
    with a few entries changed, each together with its mirror unless the
    matrix is to come out asymmetric: raised or lowered, inf, negative,
    a nonzero diagonal, or off by 1e-12."""
    ps = [(rng.random(), rng.random()) for _ in range(n)]
    d = np.array([[round(4 * math.dist(a, b)) / 4 for b in ps] for a in ps]).reshape(n, n)
    mirrored = rng.random() < 0.8
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        kind = rng.randrange(6)
        if kind == 5:
            d[i, i] = rng.choice([0.25, -0.25])
            continue
        v = [d[i, k] * rng.uniform(0.3, 1.7), d[i, k] + 0.5, INF, -0.25,
             d[i, k] + 1e-12][kind]
        d[i, k] = v
        if mirrored:
            d[k, i] = v
    return d


def test_triangle_helper_matches_the_triple_loop_on_planted_entries(monkeypatch):
    rng = random.Random(23)
    verdicts, routes = set(), set()
    for trial in range(400):
        d = planted_triangle_rows(rng, rng.randint(0, 20))
        # without slack, quarters add up exactly and 1e-12 breaks a tie
        tol = scale_tolerance(d) if trial % 2 else 0.0
        want = brute_force_violation(d, tol)
        for block in TRIANGLE_BLOCKS:
            monkeypatch.setattr(search, "BLOCK_FLOATS", block)
            assert first_triangle_violation(d, tol) == want, (block, tol, d.tolist())
        verdicts.add(want is None)
        routes.add(bool(np.array_equal(d, d.T)))
    assert verdicts == {True, False} and routes == {True, False}


def full_triangle_scan(dist, tol):
    """The reference scan: every block of rows reads every (j, k), laid
    out as (i, j, k), so its first hit is the first violation."""
    d = np.asarray(dist, dtype=float)
    n = len(d)
    step = max(1, 2 ** 14 // max(1, n * n))
    for lo in range(0, n, step):
        rows = d[lo:lo + step]
        bound = rows[:, :, None] + d[None, :, :] + tol
        bad = rows[:, None, :] > bound
        if np.count_nonzero(bad):
            i, j, k = np.argwhere(bad)[0].tolist()
            return lo + i, j, k
    return None


@pytest.mark.parametrize("n", [130, 170])
def test_mirrored_blocks_name_the_full_scans_triple_on_large_inputs(n):
    rng = random.Random(n)
    ps = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
    base = np.array([[math.dist(a, b) for b in ps] for a in ps])
    tol = scale_tolerance(base)
    assert first_triangle_violation(base, tol) is None
    found = 0
    for trial in range(12):
        d = base.copy()
        # entries among the last 20 points raised, so every violation lies
        # in the late rows; mirrored in all but every fourth matrix
        for _ in range(rng.randint(1, 3)):
            i, k = rng.sample(range(n - 20, n), 2)
            d[i, k] = rng.choice([2 * d[i, k] + 0.5, d[i, k] + 1e-8])
            if trial % 4:
                d[k, i] = d[i, k]
        want = full_triangle_scan(d, tol)
        assert first_triangle_violation(d, tol) == want
        found += want is not None
    assert found >= 6


def test_triangle_check_peaks_no_higher_than_the_full_scan():
    rng = random.Random(170)
    ps = [(rng.random(), rng.random(), rng.random()) for _ in range(170)]
    d = np.array([[math.dist(a, b) for b in ps] for a in ps])
    tol = scale_tolerance(d)
    skew = d.copy()
    skew[3, 7] += 1e-12
    for m in (d, skew):
        peaks = []
        for check in (full_triangle_scan, first_triangle_violation):
            tracemalloc.start()
            try:
                assert check(m, tol) is None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks


@pytest.mark.parametrize("block", [search.BLOCK_FLOATS, 1])
def test_entries_near_the_largest_float_raise_no_warning(monkeypatch, block):
    # d[i][j] + d[j][k] past the largest float is an inf bound, which no
    # entry exceeds: the check passes without an overflow warning
    from normcat.metric import FiniteMetricSpace
    monkeypatch.setattr(search, "BLOCK_FLOATS", block)
    big = [[0.0, 1e308, 1.5e308], [1e308, 0.0, 1e308], [1.5e308, 1e308, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FiniteMetricSpace(["p", "q"], [[0.0, 1e308], [1e308, 0.0]])
        FiniteMetricSpace(["p", "q", "r"], big)
        assert first_triangle_violation(np.array(big), 1e-9) is None
        big[0][2] = math.inf
        assert first_triangle_violation(np.array(big), 1e-9) is None


def test_p_symmetrization_needs_p_at_least_one():
    cat = identity_only_category(["X"])
    norms = {"id_X": 0.0}
    with pytest.raises(ValueError):
        induced_pqmetric(cat, norms, 0.5)


# -- modulators ------------------------------------------------------------

def test_modulator_subcategory_of_function_category_is_injections():
    cat, norms, funcs = function_category({"a": (1,), "b": (1, 2)})
    sub = modulator_subcategory(cat, norms)
    # a->a identity, two injections a->b, two bijections b->b
    assert len(sub.morphisms) == 5
    for name in sub.morphisms:
        assert norms[name] == 0.0


def test_modulator_subcategory_keeps_only_unit_on_positive_norms():
    cat, norms = zmod_word_norms(5)
    sub = modulator_subcategory(cat, norms)
    assert set(sub.morphisms) == {"m_0"}


def test_modulator_subcategory_requires_n1():
    cat = identity_only_category(["X"])
    with pytest.raises(CategoryError):
        modulator_subcategory(cat, {"id_X": 1.0})


# -- the table reads against the loops they replace ------------------------

def loop_ends(cat):
    """(into, outof): the morphism names into and out of each object, in morphism order."""
    into, outof = {x: [] for x in cat.objects}, {x: [] for x in cat.objects}
    for m in cat.morphisms.values():
        into[m.tgt].append(m.name)
        outof[m.src].append(m.name)
    return into, outof


def loop_seminorm_axioms(cat, norms):
    _, outof = loop_ends(cat)
    n1 = [(cat.identity[x], norms[cat.identity[x]]) for x in cat.objects
          if norms[cat.identity[x]] > AXIOM_TOL]
    n2 = []
    for f in cat.morphisms.values():
        for g in outof[f.tgt]:
            r = cat.compose(g, f.name)
            bound = norms[g] + norms[f.name]
            if norms[r] > bound + AXIOM_TOL:
                n2.append((g, f.name, r, norms[r] - bound))
    return AxiomReport(not n1 and not n2, n1, n2)


def loop_norm_axioms(cat, norms):
    sem = loop_seminorm_axioms(cat, norms)
    rep = NormAxiomReport(ok=True, seminorm=sem)
    _, outof = loop_ends(cat)
    hom = {(x, y): [n for n in outof[x] if cat.morphisms[n].tgt == y]
           for x in cat.objects for y in cat.objects}
    mods = {}
    for m in cat.morphisms.values():
        if norms[m.name] <= AXIOM_TOL:
            mods.setdefault((m.src, m.tgt), []).append(m.name)
    for x in cat.objects:
        for y in cat.objects:
            fwd, bwd = mods.get((x, y), []), mods.get((y, x), [])
            if not fwd or not bwd:
                continue
            rep.n3_pairs_checked.append((x, y))
            idx, idy = cat.identity[x], cat.identity[y]
            if not any(cat.compose(g, f) == idx and cat.compose(f, g) == idy
                       for f in fwd for g in bwd):
                rep.n3_violations.append((x, y))
    for x in cat.objects:
        for y in cat.objects:
            if hom[x, y]:
                best = min(hom[x, y], key=lambda n: norms[n])
                if norms[best] <= AXIOM_TOL:
                    rep.n4_pairs.append((x, y, best))
    rep.ok = sem.ok and not rep.n3_violations
    return rep


def loop_dual_seminorm(cat, norms, side):
    into, outof = loop_ends(cat)
    out = {}
    for f in cat.morphisms.values():
        terms = []
        for h in (into[f.src] if side == "left" else outof[f.tgt]):
            comp = cat.compose(f.name, h) if side == "left" else cat.compose(h, f.name)
            a, b = norms[h], norms[comp]
            if b == INF:
                continue
            terms.append(INF if a == INF else a - b)
        out[f.name] = sup0(terms)
    return out


def loop_induced_distances(cat, norms, symmetrize):
    """The distance rows of induced_pqmetric, from the hom-set loop."""
    _, outof = loop_ends(cat)
    objs = cat.objects
    n = len(objs)
    raw = [[INF] * n for _ in range(n)]
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            hom = [m for m in outof[x] if cat.morphisms[m].tgt == y]
            if hom:
                raw[i][j] = min(norms[m] for m in hom)
    if symmetrize == "none":
        return raw
    if symmetrize == "max":
        return [[max(raw[i][j], raw[j][i]) for j in range(n)] for i in range(n)]
    if symmetrize == "plus":
        return [[(raw[i][j] + raw[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    p = float(symmetrize)
    return [[INF if INF in (raw[i][j], raw[j][i]) else (raw[i][j] ** p + raw[j][i] ** p) ** (1 / p)
             for j in range(n)] for i in range(n)]


def loop_modulator_subcategory(cat, norms):
    """category_data of the modulator subcategory, or the CategoryError message."""
    keep = {n for n, v in norms.items() if v <= AXIOM_TOL}
    for obj in cat.objects:
        if cat.identity[obj] not in keep:
            return "identity of %r has nonzero norm; N1 fails" % (obj,)
    mors = [(m.name, m.src, m.tgt) for m in cat.morphisms.values() if m.name in keep]
    comp = {}
    for f, _, b in mors:
        for g, c, _ in mors:
            if b == c:
                r = cat.compose(g, f)
                if r not in keep:
                    return ("zero-norm morphisms are not closed under composition "
                            "(%r after %r has positive norm); N2 must fail" % (g, f))
                comp[(g, f)] = r
    return list(cat.objects), mors, dict(cat.identity), comp


def perturbed_norms(cat, norms, rng):
    """norms with 1-3 entries moved: to 0.0 or -0.0, to inf, to a composite's
    N2 bound give or take AXIOM_TOL, or to an identity's N1 bound likewise."""
    out = dict(norms)
    names = list(out)
    _, outof = loop_ends(cat)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            out[rng.choice(names)] = rng.choice((0.0, -0.0))
        elif kind == 1:
            out[rng.choice(names)] = INF
        elif kind == 2:
            f = rng.choice(names)
            g = rng.choice(outof[cat.morphisms[f].tgt])
            bound = out[g] + out[f]
            if bound < INF:
                out[cat.compose(g, f)] = max(0.0, bound + rng.choice((-1.5, -0.5, 0.5, 1.5)) * AXIOM_TOL)
        else:
            out[cat.identity[rng.choice(cat.objects)]] = rng.choice((0.5, 1.5)) * AXIOM_TOL
    return out


def suite_core_instances():
    """(category, norms) of the diameter capacity instances that `check
    --suite core` builds at seeds 0-9."""
    from normcat import suites
    seen = []

    def recording(inst):
        seen.append((inst.category, {m: inst.norms[m][0] for m in inst.category.morphisms}))
        return real(inst)

    real = suites.dual_inequality_report
    suites.dual_inequality_report = recording
    try:
        for seed in range(10):
            suites.suite_core(seed, 1)
    finally:
        suites.dual_inequality_report = real
    return seen


def test_the_table_reads_match_the_loops():
    cost = {(i, j): float(1 + (i * 7 + j * 3) % 5) for i in range(4) for j in range(4) if i != j}
    cases = [group_norm_category(n) for n in range(1, 7)]
    cases += [function_category({"A": (0,), "B": (0, 1), "C": (0, 1, 2)})[:2],
              function_category({"A": (0, 1)})[:2],
              cost_category(CostSystem((0, 1, 2, 3), cost)),
              (transformation_monoid(3), {"m_%r" % (t,): float(len(set(t))) - 1.0
                                          for t in itertools.product(range(3), repeat=3)})]
    cases += [walking_idempotent_pair(), split_idempotent(),
              (two_object_iso_category(), {"idX": 0.0, "idY": 0.0, "f": 0.0, "g": 0.0})]
    cases += suite_core_instances()
    assert len(cases) == 23
    rng = random.Random(2929)
    outcomes = set()
    for cat, base in cases:
        for trial in range(9):
            norms = perturbed_norms(cat, base, rng) if trial else base
            sem = check_seminorm_axioms(cat, norms)
            assert repr(sem) == repr(loop_seminorm_axioms(cat, norms))
            full = check_norm_axioms(cat, norms)
            assert repr(full) == repr(loop_norm_axioms(cat, norms))
            for side in ("left", "right"):
                assert repr(dual_seminorm(cat, norms, side)) == \
                    repr(loop_dual_seminorm(cat, norms, side))
            for sym in ("none", "max", "plus", 2):
                # a failing N1 or N2 can leave no pq-metric: the messages agree then
                rows = tuple(map(tuple, loop_induced_distances(cat, norms, sym)))
                try:
                    want = repr(PqMetricMatrix(cat.objects, rows).dist)
                except ValueError as err:
                    want = str(err)
                try:
                    got = repr(induced_pqmetric(cat, norms, sym).dist)
                except ValueError as err:
                    got = str(err)
                assert got == want
            want = loop_modulator_subcategory(cat, norms)
            try:
                got = category_data(modulator_subcategory(cat, norms))
            except CategoryError as err:
                got = str(err)
            assert got == want
            outcomes.update(
                [name for name, hit in (("N1", sem.n1_violations), ("N2", sem.n2_violations),
                                        ("N3", full.n3_violations), ("N4", full.n4_pairs))
                 if hit]
                + [want.split()[0] if isinstance(want, str) else "subcategory"])
    assert outcomes == {"N1", "N2", "N3", "N4", "identity", "zero-norm", "subcategory"}


def test_compose_raises_off_the_composable_pairs():
    cat = two_object_iso_category()
    assert cat.names[-1] == "g"
    # f: X -> Y twice is not composable; its table entry is -1, which
    # must not read the last morphism g
    assert cat.table[cat.names.index("f"), cat.names.index("f")] == -1
    for g, f in (("f", "f"), ("g", "g"), ("idX", "f"), ("f", "idY")):
        with pytest.raises(KeyError):
            cat.compose(g, f)
    with pytest.raises(KeyError):
        cat.compose("f", "nope")
    assert cat.compose("g", "f") == "idX"

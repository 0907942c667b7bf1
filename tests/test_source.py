"""Structural guards over the source tree: every public function is
reached from the command line or has a named role, and no invariant
rests on an assert statement."""

import ast
import pathlib

import normcat

SRC = pathlib.Path(normcat.__file__).parent

ORACLE = "oracle of a named value"
BUILDER = "builder"
AXIOMS = "norm axioms and metrization"
FACTORIZATION = "monotone-light factorization check"

# the public top-level functions that neither the CLI nor `check`
# reaches, each with the role that keeps it
UNREACHED = {
    "capacity.subset_family": BUILDER,
    "category.check_norm_axioms": AXIOMS,
    "category.identity_only_category": BUILDER,
    "category.induced_pqmetric": AXIOMS,
    "category.modulator_subcategory": AXIOMS,
    "discrete.compose_functions": ORACLE,
    "discrete.cost_category": BUILDER,
    "discrete.cost_pseudometric": AXIOMS,
    "discrete.csb_witness": AXIOMS,
    "discrete.find_injective_simplicial_map": AXIOMS,
    "discrete.find_simplicial_isomorphism": AXIOMS,
    "discrete.function_category": BUILDER,
    "discrete.simplicial_mutual_embedding": AXIOMS,
    "generate.random_subset": BUILDER,
    "linear.min_gain_estimate": ORACLE,
    "measure.capacity_value_kinks": ORACLE,
    "measure.measure_isometry_search": AXIOMS,
    "measure.prokhorov_seminorm_capacity_form": ORACLE,
    "metric.find_expansive_map": AXIOMS,
    "metric.is_isometry": AXIOMS,
    "metric.isometry_search": AXIOMS,
    "metric.line_space": BUILDER,
    "metric.one_point_space": BUILDER,
    "metric.search_slack": AXIOMS,
    "metric.thicken": ORACLE,
    "metric.two_point_probe_dual": ORACLE,
    "metric.two_point_space": BUILDER,
    "metric.zero_dilatation_endos": AXIOMS,
    "topo.all_posets": BUILDER,
    "topo.compose_poset_maps": FACTORIZATION,
    "topo.discrete_space": BUILDER,
    "topo.poset_space": BUILDER,
    "topo.sierpinski_space": BUILDER,
    "wasserstein.kr_compare": ORACLE,
    "wasserstein.normalize_representative": BUILDER,
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _names(node):
    """Every name and attribute name used inside node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreached_functions(trees):
    """Public top-level functions that no walk from cli.main reaches.

    A definition is reached when its name occurs in a reached body or in
    module-level code; a name reaches every definition it names, in any
    module, so the walk can only overcount what is reached.
    """
    defs = {}
    todo = ["main"]
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                todo += _names(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += _names(node)
    return {"%s.%s" % (module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in reached}


def test_every_unreached_function_has_a_role():
    assert unreached_functions(_trees()) == set(UNREACHED)
    assert set(UNREACHED.values()) <= {ORACLE, BUILDER, AXIOMS, FACTORIZATION}


def test_the_walk_sees_a_function_nothing_calls():
    trees = _trees()
    trees["extra"] = ast.parse("def orphan():\n    return line_space([0])\n")
    assert unreached_functions(trees) == set(UNREACHED) | {"extra.orphan"}
    trees["extra"] = ast.parse("def orphan():\n    pass\n\nHOOK = orphan\n")
    assert unreached_functions(trees) == set(UNREACHED)


def test_the_walk_reports_a_stale_entry():
    # a listed function that something reached now calls is no longer
    # unreached, so its entry fails the guard
    trees = _trees()
    trees["extra"] = ast.parse("ORIGIN = line_space([0])\n")
    assert unreached_functions(trees) == set(UNREACHED) - {"metric.line_space"}


def test_private_functions_are_never_listed():
    trees = _trees()
    trees["extra"] = ast.parse("def _helper():\n    pass\n")
    assert unreached_functions(trees) == set(UNREACHED)


def assert_statements(trees):
    return ["%s:%d" % (module, node.lineno) for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so invariants raise real exceptions
    assert assert_statements(_trees()) == []


def test_the_assert_scan_sees_a_nested_assert():
    trees = {"extra": ast.parse("def f(x):\n    if x:\n        assert x > 0\n")}
    assert assert_statements(trees) == ["extra:3"]

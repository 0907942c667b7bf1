"""Structural guards over the source tree: every public function and
public method is reached from the command line or has a named role,
every parameter default that no call in the package sets has a named
role, and no invariant rests on an assert statement."""

import ast
import importlib.util
import pathlib

import normcat
from normcat import cli, suites
from normcat.discrete import group_norm_category

SRC = pathlib.Path(normcat.__file__).parent

ORACLE = "oracle of a named value"
BUILDER = "builder"
AXIOMS = "norm axioms and metrization"
ENTRY = "entry point: None reads sys.argv"
QUASI = "quasi-metric spaces"
COUNTER = "work counter for the result reports of ROADMAP item 2"
BRACKET = "the Wasserstein bracket of ROADMAP item 10"

# the public top-level functions and methods that neither the CLI nor
# `check` reaches, each with the role that keeps it
UNREACHED = {
    "category.check_norm_axioms": AXIOMS,
    "category.identity_only_category": BUILDER,
    "category.induced_pqmetric": AXIOMS,
    "category.modulator_subcategory": AXIOMS,
    "category.monoid_category": BUILDER,
    "discrete.NormedMonoid.from_table": BUILDER,
    "discrete.cost_category": BUILDER,
    "discrete.cost_pseudometric": AXIOMS,
    "discrete.csb_witness": AXIOMS,
    "discrete.find_injective_simplicial_map": AXIOMS,
    "discrete.find_simplicial_isomorphism": AXIOMS,
    "discrete.function_category": BUILDER,
    "discrete.simplicial_mutual_embedding": AXIOMS,
    "generate.random_function_map": BUILDER,
    "generate.random_subset": BUILDER,
    "linear.min_gain_estimate": ORACLE,
    "measure.FiniteMMSpace.measure": ORACLE,
    "measure.measure_isometry_search": AXIOMS,
    "measure.prokhorov_seminorm_capacity_form": ORACLE,
    "metric.find_expansive_map": AXIOMS,
    "metric.is_isometry": AXIOMS,
    "metric.isometry_search": AXIOMS,
    "metric.line_space": BUILDER,
    "metric.one_point_space": BUILDER,
    "metric.search_slack": AXIOMS,
    "metric.two_point_probe_dual": ORACLE,
    "metric.two_point_space": BUILDER,
    "metric.zero_dilatation_endos": AXIOMS,
    "search.down_sets": BUILDER,
    "topo.FiniteTopSpace.is_closed": ORACLE,
    "topo.all_posets": BUILDER,
    "topo.discrete_space": BUILDER,
    "topo.poset_space": BUILDER,
    "topo.sierpinski_space": BUILDER,
    "wasserstein.kr_compare": ORACLE,
}


# the parameters with a default, of public functions and methods, that
# no call in the package sets, each with the role that keeps it
UNSET_DEFAULTS = {
    "category.induced_pqmetric(symmetrize)": AXIOMS,
    "cli.main(argv)": ENTRY,
    "generate.random_simplicial(prefix)": BUILDER,
    "generate.random_testfn_values(grid)": BUILDER,
    "linear.min_gain_estimate(samples)": ORACLE,
    "linear.min_gain_estimate(seed)": ORACLE,
    "metric.FiniteMetricSpace.__init__(allow_quasi)": QUASI,
    "metric.line_space(labels)": BUILDER,
    "metric.two_point_space(labels)": BUILDER,
    "search.fits(nodes)": COUNTER,
    "wasserstein.wasserstein_seminorm(direction)": BRACKET,
    "wasserstein.wasserstein_seminorm(extra_witnesses)": BRACKET,
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _names(node):
    """Every name and attribute name used inside node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreached_functions(trees):
    """Public top-level functions and methods that no walk from cli.main
    reaches.

    A definition is reached when its name occurs in a reached body or in
    module-level code, or when a module-level string "m.name", m a module
    of the package, names it (the CLI registry names its routes so); a
    name reaches every definition it names, in any module, so the walk
    can only overcount what is reached.  Reaching a class reaches its
    bases, decorators, fields and dunder methods, which run without being
    named; its other methods are reached by name.
    """
    defs = {}
    todo = ["main"]
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                methods = _methods(node)
                defs.setdefault(node.name, []).extend(
                    [n for n in node.body if n not in methods]
                    + node.bases + node.decorator_list)
                for n in methods:
                    defs.setdefault(n.name, []).append(n)
            else:
                todo += _names(node) | _named_by_strings(node, trees)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += _names(node)
    listed = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                listed["%s.%s" % (module, node.name)] = node.name
            elif isinstance(node, ast.ClassDef):
                listed.update(("%s.%s.%s" % (module, node.name, n.name), n.name)
                              for n in _methods(node))
    return {key for key, name in listed.items()
            if not name.startswith("_") and name not in reached}


def _named_by_strings(node, modules):
    """The names that the "module.name" strings inside node name."""
    strings = [n.value for n in ast.walk(node)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {s.rpartition(".")[2] for s in strings if s.rpartition(".")[0] in modules}


def _methods(cls):
    """The methods of a class that run only when named: all but dunders."""
    return [n for n in cls.body if isinstance(n, ast.FunctionDef)
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def test_every_unreached_function_has_a_role():
    assert unreached_functions(_trees()) == set(UNREACHED)
    assert set(UNREACHED.values()) <= {ORACLE, BUILDER, AXIOMS}


def test_the_walk_sees_a_function_nothing_calls():
    trees = _trees()
    trees["extra"] = ast.parse("def orphan():\n    return line_space([0])\n")
    assert unreached_functions(trees) == set(UNREACHED) | {"extra.orphan"}
    trees["extra"] = ast.parse("def orphan():\n    pass\n\nHOOK = orphan\n")
    assert unreached_functions(trees) == set(UNREACHED)


def test_the_walk_sees_a_route_string():
    trees = _trees()
    trees["extra"] = ast.parse('ROUTES = {"line": "metric.line_space"}\n')
    assert unreached_functions(trees) == set(UNREACHED) - {"metric.line_space"}
    trees["extra"] = ast.parse('ROUTES = {"line": "nomodule.line_space"}\n')
    assert unreached_functions(trees) == set(UNREACHED)
    trees["extra"] = ast.parse('def _route():\n    return "metric.line_space"\n')
    assert unreached_functions(trees) == set(UNREACHED)


def test_the_walk_sees_a_method_nothing_names():
    # a reached class runs its dunder methods; its other methods need a name
    trees = _trees()
    trees["extra"] = ast.parse("class Box:\n"
                               "    def __init__(self):\n        self.origin = line_space([0])\n"
                               "    def unused(self):\n        pass\n\n"
                               "BOX = Box()\n")
    reached_by_init = set(UNREACHED) - {"metric.line_space"}
    assert unreached_functions(trees) == reached_by_init | {"extra.Box.unused"}
    trees["extra"].body.append(ast.parse("BOX.unused()").body[0])
    assert unreached_functions(trees) == reached_by_init


def test_the_walk_reports_a_stale_entry():
    # a listed function that something reached now calls is no longer
    # unreached, so its entry fails the guard
    trees = _trees()
    trees["extra"] = ast.parse("ORIGIN = line_space([0])\n")
    assert unreached_functions(trees) == set(UNREACHED) - {"metric.line_space"}
    trees["extra"] = ast.parse("CLOSED = SPACE.is_closed(())\n")
    assert unreached_functions(trees) == set(UNREACHED) - {"topo.FiniteTopSpace.is_closed"}


def test_private_functions_are_never_listed():
    trees = _trees()
    trees["extra"] = ast.parse("def _helper():\n    pass\n")
    assert unreached_functions(trees) == set(UNREACHED)


def unset_defaults(trees):
    """The parameters with a default, of public top-level functions and
    methods (__init__ included), that no call in the package sets, as
    "module.function(parameter)".

    A call is matched to every definition of its called name or
    attribute, and to every __init__ of a class of that name or when it
    calls __init__ itself (as super().__init__ does).  It sets
    a parameter that it names as a keyword or fills by position, and
    every one when it unpacks *args or **kwargs.  A method's position
    skips self, so a static method counts one parameter too many as
    set; the walk can only overcount what is set.
    """
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func
                name = getattr(called, "id", getattr(called, "attr", None))
                calls.setdefault(name, []).append(node)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append(("%s.%s" % (module, node.name), (node.name,), node, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [("%s.%s.%s" % (module, node.name, n.name),
                          (node.name, n.name) if n.name == "__init__" else (n.name,), n, 1)
                         for n in node.body if isinstance(n, ast.FunctionDef)]
    unset = set()
    for key, names, fn, skip in defs:
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        a = fn.args
        pos = a.posonlyargs + a.args
        params = [(i - skip, p.arg) for i, p in enumerate(pos)
                  if i >= len(pos) - len(a.defaults)]
        params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        for index, param in params:
            if not any(any(k.arg in (param, None) for k in c.keywords)
                       or index is not None
                       and (index < len(c.args)
                            or any(isinstance(v, ast.Starred) for v in c.args))
                       for name in names for c in calls.get(name, ())):
                unset.add("%s(%s)" % (key, param))
    return unset


def test_every_unset_default_has_a_role():
    assert unset_defaults(_trees()) == set(UNSET_DEFAULTS)
    assert set(UNSET_DEFAULTS.values()) <= {ORACLE, BUILDER, AXIOMS, ENTRY, QUASI,
                                            COUNTER, BRACKET}


def test_the_walk_sees_a_default_nothing_sets():
    trees = _trees()
    trees["extra"] = ast.parse("def scaled(x, factor=2.0, *, exact=False):\n"
                               "    return x * factor\n\n"
                               "HALF = scaled(0.5)\n")
    assert unset_defaults(trees) == set(UNSET_DEFAULTS) | {"extra.scaled(factor)",
                                                           "extra.scaled(exact)"}
    trees["extra"].body.append(ast.parse("ONE = scaled(0.5, 2.0, exact=True)").body[0])
    assert unset_defaults(trees) == set(UNSET_DEFAULTS)


def test_the_walk_skips_self_in_a_method_call():
    trees = _trees()
    trees["extra"] = ast.parse("class Box:\n"
                               "    def __init__(self, side, open=False):\n"
                               "        self.side = side\n"
                               "    def grown(self, by=1.0):\n"
                               "        return Box(self.side + by)\n\n"
                               "BOX = Box(1.0).grown()\n")
    assert unset_defaults(trees) == set(UNSET_DEFAULTS) | {"extra.Box.__init__(open)",
                                                           "extra.Box.grown(by)"}
    trees["extra"].body.append(ast.parse("BIG = Box(2.0).grown(*SIDES)").body[0])
    assert unset_defaults(trees) == set(UNSET_DEFAULTS) | {"extra.Box.__init__(open)"}
    trees["extra"].body.append(ast.parse("class Lid(Box):\n"
                                         "    def __init__(self):\n"
                                         "        super().__init__(1.0, True)\n").body[0])
    assert unset_defaults(trees) == set(UNSET_DEFAULTS)


def assert_statements(trees):
    return ["%s:%d" % (module, node.lineno) for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so invariants raise real exceptions
    assert assert_statements(_trees()) == []


def test_the_assert_scan_sees_a_nested_assert():
    trees = {"extra": ast.parse("def f(x):\n    if x:\n        assert x > 0\n")}
    assert assert_statements(trees) == ["extra:3"]


TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_tracer_names_resolve_where_it_patches_them(monkeypatch):
    # the benchmark's tracer patches these names on normcat.cli and normcat.suites
    tracer = _tracer_module()
    for attr, *_ in tracer.CLI_NAMES:
        assert callable(getattr(cli, attr)), attr
    assert [attr for attr, *_ in tracer.SUITES_NAMES if not hasattr(suites, attr)] == []
    # a suite is read from the module when run_suite runs, so a patch reaches it
    calls = []
    real = suites.suite_metric
    monkeypatch.setattr(suites, "suite_metric", lambda *args: calls.append(args) or real(*args))
    rows = suites.run_suite("all", 0, 1)
    assert calls == [(0, 1)]
    assert [r["name"] for r in rows if r["name"].startswith("metric/")] == \
        ["metric/" + r["name"] for r in real(0, 1)]


def test_the_tracer_counts_and_times_a_category_build():
    # the benchmark counts composable triples from the morphisms list
    # passed to FiniteCategory.__init__, and times that call as a span
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        group_norm_category(3)
    finally:
        tracer.uninstall()
    # Z/3: 9 hom sets of 3 morphisms, each between objects with 9 in and 9 out
    assert tracer.counts["category.composable_triples"] == 3 ** 7
    assert "category.validate" in [span[0] for span in tracer.spans]

"""Per-layer timing of normcat from outside the program.

The tracer replaces, for the length of a traced pass, the public names
that normcat.cli and normcat.suites call into each module, and the
constructors of the three validating classes, with wrappers that record
a span: (name, start ns, end ns, parent span, operation id).  Spans stay
in memory and are written out when the run ends.  A layer's self time is
its spans' durations minus the time their child spans cover; a few
wrappers only count work computed from their arguments.
"""

import collections
import functools
import json
import os
import time

# span name -> the per-layer metric that reports its self time
SPAN_METRICS = {
    "cli.main": "cli.self_ms",
    "io.parse": "io.parse_ms",
    "metric.validate": "metric.validate_ms",
    "category.validate": "category.validate_ms",
    "topo.validate": "topo.validate_ms",
    "discrete.group_category": "discrete.group_category_ms",
    "capacity.dual_report": "capacity.dual_report_ms",
    "measure.prokhorov": "measure.prokhorov_ms",
    "measure.prokhorov_distance": "measure.prokhorov_distance_ms",
    "metric.codiameter": "metric.codiameter_ms",
    "metric.gh": "metric.gh_ms",
    "metric.dil_distance": "metric.dil_distance_ms",
    "metric.dilatation": "metric.dilatation_ms",
    "topo.component": "topo.component_ms",
    "topo.dimension": "topo.dimension_ms",
    "topo.monotone_light": "topo.monotone_light_ms",
    "wasserstein.capacity_oracle": "wasserstein.capacity_oracle_ms",
    "wasserstein.w1": "wasserstein.w1_ms",
    "linear.operator": "linear.operator_ms",
    "suites.core": "suites.core_ms",
    "suites.metric": "suites.metric_ms",
    "suites.topo": "suites.topo_ms",
    "suites.measure": "suites.measure_ms",
    "suites.wasserstein": "suites.wasserstein_ms",
}

COUNT_METRICS = ("metric.triangle_triples", "category.composable_triples",
                 "measure.subsets", "metric.subsets", "topo.subsets", "io.bytes_parsed")


def _target_subsets(f):
    return 2 ** len(f.target.points)


def _composable_triples(objects, morphisms, *rest, **kw):
    """Triples h, g, f with f: a -> b, g: b -> c, h: c -> d."""
    into, outof, hom = (collections.Counter() for _ in range(3))
    for _, src, tgt in morphisms:
        into[tgt] += 1
        outof[src] += 1
        hom[src, tgt] += 1
    return sum(into[b] * k * outof[c] for (b, c), k in hom.items())


# (module attribute, span name, counter, work computed from the arguments)
CLI_NAMES = [
    ("parse_instance", "io.parse", "io.bytes_parsed", lambda path: os.path.getsize(path)),
    ("dilatation_norm", "metric.dilatation", None, None),
    ("dilatation_left_dual", "metric.dilatation", None, None),
    ("codiameter_seminorm", "metric.codiameter", "metric.subsets", _target_subsets),
    ("dil_distance", "metric.dil_distance", None, None),
    ("gh_distance", "metric.gh", None, None),
    ("component_seminorm", "topo.component", "topo.subsets", _target_subsets),
    ("dimension_seminorm", "topo.dimension", "topo.subsets",
     lambda m: 2 ** len(m.target.simplices)),
    ("prokhorov_seminorm", "measure.prokhorov", "measure.subsets",
     lambda f: 2 ** len(f.target.base.points)),
    ("prokhorov_distance", "measure.prokhorov_distance", "measure.subsets",
     lambda a, b, **kw: 2 ** len(a.base.points)),
    ("w1_transport", "wasserstein.w1", None, None),
    ("operator_seminorm", "linear.operator", None, None),
]

SUITES_NAMES = [
    ("suite_core", "suites.core", None, None),
    ("suite_metric", "suites.metric", None, None),
    ("suite_topo", "suites.topo", None, None),
    ("suite_measure", "suites.measure", None, None),
    ("suite_wasserstein", "suites.wasserstein", None, None),
    ("group_norm_category", "discrete.group_category", None, None),
    ("dual_inequality_report", "capacity.dual_report", None, None),
    ("dilatation_norm", "metric.dilatation", None, None),
    ("dilatation_norm_capacity", None, "metric.subsets", _target_subsets),
    ("gh_distance", "metric.gh", None, None),
    ("dil_distance", "metric.dil_distance", None, None),
    ("component_seminorm", "topo.component", "topo.subsets", _target_subsets),
    ("component_capacity_form", None, "topo.subsets", _target_subsets),
    ("monotone_light_report", "topo.monotone_light", "topo.subsets",
     lambda f: 2 ** len(f.source.points)),
    ("prokhorov_seminorm", "measure.prokhorov", "measure.subsets",
     lambda f: 2 ** len(f.target.base.points)),
    ("prokhorov_distance", "measure.prokhorov_distance", "measure.subsets",
     lambda a, b, **kw: 2 ** len(a.base.points)),
    ("wasserstein_capacity_oracle", "wasserstein.capacity_oracle", None, None),
    ("w1_transport", "wasserstein.w1", None, None),
]


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.spans = []      # [name, start ns, end ns, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = collections.Counter()
        self._undo = []

    def wrap(self, name, fn, counter=None, work=None):
        """fn recording a span called `name` (none if name is None) and
        adding work(*args) to `counter`."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += work(*args, **kwargs)
            if name is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from normcat import category, cli, metric, suites, topo

        for module, names in ((cli, CLI_NAMES), (suites, SUITES_NAMES)):
            for attr, name, counter, work in names:
                self._patch(module, attr, self.wrap(name, getattr(module, attr), counter, work))

        def metric_triples(space, points, dist, *a, **kw):
            return len(dist) ** 3

        def category_triples(cat, *args, **kwargs):
            return _composable_triples(*args, **kwargs)

        for cls, name, counter, work in (
                (metric.FiniteMetricSpace, "metric.validate", "metric.triangle_triples",
                 metric_triples),
                (category.FiniteCategory, "category.validate", "category.composable_triples",
                 category_triples),
                (topo.FiniteTopSpace, "topo.validate", None, None)):
            self._patch(cls, "__init__", self.wrap(name, cls.__init__, counter, work))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def self_ms(self):
        """Self time per span name, in ms, over every recorded span."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start - covered) / 1e6
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

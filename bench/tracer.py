"""Per-layer tracing of dflab from outside the library.

The tracer replaces public functions and methods of the ``dflab`` modules
with wrappers.  Modules import names with ``from .x import y``, so one
function is bound in several module namespaces; the wrapper is put into
every namespace that holds the original object, and a method is wrapped
once on its class.

Two kinds of wrapper exist:

* a *span* wrapper records (name, start, end, parent span) for each call,
  in memory, as integer nanoseconds.  Self time is a span's duration
  minus the durations of its direct children.
* a *count* wrapper only increments a counter.  It is used for the
  high-frequency primitives (membership tests, ideal products, linear
  algebra) whose cost is charged to the enclosing span's self time.

A target that no longer exists in the code under test is recorded as
missing, and every metric that depends on it is reported as absent
rather than as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute); "Class.method" wraps a method on its class
SPANS = [
    ("lattice_geometry.lattice_points",
     "lattice_geometry", "PolarizedToricVariety.lattice_points"),
    ("lattice_geometry.maximal_charts",
     "lattice_geometry", "PolarizedToricVariety.maximal_charts"),
    ("lattice_geometry.intersection_numbers",
     "lattice_geometry", "PolarizedToricVariety.intersection_numbers"),
    ("lattice_geometry.make_variety", "lattice_geometry", "make_variety"),
    ("monomial_algebra.t_degree", "monomial_algebra", "t_degree"),
    ("monomial_algebra.newton_polyhedron",
     "monomial_algebra", "newton_polyhedron"),
    ("monomial_algebra.phi_value", "monomial_algebra", "phi_value"),
    ("weight_engine.weight_at", "weight_engine", "weight_at"),
    ("weight_engine.closure_weight_at", "weight_engine", "closure_weight_at"),
    ("weight_engine.hilbert_at", "weight_engine", "hilbert_at"),
    ("weight_engine.fit_polynomial", "weight_engine", "fit_polynomial"),
    ("weight_engine.evaluate", "weight_engine", "evaluate"),
    ("hull.facets_of_points", "hull", "facets_of_points"),
    ("hull.extreme_points", "hull", "extreme_points"),
    ("hull.triangulate_points", "hull", "triangulate_points"),
    ("intersection_engine.df_intersection",
     "intersection_engine", "df_intersection"),
    ("intersection_engine.lower_hull_integral",
     "intersection_engine", "lower_hull_integral"),
    ("intersection_engine.face_degree", "intersection_engine", "face_degree"),
    ("stability_lab.enumerate_flag_ideals",
     "stability_lab", "enumerate_flag_ideals"),
    ("stability_lab.search_destabilizers",
     "stability_lab", "search_destabilizers"),
    ("cli.compute_envelope", "cli", "compute_envelope"),
]

# (counter, module, attribute, only_in): only_in limits the wrapper to the
# namespace of the calling module; None means every namespace
COUNTS = [
    ("membership_tests", "monomial_algebra", "MonomialIdeal.contains", None),
    ("membership_tests", "monomial_algebra", "MonomialIdeal.contains_on",
     None),
    ("ideal_ops", "monomial_algebra", "MonomialIdeal.product", None),
    ("ideal_ops", "monomial_algebra", "MonomialIdeal.sum", None),
    ("point_in_convex_hull", "hull", "point_in_convex_hull", None),
    ("rank", "intlinalg", "rank", None),
    ("solve_unique", "intlinalg", "solve_unique", None),
    ("det", "intlinalg", "det", None),
    ("subsets_tried", "intlinalg", "hyperplane_normal", "hull"),
]


def _resolve(module, attr):
    """(owner, name, object) for 'func' or 'Class.method', or None."""
    mod = sys.modules.get("dflab." + module)
    if mod is None:
        return None
    owner, name = mod, attr
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        owner = getattr(mod, cls_name, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if isinstance(owner, type) else \
        getattr(owner, name, None)
    if obj is None or not callable(obj):
        return None
    return owner, name, obj


def _namespaces():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "dflab" or k.startswith("dflab."))]


def _rebind(owner, name, orig, wrapper, only_in=None):
    """Put wrapper in place of orig wherever orig is bound; returns the
    number of bindings replaced."""
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return 1
    done = 0
    for mod in _namespaces():
        if only_in is not None and mod.__name__ != "dflab." + only_in:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                done += 1
    return done


class Tracer:
    """Span and counter store; install() wraps the loaded dflab modules."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.counts = {}
        self.missing = set()

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None, on_error=None):
        idx = self._intern(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter_ns()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[sid] = perf_counter_ns()
            stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target present in the loaded dflab modules."""
        hooks = {
            "lattice_geometry.lattice_points": dict(
                after=lambda pts: self._bump("lattice_points.points",
                                             len(pts))),
            "monomial_algebra.t_degree": dict(
                after=lambda lvl: lvl > 0 and self._bump("t_degree.nonzero")),
            "weight_engine.fit_polynomial": dict(
                on_error=self._fit_error),
            "hull.facets_of_points": dict(
                after=lambda fs: self._bump("facets_found", len(fs))),
        }
        for name, module, attr in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.add(name)
                continue
            owner, key, orig = found
            wrapper = self.span_wrapper(name, orig, **hooks.get(name, {}))
            _rebind(owner, key, orig, wrapper)
        for key, module, attr, only_in in COUNTS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.add(key + ":" + attr)
                continue
            owner, name, orig = found
            if not _rebind(owner, name, orig, self.count_wrapper(key, orig),
                           only_in):
                self.missing.add(key + ":" + attr)
        self._install_probes()

    def _fit_error(self, exc):
        if type(exc).__name__ == "NotStabilized":
            self._bump("fit_polynomial.not_stabilized")

    def _install_probes(self):
        mod = sys.modules.get("dflab.intersection_engine")
        # vertices found by the half-space enumeration of lower_hull_integral
        vertices = getattr(mod, "_polyhedron_vertices", None)
        if vertices is None:
            self.missing.add("_polyhedron_vertices")
        else:
            def probe_vertices(*args, **kwargs):
                out = vertices(*args, **kwargs)
                self._bump("vertices_found", len(out))
                return out
            mod._polyhedron_vertices = probe_vertices
            self.counts.setdefault("vertices_found", 0)
        # n-subsets of half-spaces tried while integrating the lower hull
        solve = getattr(mod, "solve_unique", None)
        if solve is None or "solve_unique:solve_unique" in self.missing:
            self.missing.add("vertex_subsets")
        else:
            lower = self._name_index.get(
                "intersection_engine.lower_hull_integral")

            def probe_solve(*args, **kwargs):
                if any(self.span_name[sid] == lower for sid in self.stack):
                    self.counts["vertex_subsets"] += 1
                return solve(*args, **kwargs)
            mod.solve_unique = probe_solve
            self.counts.setdefault("vertex_subsets", 0)

    # -- results -----------------------------------------------------------

    def span_times(self):
        """Per span name: (calls, self ns, outermost inclusive ns)."""
        n = len(self.span_name)
        child = [0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        out = {name: [0, 0, 0] for name in self.names}
        for sid in range(n):
            name = self.names[names[sid]]
            dur = ends[sid] - starts[sid]
            agg = out[name]
            agg[0] += 1
            agg[1] += dur - child[sid]
            p = parents[sid]
            while p >= 0 and names[p] != names[sid]:
                p = parents[p]
            if p < 0:
                agg[2] += dur
        return out

    def write_spans(self, path):
        doc = {
            "unit": "ns",
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "spans": [list(row) for row in zip(
                self.span_name, self.span_parent,
                self.span_start, self.span_end)],
            "counts": self.counts,
            "missing": sorted(self.missing),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics by name; a metric whose target is missing is left
    out.  Ratios are 0 when their base is 0 (the layer did not run)."""
    times = tracer.span_times()
    c = tracer.counts
    out = {}

    def span(name, calls=False, self_s=False, total_s=False):
        if name in tracer.missing:
            return
        n, self_ns, total_ns = times.get(name, (0, 0, 0))
        if calls:
            out[name + ".calls"] = n
        if self_s:
            out[name + ".self_s"] = self_ns / 1e9
        if total_s:
            out[name + ".total_s"] = total_ns / 1e9

    def counted(metric, key, *targets):
        if not any(t in tracer.missing for t in targets):
            out[metric] = c.get(key, 0)

    span("lattice_geometry.lattice_points", calls=True, self_s=True)
    if "lattice_geometry.lattice_points" not in tracer.missing:
        out["lattice_geometry.lattice_points.points"] = c.get(
            "lattice_points.points", 0)
    span("lattice_geometry.maximal_charts", calls=True, self_s=True)
    span("lattice_geometry.intersection_numbers", calls=True, self_s=True)
    span("lattice_geometry.make_variety", self_s=True)

    span("monomial_algebra.t_degree", calls=True, self_s=True)
    if "monomial_algebra.t_degree" not in tracer.missing:
        out["monomial_algebra.t_degree.nonzero_ratio"] = _ratio(
            c.get("t_degree.nonzero", 0),
            times["monomial_algebra.t_degree"][0])
    counted("monomial_algebra.membership_tests", "membership_tests",
            "membership_tests:MonomialIdeal.contains",
            "membership_tests:MonomialIdeal.contains_on")
    counted("monomial_algebra.ideal_ops", "ideal_ops",
            "ideal_ops:MonomialIdeal.product", "ideal_ops:MonomialIdeal.sum")
    span("monomial_algebra.newton_polyhedron", calls=True, self_s=True)
    span("monomial_algebra.phi_value", calls=True, self_s=True)

    span("weight_engine.weight_at", calls=True, self_s=True)
    span("weight_engine.closure_weight_at", calls=True, self_s=True)
    span("weight_engine.hilbert_at", calls=True, self_s=True)
    span("weight_engine.fit_polynomial", calls=True, self_s=True)
    if "weight_engine.fit_polynomial" not in tracer.missing:
        out["weight_engine.fit_polynomial.not_stabilized"] = c.get(
            "fit_polynomial.not_stabilized", 0)
    span("weight_engine.evaluate", total_s=True)

    span("hull.facets_of_points", calls=True, self_s=True)
    counted("hull.subsets_tried", "subsets_tried",
            "subsets_tried:hyperplane_normal")
    if "hull.facets_of_points" not in tracer.missing:
        out["hull.facets_found"] = c.get("facets_found", 0)
        if "hull.subsets_tried" in out:
            out["hull.facet_yield"] = _ratio(
                out["hull.facets_found"], out["hull.subsets_tried"])
    span("hull.extreme_points", calls=True, self_s=True)
    counted("hull.point_in_convex_hull.calls", "point_in_convex_hull",
            "point_in_convex_hull:point_in_convex_hull")
    span("hull.triangulate_points", self_s=True)

    span("intersection_engine.df_intersection", calls=True, total_s=True)
    span("intersection_engine.lower_hull_integral", self_s=True)
    span("intersection_engine.face_degree", self_s=True)
    counted("intersection_engine.vertex_subsets", "vertex_subsets",
            "vertex_subsets", "intersection_engine.lower_hull_integral")
    if "intersection_engine.vertex_subsets" in out and \
            "_polyhedron_vertices" not in tracer.missing:
        out["intersection_engine.vertex_yield"] = _ratio(
            c.get("vertices_found", 0),
            out["intersection_engine.vertex_subsets"])

    for fn in ("rank", "solve_unique", "det"):
        counted("intlinalg.%s.calls" % fn, fn, "%s:%s" % (fn, fn))

    span("stability_lab.enumerate_flag_ideals", total_s=True)
    span("stability_lab.search_destabilizers", self_s=True)
    span("cli.compute_envelope", self_s=True)
    return out


def install_tracer():
    """Import every dflab module, then wrap them; returns the Tracer."""
    for module in ("cli", "hull", "intersection_engine", "intlinalg",
                   "lattice_geometry", "monomial_algebra", "stability_lab",
                   "weight_engine"):
        try:
            importlib.import_module("dflab." + module)
        except ImportError:
            pass
    tracer = Tracer()
    tracer.install()
    return tracer

"""Spans around calls into the hanoispec modules, recorded from outside the library.

``Tracer.install`` replaces each traced function by a wrapper in every
hanoispec module that holds a reference to it (``analysis`` and
``resistance`` import several of them by value, so patching only the
defining module would miss those callers), and patches the traced
methods on their classes.  A span is ``[name, start, end, parent, attrs]``;
spans live in memory and ``write`` dumps them once at the end of a run.
A span's self time is its duration minus the durations of its children
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from hanoispec import analysis, assembly, eigensolve, geometry, resistance

NAME, START, END, PARENT, ATTRS = range(5)
COUNT_SPANS = ("eigensolve.count_below", "eigensolve.count_leq")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._undo: list = []
        self._flops_per_pass: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[ATTRS] = annotate(args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a root span named ``name``."""
        return self._wrap(name, fn)(*args)

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "hanoispec" or k.startswith("hanoispec.")]
        functions = [
            (geometry, "build_graph", "geometry.build_graph",
             lambda a, k, g: {"vertices": g.n_vertices}),
            (assembly, "assemble_neumann", "assembly.assemble_neumann",
             lambda a, k, r: {"pencils": 1}),
            (assembly, "apply_dirichlet", "assembly.apply_dirichlet",
             lambda a, k, r: {"pencils": 1}),
            (assembly, "assemble_decoupled", "assembly.assemble_decoupled",
             lambda a, k, r: {"pencils": len(r)}),
            (eigensolve, "get_counter", "eigensolve.get_counter", None),
            (eigensolve, "eig_dense", "eigensolve.dense",
             lambda a, k, r: {"flops": float(r.n) ** 3}),
            (eigensolve, "eig_dense_cached", "eigensolve.eig_dense_cached", None),
            (analysis, "auto_grid", "analysis.auto_grid", None),
            (analysis, "counting_function", "analysis.counting_function",
             lambda a, k, r: {"grid_points": len(r)}),
            (analysis, "bracketing_check", "analysis.bracketing_check", None),
            (analysis, "fit_exponent", "analysis.fit_exponent", None),
            (resistance, "compatibility_check", "resistance.compatibility_check", None),
            (resistance, "cell_diameter_scaling", "resistance.cell_diameter_scaling", None),
        ]
        for home, attr, name, annotate in functions:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, annotate)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

        def symbolic_attrs(args, kwargs, _):
            counter = args[0]
            col = counter.Lp[1:] - counter.Lp[:-1]
            # up-looking LDL^T: row k's update of column j touches the entries
            # already in it, plus a divide and a multiply-subtract per entry
            self._flops_per_pass[counter] = float((col * (col + 2)).sum())
            return {"fill_nnz": counter.fill_nonzeros}

        def numeric_attrs(args, kwargs, result):
            return {"flops": self._flops_per_pass.get(args[0], 0.0), "failed": not result[1]}

        methods = [
            (eigensolve.InertiaCounter, "__init__", "eigensolve.symbolic", symbolic_attrs),
            (eigensolve.InertiaCounter, "try_count", "eigensolve.numeric", numeric_attrs),
            (eigensolve.InertiaCounter, "count_below", "eigensolve.count_below", None),
            (eigensolve.Spectrum, "count_leq", "eigensolve.count_leq", None),
            (resistance.GroundedSolver, "__init__", "resistance.factor", None),
            (resistance.GroundedSolver, "solve", "resistance.solve", None),
        ]
        for cls, attr, name, annotate in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, annotate))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def experiment_metrics(spans: list, root: int) -> dict:
    """Per-layer figures of one experiment, from the spans below ``root``."""
    total = spans[root][END] - spans[root][START]
    # spans are appended in call order, so one experiment's spans follow its root
    members = {root}
    child_time = defaultdict(float)
    calls = defaultdict(int)
    incl = defaultdict(float)
    attr = defaultdict(float)
    failed = 0
    auto_grid_counts = 0
    cache_hits = {"eigensolve.get_counter": 0, "eigensolve.eig_dense_cached": 0}
    built_under = {"eigensolve.get_counter": "eigensolve.symbolic",
                   "eigensolve.eig_dense_cached": "eigensolve.dense"}
    children = defaultdict(list)
    idx = root + 1
    while idx < len(spans) and spans[idx][PARENT] in members:
        members.add(idx)
        rec = spans[idx]
        dur = rec[END] - rec[START]
        child_time[rec[PARENT]] += dur
        children[rec[PARENT]].append(idx)
        calls[rec[NAME]] += 1
        incl[rec[NAME]] += dur
        if rec[ATTRS]:
            for key, val in rec[ATTRS].items():
                if key == "failed":
                    failed += bool(val)
                else:
                    attr[rec[NAME] + "." + key] += val
        idx += 1
    self_time = defaultdict(float)
    for i in members - {root}:
        rec = spans[i]
        self_time[rec[NAME]] += (rec[END] - rec[START]) - child_time[i]
    for i in members - {root}:
        name = spans[i][NAME]
        if name in built_under:
            if not any(spans[c][NAME] == built_under[name] for c in children[i]):
                cache_hits[name] += 1
        elif name == "analysis.auto_grid":
            auto_grid_counts += _count_descendants(spans, children, i)

    def share(*names):
        return 100.0 * sum(self_time[n] for n in names) / total

    def module_share(prefix):
        return share(*[n for n in self_time if n.startswith(prefix + ".")])

    def ratio(hits, base):
        return hits / base if base else 0.0

    counts = sum(calls[n] for n in COUNT_SPANS)
    lookups_c = calls["eigensolve.get_counter"]
    lookups_s = calls["eigensolve.eig_dense_cached"]
    return {
        "eigensolve.numeric.calls": calls["eigensolve.numeric"],
        "eigensolve.numeric.s": incl["eigensolve.numeric"],
        "eigensolve.numeric.share": share("eigensolve.numeric"),
        "eigensolve.numeric.retries": failed,
        "eigensolve.numeric.flops_computed": attr["eigensolve.numeric.flops"],
        "eigensolve.symbolic.calls": calls["eigensolve.symbolic"],
        "eigensolve.symbolic.s": incl["eigensolve.symbolic"],
        "eigensolve.fill_nnz": attr["eigensolve.symbolic.fill_nnz"],
        "eigensolve.dense.calls": calls["eigensolve.dense"],
        "eigensolve.dense.s": incl["eigensolve.dense"],
        "eigensolve.dense.share": share("eigensolve.dense"),
        "eigensolve.dense.flops_computed": attr["eigensolve.dense.flops"],
        "eigensolve.counter_cache.hit_ratio": ratio(cache_hits["eigensolve.get_counter"], lookups_c),
        "eigensolve.counter_cache.lookups": lookups_c,
        "eigensolve.spectrum_cache.hit_ratio":
            ratio(cache_hits["eigensolve.eig_dense_cached"], lookups_s),
        "eigensolve.spectrum_cache.lookups": lookups_s,
        "eigensolve.share": module_share("eigensolve"),
        "analysis.auto_grid.s": incl["analysis.auto_grid"],
        "analysis.auto_grid.counts": auto_grid_counts,
        "analysis.counting_function.s": incl["analysis.counting_function"],
        "analysis.bracketing_check.s": incl["analysis.bracketing_check"],
        "analysis.fit_exponent.s": incl["analysis.fit_exponent"],
        "analysis.grid_points": attr["analysis.counting_function.grid_points"],
        "analysis.counts": counts,
        "analysis.useful_count_ratio": ratio(counts - auto_grid_counts, counts),
        "analysis.share": module_share("analysis"),
        "assembly.assemble_neumann.s": incl["assembly.assemble_neumann"],
        "assembly.apply_dirichlet.s": incl["assembly.apply_dirichlet"],
        "assembly.assemble_decoupled.s": incl["assembly.assemble_decoupled"],
        "assembly.pencils": (attr["assembly.assemble_neumann.pencils"]
                             + attr["assembly.apply_dirichlet.pencils"]
                             + attr["assembly.assemble_decoupled.pencils"]),
        "assembly.share": module_share("assembly"),
        "geometry.build_graph.calls": calls["geometry.build_graph"],
        "geometry.build_graph.s": incl["geometry.build_graph"],
        "geometry.vertices": attr["geometry.build_graph.vertices"],
        "geometry.share": module_share("geometry"),
        "resistance.factor.calls": calls["resistance.factor"],
        "resistance.factor.s": incl["resistance.factor"],
        "resistance.solve.calls": calls["resistance.solve"],
        "resistance.solve.s": incl["resistance.solve"],
        "resistance.solve.share": share("resistance.solve"),
        "resistance.compatibility_check.s": incl["resistance.compatibility_check"],
        "resistance.cell_diameter_scaling.s": incl["resistance.cell_diameter_scaling"],
        "resistance.share": module_share("resistance"),
        "trace.spans": len(members) - 1,
    }


def _count_descendants(spans, children, i) -> int:
    n = 0
    todo = list(children[i])
    while todo:
        c = todo.pop()
        n += spans[c][NAME] in COUNT_SPANS
        todo.extend(children[c])
    return n


def median_metrics(per_experiment: list) -> dict:
    return {key: statistics.median(m[key] for m in per_experiment)
            for key in per_experiment[0]}

"""Run-time tracing of cubicalc's layers, installed from the benchmark only.

`Tracer.install()` wraps the public functions and methods of every layer
module (at every binding, so names imported with `from .derive import
derive_polymap` are wrapped too) and `Tracer.remove()` puts the originals
back.  Nothing under `src/` is edited.

Every call of a wrapped module-level function records a span: name, start,
end, parent span and op id.  A method call records one only when it enters
its layer from outside (from another layer or the benchmark); a method call
nested in its own layer only bumps a counter, so the inner loops of a layer
(for example `Poly.__mul__` inside `Poly.subst`) cost a counter increment,
not a span.  The rings layer is counted only: it is entered once per
coefficient operation, and a span there would cost more than the work it
measures.

A span's self time is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import inspect
import json
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYER_MODULES = {
    "cubicalc.polymap": "polymap",
    "cubicalc.rings": "rings",
    "cubicalc.presentation": "presentation",
    "cubicalc.checks": "checks",
    "cubicalc.constructions": "constructions",
    "cubicalc.twotyped": "twotyped",
    "cubicalc.slopes": "slopes",
    "cubicalc.derive": "derive",
    "cubicalc.laws": "laws",
    "cubicalc.extension": "extension",
    "cubicalc.parser": "parser",
    "cubicalc.tables": "tables",
    "cubicalc.cli": "cli",
}
COUNT_ONLY_LAYERS = {"rings"}

# Label and sort-key helpers called once per coordinate; their time stays
# with the caller.  `hypercube` is not wrapped at all: it has no metric of its
# own and is reached only through `tables` and the constructions.
NOT_WRAPPED = {
    "vlab", "tlab", "slab", "partner", "tag_of", "with_tag", "schema_key",
    "monomial_key", "display_label", "CoordLabel.display",
}
POLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")

EVAL = {"Poly.eval", "PolyMap.eval", "PolyMap.eval_labeled"}
# Poly.subst and the map operations built on it
SUBST = {"Poly.subst", "PolyMap.subst", "PolyMap.compose", "PolyMap.equals",
         "PolyMap.extend_inputs", "PolyMap.reorder_inputs"}
SAMPLE = {"CoordSchema.sample", "CoordSchema.satisfies", "BoxConstraint.holds",
          "sample"}
ATTACH = {"attach_generic_params", "generic_pair_param", "generic_triple_param",
          "source_is_projection"}
LAW_DERIVE = {"derive_law_full", "derive_law_sym"}
LAW_CHECK = {"check_law_compatibility", "check_homogeneity", "check_symmetry",
             "check_finite_law"}
CHECK_LEAVES = {"check_edge_category", "check_face", "check_morphism"}


class Tracer:
    """Spans and counters of one traced pass.  Not thread-safe: the benchmark
    has a single caller thread."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op_id = -1
        # PolyMaps evaluated, by id; kept alive so that an id is not reused
        self.maps_evaluated: dict = {}
        self._stack: list = []     # open span indexes
        self._layers: list = []    # layer of each open span
        self._undo: list = []      # (owner, attribute, original)

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cubicalc" or name.startswith("cubicalc.")]
        wrapped_functions = {}
        for mod in modules:
            layer = LAYER_MODULES.get(mod.__name__)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in NOT_WRAPPED:
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif _defined_in(obj, mod.__name__):
                    wrapped_functions[id(obj)] = (
                        obj, self._wrapper(obj, layer, attr, always_span=True))
        # rebind every module attribute that refers to a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped_functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_class(self, cls, layer: str) -> None:
        from cubicalc.rings import Ring

        if issubclass(cls, Ring):
            layer = "rings"
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                cls.__name__ == "Poly" and attr in POLY_OPERATORS)
            name = f"{cls.__name__}.{attr}"
            if not public or name in NOT_WRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrapper(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                new = self._wrapper(raw, layer, name)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def _wrapper(self, fn, layer: str, name: str, always_span: bool = False):
        counts = self.counts
        span_name = f"{layer}.{name}"
        if layer in COUNT_ONLY_LAYERS:
            def counted(*args, **kwargs):
                counts[span_name] += 1
                return fn(*args, **kwargs)
            return counted

        hook = _HOOKS.get(name)
        spans, stack, layers = self.spans, self._stack, self._layers
        tracer = self

        def traced(*args, **kwargs):
            counts[span_name] += 1
            if not always_span and layers and layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                layers.append(layer)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    layers.pop()
                    spans[idx] = (span_name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, and the number of spans per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        entries: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            entries[name] += 1
        return {"self_s": self_s, "entries": entries}

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (without the
        tracing overhead, which the runner measures)."""
        st = self.self_times()
        c = self.counts

        def total(table, layer, names=None):
            prefix = layer + "."
            return sum(v for k, v in table.items() if k.startswith(prefix)
                       and (names is None or k[len(prefix):] in names))

        def s(layer, names=None):
            return total(st["self_s"], layer, names)

        constrained = c["presentation.constrained_satisfies"]
        map_evals = c["polymap.PolyMap.eval"]
        return {
            "polymap.eval_calls": total(st["entries"], "polymap", EVAL),
            "polymap.eval_s": s("polymap", EVAL),
            "polymap.evals_per_map": (map_evals / len(self.maps_evaluated)
                                      if self.maps_evaluated else 0.0),
            "polymap.subst_calls": c["polymap.Poly.subst"],
            "polymap.subst_s": s("polymap", SUBST),
            "polymap.mul_calls": c["polymap.Poly.__mul__"],
            "polymap.terms_out": c["polymap.terms_out"],
            "rings.calls": total(c, "rings"),
            "presentation.sample_s": s("presentation", SAMPLE),
            "presentation.satisfies_calls": c["presentation.CoordSchema.satisfies"],
            "presentation.accept_ratio": (c["presentation.accepted"] / constrained
                                          if constrained else 1.0),
            "presentation.attach_s": s("presentation", ATTACH),
            "checks.self_s": s("checks"),
            "checks.quad_param_s": s("checks", {"generic_quad_param"}),
            "checks.verdicts": c["checks.verdicts"],
            "checks.samples": c["checks.samples"],
            "checks.fail_verdicts": c["checks.fail_verdicts"],
            "constructions.build_s": s("constructions"),
            "twotyped.build_s": s("twotyped"),
            "slopes.full_slope_s": s("slopes", {"full_slope"}),
            "slopes.sym_iterated_s": s("slopes", {"sym_slope_iterated"}),
            "slopes.closed_s": s("slopes", {"sym_slope_closed"}),
            "derive.derive_polymap_calls": c["derive.derive_polymap"],
            "derive.derive_polymap_s": s("derive", {"derive_polymap"}),
            "laws.derive_s": s("laws", LAW_DERIVE),
            "laws.check_s": s("laws", LAW_CHECK),
            "laws.verdicts": c["laws.verdicts"],
            "extension.eval_s": s("extension", {"eval_over_extension"}),
            "parser.calls": c["parser.parse"],
            "parser.parse_s": s("parser", {"parse"}),
            "tables.render_s": s("tables"),
            "cli.self_s": s("cli"),
        }

    def layer_self_times(self) -> dict:
        """Self time and span count per layer, for the printed table."""
        st = self.self_times()
        out: dict = {}
        for name, v in st["self_s"].items():
            layer = name.split(".", 1)[0]
            t, k = out.get(layer, (0.0, 0))
            out[layer] = (t + v, k + st["entries"][name])
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _defined_in(obj, module_name: str) -> bool:
    """Plain functions and lru_cache wrappers defined in `module_name`."""
    fn = getattr(obj, "__wrapped__", obj)
    return isinstance(fn, types.FunctionType) and fn.__module__ == module_name


def _count_reports(prefix):
    def hook(tracer, args, reports):
        counts = tracer.counts
        counts[prefix + ".verdicts"] += len(reports)
        counts[prefix + ".samples"] += sum(r.samples for r in reports)
        counts[prefix + ".fail_verdicts"] += sum(not r.ok for r in reports)
    return hook


def _count_terms(tracer, args, poly):
    tracer.counts["polymap.terms_out"] += len(poly.terms)


def _note_map(tracer, args, values):
    tracer.maps_evaluated.setdefault(id(args[0]), args[0])


def _count_accepted(tracer, args, ok):
    # only schemas with constraints can reject a point
    if args[0].constraints:
        tracer.counts["presentation.constrained_satisfies"] += 1
        tracer.counts["presentation.accepted"] += bool(ok)


# Hooks on the arguments and result of a call, keyed by qualified name; they
# run on every call, so each is placed on functions that do not call one
# another.
_HOOKS = {
    **{name: _count_reports("checks") for name in CHECK_LEAVES},
    **{name: _count_reports("laws") for name in LAW_CHECK},
    "Poly.subst": _count_terms,
    "PolyMap.eval": _note_map,
    "CoordSchema.satisfies": _count_accepted,
}

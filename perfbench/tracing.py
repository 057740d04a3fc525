"""Spans around twoelem's module boundaries, recorded from outside.

`Tracer.install` replaces every binding of a public twoelem function -- in
the module that defines it and in each module that imports it -- with one
wrapper.  A call through the wrapper is a span when it crosses a module
boundary (the caller's module is not the callee's), or when the callee is
one of the layers named in LAYER_METRICS, which are spans wherever they are
called from: so theta_constant shows inside chi_g, and short_vectors inside
product_eval.  Other calls inside a module, private helpers (names starting
with `_`) and Q(zeta_8) arithmetic count toward the caller's self time; a
span per Cyc8 operation would time the tracer instead of the program.
Nothing in src/ changes.

A span is (name, start, end, parent index, task id).  Spans stay in memory
and are written out when the round ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from fractions import Fraction

# Per-layer metrics, as `<module>.<function>.<stat>`, with their units.
# Stats: calls (spans), self_s (span time not covered by child spans), and
# the counters made by the hooks below.
LAYER_METRICS = {
    "lattices.discriminant_group.calls": "count",
    "lattices.discriminant_group.self_s": "s",
    "lattices.characteristic_element.self_s": "s",
    "lattices.two_elementary_invariants.self_s": "s",
    "weil.disc_data.calls": "count",
    "weil.disc_data.self_s": "s",
    "weil.disc_data.builds": "count",
    "weil.disc_data.classes": "count",
    "vvmf.borcherds_weight.self_s": "s",
    "vvmf.borcherds_divisor.self_s": "s",
    "k3graph.build_graph.self_s": "s",
    "cli.main.self_s": "s",
    "modforms.f0.calls": "count",
    "modforms.f0.self_s": "s",
    "modforms.f0.max_order": "order",
    "modforms.f0.repeats": "count",
    "modforms.f1.self_s": "s",
    "modforms.g_i.self_s": "s",
    "series.qseries_eval.calls": "count",
    "series.qseries_eval.self_s": "s",
    "vvmf.construct_F.self_s": "s",
    "vvmf.lift_oracle_numeric.self_s": "s",
    "vvmf.eval_vvform.self_s": "s",
    "weil.weil_column.calls": "count",
    "weil.weil_column.self_s": "s",
    "mp2.word_j.self_s": "s",
    "mp2.mp2_word.self_s": "s",
    "mp2.evaluate_word.self_s": "s",
    "siegel.theta_constant.float.calls": "count",
    "siegel.theta_constant.float.self_s": "s",
    "siegel.theta_constant.mp.calls": "count",
    "siegel.theta_constant.mp.self_s": "s",
    "siegel.chi_g.self_s": "s",
    "siegel.chi_g8_petersson.self_s": "s",
    "siegel.vanishing_order_fit.self_s": "s",
    "borcherds.short_vectors.calls": "count",
    "borcherds.short_vectors.self_s": "s",
    "borcherds.short_vectors.found": "count",
    "borcherds.product_eval.calls": "count",
    "borcherds.product_eval.self_s": "s",
    "borcherds.separating_walls.self_s": "s",
}


# layers whose calls are spans even from inside their own module
NAMED_LAYERS = {m.rsplit(".", 1)[0] for m in LAYER_METRICS} | {"siegel.theta_constant"}


def _theta_name(args, kwargs):
    prec = args[2] if len(args) > 2 else kwargs.get("prec", 53)
    return "siegel.theta_constant." + ("float" if prec <= 53 else "mp")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, task id]
        self._stack = []
        self.task = None
        self.counters = dict.fromkeys(
            ["weil.disc_data.builds", "weil.disc_data.classes",
             "modforms.f0.max_order", "modforms.f0.repeats",
             "borcherds.short_vectors.found"], 0)
        self._grams = set()
        self._f0_keys = set()
        self._hooks = {
            "weil.disc_data": self._on_disc_data,
            "modforms.f0": self._on_f0,
            "borcherds.short_vectors": self._on_short_vectors,
        }

    # -- counters at the boundaries ------------------------------------------

    def _on_disc_data(self, args, kwargs, result):
        gram = args[0].gram
        if gram not in self._grams:
            self._grams.add(gram)
            self.counters["weil.disc_data.builds"] += 1
            self.counters["weil.disc_data.classes"] += len(result.elements)

    def _on_f0(self, args, kwargs, result):
        k = args[0] if args else kwargs["k"]
        order = Fraction(args[1] if len(args) > 1 else kwargs["order"])
        if (k, order) in self._f0_keys:
            self.counters["modforms.f0.repeats"] += 1
        self._f0_keys.add((k, order))
        self.counters["modforms.f0.max_order"] = max(
            self.counters["modforms.f0.max_order"], float(order))

    def _on_short_vectors(self, args, kwargs, result):
        self.counters["borcherds.short_vectors.found"] += len(result)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        namer = _theta_name if name == "siegel.theta_constant" else None
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        home, always = fn.__module__, name in NAMED_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of a public twoelem function (not cyc8)."""
        modules = [m for n, m in sys.modules.items()
                   if n == "twoelem" or n.startswith("twoelem.")]
        wrappers = {}
        for mod in modules:
            if mod.__name__ == "twoelem.cyc8":
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """Every LAYER_METRICS entry; 0 for layers the round never entered."""
        calls, self_s = {}, {}
        for name, start, end, parent, _task in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur
        out = {}
        for metric in LAYER_METRICS:
            layer, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            else:
                out[metric] = self.counters[metric]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")

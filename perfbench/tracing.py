"""Spans around szego's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of every szego module with
a timing wrapper, at every place szego binds it: `from .hankel import
eigendecompose` gives `flow`, `sampling`, `oracle`, ... their own name for
the function, and each of those names is replaced too.  `RationalFn.__mul__`
(the `*` operator) and `RationalFn.evaluate` are wrapped on the class.

A span is (name, start, end, parent) plus a size (the degree N, or the grid
size M of an oracle step).  Spans stay in flat arrays in memory until
the benchmark writes them out.  The layer of a function is the module that
defines it; a span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("rational", "hankel", "flow", "actionangle", "asymptotics", "oracle",
          "sampling", "cli")

# Size recorded with a span, for the per-size medians.
SIZE_OF = {
    "hankel.eigendecompose": lambda args: args[0].degree,
    "flow.recover_rational": lambda args: args[0].size,
    "actionangle.chi_inverse": lambda args: args[0].size,
    "oracle.step": lambda args: args[0].M,
}

NORMS = ("rational.l2_norm", "rational.h_half_norm", "rational.homogeneous_sobolev_norm")
DRAWS = ("sampling.random_generic", "sampling.random_strongly_generic",
         "sampling.random_coords")
FFT_POINTS_PER_M = 16    # RK4 step: 4 right-hand sides, each one inverse and one
                         # forward transform of length 2M


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn):
        nid = len(self.labels)
        self.labels.append(label)
        size_of = SIZE_OF.get(label)
        name, parent, size = self.name, self.parent, self.size
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            size.append(size_of(args) if size_of else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "szego" or n.startswith("szego."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        rational = sys.modules["szego.rational"]
        for attr, label in (("__mul__", "rational.mul"), ("evaluate", "rational.evaluate")):
            obj = rational.RationalFn.__dict__[attr]
            self._saved.append((rational.RationalFn, attr, obj))
            setattr(rational.RationalFn, attr, self._wrap(label, obj))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "labels": np.array(self.labels),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def per_layer(spans: dict[str, np.ndarray]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    labels = list(spans["labels"])
    name, parent, size = spans["name"], spans["parent"], spans["size"]
    dur = spans["end"] - spans["start"]
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    self_t = dur - child
    ids = {label: i for i, label in enumerate(labels)}

    def mask(*names):
        m = np.zeros(len(dur), dtype=bool)
        for n in names:
            if n in ids:
                m |= name == ids[n]
        return m

    def calls(*names):
        return float(np.count_nonzero(mask(*names)))

    def self_ms(*names):
        return float(np.sum(self_t[mask(*names)]) * 1e3)

    def layer_ms(layer):
        return self_ms(*[n for n in labels if n.startswith(layer + ".")])

    def p50_ms(n, k):
        sel = dur[mask(n) & (size == k)]
        return float(np.median(sel) * 1e3) if sel.size else 0.0

    def nested(child_name, ancestor):
        """Spans of child_name that run inside a span of ancestor."""
        if child_name not in ids or ancestor not in ids:
            return 0
        target, count = ids[ancestor], 0
        for i in np.flatnonzero(name == ids[child_name]):
            j = parent[i]
            while j >= 0 and name[j] != target:
                j = parent[j]
            count += j >= 0
        return count

    def ratio(a, b):
        return a / b if b else 0.0

    ms, cnt = "ms", "count"
    m: dict[str, tuple[float, str]] = {}
    m["rational.self_ms"] = (layer_ms("rational"), ms)
    for fn in ("inner_product", "hankel_apply", "mul"):
        m[f"rational.{fn}.calls"] = (calls(f"rational.{fn}"), cnt)
        m[f"rational.{fn}.self_ms"] = (self_ms(f"rational.{fn}"), ms)
    m["rational.blaschke.self_ms"] = (self_ms("rational.blaschke"), ms)
    m["rational.norms.self_ms"] = (self_ms(*NORMS), ms)
    m["rational.evaluate.calls"] = (calls("rational.evaluate"), cnt)
    m["rational.evaluate.self_ms"] = (self_ms("rational.evaluate"), ms)

    m["hankel.self_ms"] = (layer_ms("hankel"), ms)
    m["hankel.eigendecompose.calls"] = (calls("hankel.eigendecompose"), cnt)
    m["hankel.eigendecompose.self_ms"] = (self_ms("hankel.eigendecompose"), ms)
    for k in (1, 2, 4, 8):
        m[f"hankel.eigendecompose.p50_ms.n{k}"] = (p50_ms("hankel.eigendecompose", k), ms)
    m["hankel.build_range_basis.self_ms"] = (self_ms("hankel.build_range_basis"), ms)
    m["hankel.hankel_matrix.self_ms"] = (self_ms("hankel.hankel_matrix"), ms)
    m["hankel.t_matrix.calls"] = (calls("hankel.t_matrix"), cnt)
    m["hankel.t_matrix.self_ms"] = (self_ms("hankel.t_matrix"), ms)

    recovers = calls("flow.recover_rational")
    m["flow.self_ms"] = (layer_ms("flow"), ms)
    m["flow.recover_rational.calls"] = (recovers, cnt)
    m["flow.recover_rational.self_ms"] = (self_ms("flow.recover_rational"), ms)
    for k in (1, 2, 4, 8):
        m[f"flow.recover_rational.p50_ms.n{k}"] = (p50_ms("flow.recover_rational", k), ms)
    for fn in ("evolve_eval", "s_matrix"):
        m[f"flow.{fn}.calls"] = (calls(f"flow.{fn}"), cnt)
        m[f"flow.{fn}.self_ms"] = (self_ms(f"flow.{fn}"), ms)
    m["flow.fit_partial_fractions.calls"] = (calls("flow.fit_partial_fractions"), cnt)
    m["flow.evolve_eval_per_recover"] = (
        ratio(nested("flow.evolve_eval", "flow.recover_rational"), recovers), "ratio")

    m["actionangle.self_ms"] = (layer_ms("actionangle"), ms)
    m["actionangle.chi.calls"] = (calls("actionangle.chi"), cnt)
    m["actionangle.chi_inverse.calls"] = (calls("actionangle.chi_inverse"), cnt)
    m["actionangle.chi_inverse.self_ms"] = (self_ms("actionangle.chi_inverse"), ms)
    for k in (2, 4, 8):
        m[f"actionangle.chi_inverse.p50_ms.n{k}"] = (p50_ms("actionangle.chi_inverse", k), ms)

    m["asymptotics.self_ms"] = (layer_ms("asymptotics"), ms)
    m["asymptotics.remainder_norms.self_ms"] = (self_ms("asymptotics.remainder_norms"), ms)
    m["asymptotics.growth_fit.self_ms"] = (self_ms("asymptotics.growth_fit"), ms)

    steps = mask("oracle.step")
    m["oracle.self_ms"] = (layer_ms("oracle"), ms)
    m["oracle.step.calls"] = (float(np.count_nonzero(steps)), cnt)
    m["oracle.step.self_ms"] = (self_ms("oracle.step"), ms)
    for k in (4096, 16384):
        m[f"oracle.step.p50_ms.m{k}"] = (p50_ms("oracle.step", k), ms)
    m["oracle.sample_to_grid.self_ms"] = (self_ms("oracle.sample_to_grid"), ms)
    m["oracle.fft_points"] = (float(FFT_POINTS_PER_M * np.sum(size[steps])), "points")

    generic = calls("sampling.random_generic")
    m["sampling.self_ms"] = (layer_ms("sampling"), ms)
    m["sampling.draws"] = (calls(*DRAWS), cnt)
    m["sampling.symbols_drawn"] = (calls("sampling.random_symbol"), cnt)
    m["sampling.decompositions_per_draw"] = (
        ratio(nested("hankel.eigendecompose", "sampling.random_generic"), generic), "ratio")

    m["cli.main.calls"] = (calls("cli.main"), cnt)
    m["cli.main.self_ms"] = (self_ms("cli.main"), ms)
    return m

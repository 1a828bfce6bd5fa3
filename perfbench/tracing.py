"""Spans around calls into the locscape modules, recorded from outside the package.

``Tracer.install`` wraps every public function defined in a ``locscape`` module and rebinds
the wrapper in every ``locscape`` namespace that holds the function, because
``from .x import f`` copies the binding (``smallest_eigenpairs`` is bound in ``solver``,
``experiments``, ``bifurcation`` and ``cli``).  A span records its function, start, end and
parent span; spans are kept in compact arrays in memory and summarized after each traced
iteration.  A span's self time is its duration minus the durations of its direct children.
"""

import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# per-layer metric name -> the spans it sums (module.function of the defining module)
GROUPS = {
    "runstats.closed_form": ("runstats.boundary_localization_prob",
                             "runstats.multimodal_prob_dirichlet",
                             "runstats.multimodal_prob_neumann"),
    "bifurcation.characteristic": ("bifurcation.characteristic_left",
                                   "bifurcation.characteristic_right"),
}

def _public_functions(module):
    """(label, function) for each public function defined in ``module``."""
    short = module.__name__.removeprefix("locscape.")
    for name, obj in vars(module).items():
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{short}.{name}", obj


class Tracer:
    def __init__(self):
        self.labels = []            # span name per label id
        self.label = array("H")     # per span: label id, parent span (-1 at top), start, end
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.values = {}            # label id -> sizes observed on its calls (see _OBSERVERS)
        self.wrappers = None        # original function -> wrapper, built on first install
        self.bindings = []          # (namespace, attribute, original) while installed

    def _wrap(self, label_id, fn):
        label, parent, start, end, stack = self.label, self.parent, self.start, self.end, self.stack
        observe = _OBSERVERS.get(self.labels[label_id])
        values = self.values

        def span(*args, **kwargs):
            i = len(start)
            label.append(label_id)
            parent.append(stack[-1])
            start.append(perf_counter_ns())
            end.append(0)
            stack.append(i)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
                if observe is not None:
                    size = observe(args, kwargs, result)
                    if size is not None:
                        values.setdefault(label_id, []).append(size)

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def install(self):
        """Rebind every public locscape function to its span-recording wrapper."""
        modules = [m for name, m in sys.modules.items()
                   if name == "locscape" or name.startswith("locscape.")]
        if self.wrappers is None:
            self.wrappers = {}
            for module in modules:
                for label, fn in _public_functions(module):
                    if fn not in self.wrappers:
                        self.labels.append(label)
                        self.wrappers[fn] = self._wrap(len(self.labels) - 1, fn)
        for module in modules:
            ns = vars(module)
            for attr, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and obj in self.wrappers:
                    self.bindings.append((ns, attr, obj))
                    ns[attr] = self.wrappers[obj]

    def uninstall(self):
        for ns, attr, original in self.bindings:
            ns[attr] = original
        self.bindings = []

    def summarize(self) -> dict:
        """Per-layer metrics (``per_layer`` of BENCHMARK.json) of the recorded spans, plus
        ``sweep_solves``: the ring solves under each sweep span, in call order."""
        n = len(self.start)
        label = np.frombuffer(self.label, dtype=np.uint16, count=n).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n)) / 1e6
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        n_labels = len(self.labels)
        calls = np.bincount(label, minlength=n_labels)
        total = np.bincount(label, weights=dur, minlength=n_labels)
        own = np.bincount(label, weights=dur - child, minlength=n_labels)
        ids = {name: i for i, name in enumerate(self.labels)}

        def ids_of(name):
            return [ids[m] for m in GROUPS.get(name, (name,)) if m in ids]

        def stat(name, kind):
            sel = ids_of(name)
            if kind == "calls":
                return int(calls[sel].sum())
            if kind == "ms" and name in GROUPS:
                # count a grouped span only when its parent is outside the group
                in_group = np.isin(label, sel)
                top = in_group & ~(has_parent & np.isin(label[np.maximum(parent, 0)], sel))
                return float(dur[top].sum())
            return float((total if kind == "ms" else own)[sel].sum())

        out = {}
        for m in json.loads(BENCHMARK.read_text())["per_layer"]:
            name, _, kind = m["name"].rpartition(".")
            if kind in ("calls", "ms", "self_ms"):
                out[m["name"]] = stat(name, kind)
        assembled = [v for name in ("operator.assemble", "operator.assemble_ring")
                     for i in ids_of(name) for v in self.values.get(i, [])]
        out["operator.nodes_per_call"] = float(np.mean(assembled)) if assembled else 0.0
        out["solver.pairs_requested"] = int(sum(
            sum(self.values.get(i, [])) for i in ids_of("solver.smallest_eigenpairs")))
        out["experiments.failed_trials"] = int(sum(
            sum(self.values.get(i, [])) for i in ids_of("experiments.run_trial")))
        mc_ms = out["stochastic.estimate_landscape_mc.ms"]
        paths = sum(sum(self.values.get(i, [])) for i in ids_of("stochastic.estimate_landscape_mc"))
        out["stochastic.paths_per_s"] = paths / (mc_ms / 1e3) if mc_ms > 0 else 0.0
        # ring solves made directly under each sweep span, in call order
        sweeps = np.flatnonzero(np.isin(label, ids_of("bifurcation.critical_coupling_sweep")))
        eig = np.isin(label, ids_of("solver.smallest_eigenpairs")) & has_parent
        per_sweep = np.bincount(parent[eig], minlength=n)[sweeps]
        out["bifurcation.sweep_solves_per_call"] = (float(per_sweep.mean()) if len(sweeps)
                                                    else 0.0)
        out["sweep_solves"] = [int(v) for v in per_sweep]
        return out

    def write_spans(self, path):
        """Spans of the last traced iteration: label, parent, start and end (ns)."""
        n = len(self.start)
        np.savez(path, labels=np.array(self.labels),
                 label=np.frombuffer(self.label, dtype=np.uint16, count=n),
                 parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
                 start=np.frombuffer(self.start, dtype=np.int64, count=n),
                 end=np.frombuffer(self.end, dtype=np.int64, count=n))


# sizes read from a call's arguments or result (None when it raised), summed or averaged by
# ``summarize``
def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


_OBSERVERS = {
    "operator.assemble": lambda args, kwargs, op: op.size if op is not None else None,
    "operator.assemble_ring": lambda args, kwargs, op: op.size if op is not None else None,
    "solver.smallest_eigenpairs": lambda args, kwargs, _: _arg(args, kwargs, 1, "k"),
    "experiments.run_trial": lambda args, kwargs, rec: int(rec.failed) if rec is not None else None,
    "stochastic.estimate_landscape_mc": lambda args, kwargs, _: _arg(args, kwargs, 4, "cfg").n_paths,
}

"""In-memory span tracing of the package's layers, installed from outside.

``Tracer.install`` wraps each layer's public functions by patching module
(and class) attributes, in every ``trisqueeze`` module that holds a
reference, so in-module calls such as moments -> normal_order and
wigner_numeric -> char_fn are seen too.  Each call records a span
[layer, parent span id, start, end, invocation index, counts].  Nothing under
``src/`` changes; ``uninstall`` restores the original attributes.

Helpers shared by both quasiprobability paths (``wigner_aux``, ``laguerre``,
``suggest_half_width``) are not wrapped, so their time counts toward the
calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# layer -> (module, attributes); "Class.attr" names a method.  None means
# every public function defined in the module.
LAYERS = {
    "symplectic": ("trisqueeze.symplectic", None),
    "ladder.normal_order": ("trisqueeze.ladder", ["normal_order"]),
    "ladder.expectation": ("trisqueeze.ladder", ["expectation"]),
    "moments": ("trisqueeze.moments", None),
    "quasiprob.closed": ("trisqueeze.quasiprob", [
        "wigner_closed", "wigner_vacuum", "wigner_excited", "wigner_origin", "fock_limit_wigner"]),
    "quasiprob.numeric": ("trisqueeze.quasiprob", ["wigner_numeric", "char_fn"]),
    "fock_oracle.propagate": ("trisqueeze.fock_oracle", [
        "build_generator", "SqueezePropagator.__init__", "SqueezePropagator.apply", "apply_squeeze"]),
    "fock_oracle.contract": ("trisqueeze.fock_oracle", [
        "TruncatedState.from_input_state", "truncation_report", "oracle_expectation",
        "quadrature_stats", "reduced_density"]),
    "fock_oracle.wigner": ("trisqueeze.fock_oracle", ["oracle_wigner"]),
}
_NAME, _PARENT, _START, _END, _INVOCATION, _COUNTS = range(6)


def _count_terms(args, result):
    return {"terms": len(result)}


def _count_char_points(args, result):
    return {"char_points": int(np.size(args[2]))}


def _count_points(args, result):
    return {"points": 0 if result is None else int(np.size(result))}


def _count_propagator_bytes(args, result):
    matrix = getattr(args[0], "matrix", None)
    return {"bytes_computed": int(matrix.nbytes) if matrix is not None else 0}


# (layer, attribute) -> count hook.  Closed-form points are counted only on
# the layer's entry span, so nested closed-form calls are not counted twice.
COUNTERS = {
    ("ladder.normal_order", "normal_order"): _count_terms,
    ("quasiprob.numeric", "char_fn"): _count_char_points,
    ("fock_oracle.propagate", "SqueezePropagator.__init__"): _count_propagator_bytes,
}
ENTRY_COUNTERS = {"quasiprob.closed": _count_points}


class Tracer:
    def __init__(self):
        self.spans = []
        self.invocation = -1
        self._stack = []
        self._patches = []

    def wrap(self, layer, fn, count=None, entry_count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, parent, time.perf_counter(), 0.0, self.invocation, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[_COUNTS] = count(args, result)
            elif entry_count is not None and (parent < 0 or spans[parent][_NAME] != layer):
                span[_COUNTS] = entry_count(args, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "trisqueeze" or name.startswith("trisqueeze."))]
        for layer, (modname, attrs) in LAYERS.items():
            module = sys.modules[modname]
            if attrs is None:
                attrs = [name for name, obj in vars(module).items()
                         if inspect.isfunction(obj) and not name.startswith("_")
                         and obj.__module__ == modname]
            for attr in attrs:
                owner, name = module, attr
                if "." in attr:
                    cls, name = attr.split(".")
                    owner = getattr(module, cls)
                original = inspect.getattr_static(owner, name)
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                wrapped = self.wrap(layer, fn, COUNTERS.get((layer, attr)), ENTRY_COUNTERS.get(layer))
                self._patch(owner, name, original, classmethod(wrapped) if is_classmethod else wrapped)
                if owner is module:
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is original and other is not module:
                                self._patch(other, key, original, wrapped)

    def _patch(self, owner, name, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def to_json(self):
        return {"fields": ["layer", "parent", "start", "end", "invocation", "counts"],
                "spans": self.spans}


def layer_totals(spans, invocation_kind=None):
    """Per-layer calls, self time and counts; optionally split by invocation kind.

    A layer's calls are its entry spans (parent in another layer); its self
    time is each span's duration minus its direct children's durations.
    Returns {key: {"calls", "self_s", counts...}} with key the layer, or
    (kind, layer) when ``invocation_kind`` maps invocation index -> kind.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[_END] - span[_START]
    accepted = {}
    totals = {}
    for i, span in enumerate(spans):
        layer, parent = span[_NAME], span[_PARENT]
        key = layer if invocation_kind is None else (invocation_kind[span[_INVOCATION]], layer)
        entry = totals.setdefault(key, {"calls": 0, "self_s": 0.0})
        if parent < 0 or spans[parent][_NAME] != layer:
            entry["calls"] += 1
        entry["self_s"] += span[_END] - span[_START] - child_time[i]
        for name, value in (span[_COUNTS] or {}).items():
            entry[name] = entry.get(name, 0) + value
        if span[_COUNTS] and "char_points" in span[_COUNTS] and parent >= 0:
            accepted[parent] = span[_COUNTS]["char_points"]
    numeric = totals.get("quasiprob.numeric")
    if invocation_kind is None and numeric is not None:
        # wigner_numeric returns right after the char_fn call of the accepted refinement
        numeric["accepted_points"] = sum(accepted.values())
    return totals

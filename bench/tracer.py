"""Spans around the calls into mrpgen's layers, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules, in
every ``mrpgen`` namespace that holds it, with a wrapper that times the call.
Nothing under ``src/`` is changed.  A span records its name, layer, start,
end, the span that caused it and the operation id.  A function called more
than ``SPAN_CAP`` times in one operation (per segment, per block, per prime
candidate) is recorded from then on as an aggregate keyed by (name, parent
span): count, total and self time.  Self time is the call's duration minus
the time of the traced calls it made.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

LAYERS = ("cli", "xof", "keccak", "sampling", "formats", "primes", "analytics")
SPAN_CAP = 256


class Tracer:
    def __init__(self, op: str, root: str | None = None):
        self.op = op
        self.root = root if root is not None else op
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, str], list[float]] = {}
        self.calls: dict[str, list[float]] = {}   # name -> [count, total, self]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[list] = []                # [span id or None, child time]
        self._patches: list[tuple] = []
        self._ids = 0

    def _parent(self) -> str:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return self.root

    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            stats = self.calls.setdefault(name, [0, 0.0, 0.0])
            span_id = None
            if stats[0] < SPAN_CAP:
                self._ids += 1
                span_id = f"{self.op}.{self._ids}"
            parent = self._parent()
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                own = duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                self.layer_self[layer] += own
                if span_id is None:
                    agg = self.aggregates.setdefault((name, parent), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own
            if span_id is not None:
                span = {"id": span_id, "name": name, "layer": layer, "start": start,
                        "end": end, "self": own, "parent": parent, "op": self.op}
                if hasattr(result, "__len__"):
                    span["size"] = len(result)
                self.spans.append(span)
            return result

        return traced

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mrpgen.{layer}")
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mrpgen" and not mod_name.startswith("mrpgen."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span the wrappers cannot see, such as interpreter start-up."""
        self._ids += 1
        self.spans.append({"id": f"{self.op}.{self._ids}", "name": name, "layer": layer,
                           "start": start, "end": end, "self": end - start,
                           "parent": self.root, "op": self.op})
        self.layer_self[layer] += end - start

    def dump(self) -> dict:
        return {
            "op": self.op,
            "spans": self.spans,
            "aggregates": [{"name": n, "parent": p, "count": c, "total": t, "self": s}
                           for (n, p), (c, t, s) in self.aggregates.items()],
            "calls": {n: {"count": c, "total": t, "self": s}
                      for n, (c, t, s) in self.calls.items()},
            "layer_self": self.layer_self,
        }

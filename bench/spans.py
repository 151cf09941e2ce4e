"""In-memory spans around calls into gatenet's public functions.

A :class:`Tracer` replaces a function in the module namespace its callers
look it up in (``gatenet.packed.pack`` for ``circuit_scores``,
``gatenet.training.backward`` for ``train``) with a wrapper that records a
span: name, start, end, parent span and operation id. ``restore`` puts the
originals back. With ``memory=True`` the wrapper also records the
tracemalloc peak of each call above the memory held when it started; the
caller turns tracemalloc on, and only calls that do not nest inside one
another should be wrapped that way, since each resets the peak.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.alloc_peaks: dict[str, list[float]] = defaultdict(list)
        self.op = None  # operation id stamped on new spans
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, memory: bool = False) -> None:
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None,
                    "op": tracer.op}
            tracer.spans.append(span)
            tracer._stack.append(idx)
            if memory:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracer.alloc_peaks[name].append((peak - held) / 2**20)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def durations(self, name: str, ops) -> list[float]:
        """Durations in seconds of the spans called ``name`` in operations ``ops``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["op"] in ops]

    def self_times(self, name: str, ops) -> list[float]:
        """Duration minus the children's durations, per span called ``name`` in ``ops``."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[i] for i, s in enumerate(self.spans)
                if s["name"] == name and s["op"] in ops]

    def per_op_sum(self, names, ops) -> dict:
        """Total duration of spans with a name in ``names``, per operation id."""
        total = dict.fromkeys(ops, 0.0)
        for s in self.spans:
            if s["name"] in names and s["op"] in total:
                total[s["op"]] += s["end"] - s["start"]
        return total

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0

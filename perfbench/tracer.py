"""Spans around the public calls into each flagroots module.

`Tracer.install` replaces the public functions and methods it names, in
every flagroots namespace that holds them, by wrappers that record a
span (layer, start, end, parent, work).  Spans and garbage collections
are kept in flat arrays, which the collector does not track, and are
written out when the run ends.  Nothing in flagroots is edited.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import sys
import time
from array import array

# Inclusive time: the layer's outermost spans.
INCLUSIVE = ("rootsys.systems", "chevalley.constants", "chevalley.project",
             "flag.paint", "flag.table", "flag.space_to_dict", "equigeo.graph",
             "equigeo.family_to_dict", "equigeo.residual", "equigeo.all_metrics",
             "equigeo.structural", "fixtures.load", "cli.main")
# Self time: the span minus its child spans.
SELF = {"chevalley.bracket_ms": "chevalley.bracket",
        "equigeo.enumerate_ms": "equigeo.enumerate",
        "cli.self_ms": "cli.main"}
CALLS = ("chevalley.constants", "chevalley.bracket", "flag.space_to_dict",
         "equigeo.residual")
# Work counts, summed over the layer's spans.
WORK = {"chevalley.bracket_term_pairs": "chevalley.bracket",
        "equigeo.families": "equigeo.enumerate",
        "cli.bytes_out": "cli.main"}


def _terms(elem) -> int:
    return len(elem.a) + len(elem.b) + sum(1 for c in elem.cartan if c)


def _out_bytes(args, result) -> int:
    argv = list(args[0] or ()) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.work: array = array("q")
        self.gc_start: array = array("d")
        self.gc_end: array = array("d")
        self.gc_gen: array = array("i")
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------

    def wrap(self, layer: str, fn, work=None):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        stack, clock = self._stack, time.perf_counter
        arrays = (self.layer, self.parent, self.start, self.end, self.work)

        def traced(*args, **kwargs):
            idx = len(self.start)
            for arr, val in zip(arrays, (lid, stack[-1] if stack else -1, 0.0, 0.0, 0)):
                arr.append(val)
            stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                self.work[idx] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start.append(time.perf_counter())
            self.gc_gen.append(info["generation"])
        else:
            self.gc_end.append(time.perf_counter())

    def install(self) -> None:
        """Wrap the layer entry points of the loaded flagroots modules."""
        from flagroots import chevalley, cli, equigeo, fixtures, flag, rootsys

        namespaces = [m for name, m in sys.modules.items()
                      if name == "flagroots" or name.startswith("flagroots.")]

        def function(layer, orig, work=None):
            wrapped = self.wrap(layer, orig, work)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)

        def method(layer, cls, name, work=None):
            setattr(cls, name, self.wrap(layer, getattr(cls, name), work))

        function("rootsys.systems", rootsys.root_system)
        method("rootsys.systems", rootsys.RootSystem, "__init__")
        function("chevalley.constants", chevalley.build_constants)
        function("chevalley.bracket", chevalley.bracket,
                 lambda args, _: _terms(args[1]) * _terms(args[2]))
        function("chevalley.project", chevalley.project_m)
        function("flag.paint", flag.paint)
        decompose = self.wrap("flag.paint", flag.PaintedDiagram.isotropy_decomposition)
        undecorated = flag.PaintedDiagram.isotropy_decomposition

        def isotropy_decomposition(pd):
            # Only the first, uncached call does painting work.
            return (decompose if pd._modules is None else undecorated)(pd)

        flag.PaintedDiagram.isotropy_decomposition = isotropy_decomposition
        function("flag.table", flag.bracket_inclusion_table)
        method("flag.space_to_dict", flag.PaintedDiagram, "to_dict")
        function("equigeo.graph", equigeo.compatibility_graph)
        function("equigeo.enumerate", equigeo.enumerate_maximal_families,
                 lambda _, result: len(result.families))
        method("equigeo.family_to_dict", equigeo.StructuralFamily, "to_dict")
        function("equigeo.residual", equigeo.equigeodesic_residual)
        function("equigeo.all_metrics", equigeo.is_equigeodesic_all_metrics)
        function("equigeo.structural", equigeo.is_structural_family)
        function("fixtures.load", fixtures.load_fixture)
        function("cli.main", cli.main, _out_bytes)
        gc.callbacks.append(self._on_gc)

    # -- reporting ---------------------------------------------------

    def metrics(self, setup_end: float, windows: list[tuple[float, float]]) -> dict[str, float]:
        """Per-layer metrics: the set-up phase's amount plus the mean per job.

        Spans that start before setup_end belong to set-up; spans inside
        a job's window belong to that job; the rest (the benchmark's own
        work between jobs) is left out.
        """
        n_jobs = len(windows)
        starts = [w[0] for w in windows]

        def phase(t: float) -> str | None:
            if t < setup_end:
                return "setup"
            k = bisect.bisect_right(starts, t) - 1
            # Before the first job, or between jobs: the benchmark's own work.
            return "job" if k >= 0 and t <= windows[k][1] else None

        keys = ([f"{x}_ms" for x in INCLUSIVE] + list(SELF)
                + [f"{x}_calls" for x in CALLS] + list(WORK))
        sums = {p: dict.fromkeys(keys, 0.0) for p in ("setup", "job")}
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            ph = phase(self.start[i])
            if ph is None:
                continue
            layer = self.layers[self.layer[i]]
            dur_ms = (self.end[i] - self.start[i]) * 1e3
            acc = sums[ph]
            p = self.parent[i]
            while p >= 0 and self.layer[p] != self.layer[i]:
                p = self.parent[p]
            if p < 0 and layer in INCLUSIVE:
                acc[f"{layer}_ms"] += dur_ms
            for key, name in SELF.items():
                if name == layer:
                    acc[key] += dur_ms - child[i] * 1e3
            if f"{layer}_calls" in acc:
                acc[f"{layer}_calls"] += 1
            for key, name in WORK.items():
                if name == layer:
                    acc[key] += self.work[i]
        for p in sums.values():
            p["runtime.gc_ms"] = 0.0
            p["runtime.gc_gen2"] = 0.0
        for t0, t1, gen in zip(self.gc_start, self.gc_end, self.gc_gen):
            ph = phase(t0)
            if ph is not None:
                sums[ph]["runtime.gc_ms"] += (t1 - t0) * 1e3
                sums[ph]["runtime.gc_gen2"] += gen == 2
        return {k: sums["setup"][k] + sums["job"][k] / n_jobs for k in sums["job"]}

    def dump(self, path) -> None:
        doc = {"layers": self.layers,
               "spans": {"layer": self.layer.tolist(), "parent": self.parent.tolist(),
                         "start": self.start.tolist(), "end": self.end.tolist(),
                         "work": self.work.tolist()},
               "gc": {"start": self.gc_start.tolist(), "end": self.gc_end.tolist(),
                      "generation": self.gc_gen.tolist()}}
        with open(path, "w") as fh:
            json.dump(doc, fh)

"""In-memory spans around the library's public calls.

``Tracer.install`` wraps each listed function or method at every place the
``wonder`` modules hold a reference to it (e.g. ``wonder.algebra.rank_rows``
as well as ``wonder.exact_linalg.rank_rows``).  Each call then records one
span: name, start, end and the enclosing span.  Spans are kept in flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# span name -> where the wrapped callable lives ("module:attr" or
# "module:Class.method"); the first that exists is used, so the kernel stays
# traced once it moves into exact_linalg (ROADMAP item 2).  A target that no
# longer exists is listed as unwrapped and its metrics read 0.  The layer of
# a span is the part of its name before the first dot.
TARGETS = {
    "models.keel_model": ["wonder.models:keel_model"],
    "models.fm_power": ["wonder.models:fm_power"],
    "models.synthetic_gorenstein": ["wonder.models:synthetic_gorenstein"],
    "models.synthetic_broken": ["wonder.models:synthetic_broken"],
    "io.dump_diagram": ["wonder.io:dump_diagram"],
    "io.load_diagram": ["wonder.io:load_diagram"],
    "io.dump_ring": ["wonder.io:dump_ring"],
    "io.load_ring": ["wonder.io:load_ring"],
    "diagram.validate": ["wonder.diagram:BurrowDiagram.validate"],
    "nests.li_decomposition": ["wonder.nests:li_decomposition"],
    "engine.init": ["wonder.engine:WonderRing.__init__"],
    "engine.build_all_products": ["wonder.engine:WonderRing.build_all_products"],
    "engine.as_algebra": ["wonder.engine:WonderRing.as_algebra"],
    "engine.basis_product": ["wonder.engine:WonderRing.basis_product"],
    "engine.rewrite_rule": ["wonder.engine:WonderRing.rewrite_rule"],
    "engine.presentation_report": ["wonder.engine:presentation_report"],
    "algebra.socle_check": ["wonder.algebra:socle_check"],
    "algebra.pd_verdict": ["wonder.algebra:pd_verdict"],
    "algebra.is_ring_hom": ["wonder.algebra:GradedMap.is_ring_hom"],
    "algebra.projection_formula_holds": ["wonder.algebra:projection_formula_holds"],
    "algebra.compose": ["wonder.algebra:compose"],
    "algebra.multiply": ["wonder.algebra:GradedAlgebra.multiply"],
    "duality.pd_equivalence_report": ["wonder.duality:pd_equivalence_report"],
    "duality.discrepancy_table": ["wonder.duality:discrepancy_table"],
    "duality.block_structure_check": ["wonder.duality:block_structure_check"],
    "exact_linalg.rank_rows": ["wonder.exact_linalg:rank_rows"],
    "exact_linalg.nullspace_rows": ["wonder.exact_linalg:nullspace_rows"],
    "exact_linalg.solve_rows": ["wonder.exact_linalg:solve_rows"],
    "kernels.bareiss_echelon": [
        "wonder.kernels:bareiss_echelon",
        "wonder.exact_linalg:bareiss_echelon",
    ],
    "oracle.run_oracle": ["wonder.oracle:run_oracle"],
    "oracle.compare_with_oracle": ["wonder.oracle:compare_with_oracle"],
}

NAME_TOP = 1  # no enclosing span has the same name
LAYER_TOP = 2  # no enclosing span is in the same layer


def _resolve(spec):
    module_name, _, path = spec.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None
    return owner, path.split(".")[-1], obj


class Tracer:
    """Span recorder; spans are appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.flags = array("b")
        self.start = array("d")
        self.end = array("d")
        self.missing: list[str] = []
        self.on_call: dict[str, object] = {}
        self._stack: list[int] = []
        self._name_active: list[int] = []
        self._layer_active: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
            self._name_active.append(0)
            self._layer_active.setdefault(self.layers[-1], 0)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        layer = self.layers[nid]
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.flags.append(
            (NAME_TOP if not self._name_active[nid] else 0)
            | (LAYER_TOP if not self._layer_active[layer] else 0)
        )
        self._name_active[nid] += 1
        self._layer_active[layer] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._name_active[nid] -= 1
        self._layer_active[self.layers[nid]] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self.on_call.get(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, nid)

        return wrapper

    def install(self):
        """Wrap every target at every reference held by a loaded ``wonder``
        module; returns a function that restores the originals."""
        undo = []
        modules = [
            m for n, m in sys.modules.items() if n == "wonder" or n.startswith("wonder.")
        ]
        for name, specs in TARGETS.items():
            found = next((r for r in map(_resolve, specs) if r is not None), None)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

        def restore():
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

        return restore

    # -- summaries -------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def clear(self):
        """Drop the recorded spans; call only when no span is open."""
        for col in (self.name_of, self.parent, self.flags, self.start, self.end):
            del col[:]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds of the outermost calls;
        per layer: inclusive seconds of the outermost calls and self seconds
        (duration minus the time covered by child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name = {name: {"calls": 0, "s": 0.0} for name in self.names}
        by_layer = {layer: {"s": 0.0, "self_s": 0.0} for layer in self.layers}
        for i in range(n):
            nid = self.name_of[i]
            entry = by_name[self.names[nid]]
            entry["calls"] += 1
            layer = by_layer[self.layers[nid]]
            layer["self_s"] += dur[i] - child[i]
            if self.flags[i] & NAME_TOP:
                entry["s"] += dur[i]
            if self.flags[i] & LAYER_TOP:
                layer["s"] += dur[i]
        return {"spans": n, "names": by_name, "layers": by_layer}

    def write(self, json_path, spans_path, extra: dict):
        """Write the summary as JSON and the spans as packed columns:
        int32 name, int32 parent, float64 start, float64 end."""
        with open(spans_path, "wb") as fh:
            for col in (self.name_of, self.parent, self.start, self.end):
                col.tofile(fh)
        payload = {
            "span_names": self.names,
            "span_columns": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "span_count": len(self.start),
            "unwrapped": self.missing,
            **extra,
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def merge_summaries(summaries) -> dict:
    """Field-by-field sum of ``Tracer.summary`` results."""
    out = {"spans": 0, "names": {}, "layers": {}}
    for summary in summaries:
        out["spans"] += summary["spans"]
        for group in ("names", "layers"):
            for key, fields in summary[group].items():
                entry = out[group].setdefault(key, dict.fromkeys(fields, 0))
                for field, value in fields.items():
                    entry[field] += value
    return out

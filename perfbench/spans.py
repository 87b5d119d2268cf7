"""Span wrappers for the traced run, installed from outside the package.

``install`` replaces each public function listed in ``TARGETS`` by a
wrapper that times it, and rebinds every alias of it in every loaded
``anticollapse`` module (``hypertrees`` imports ``core_erosion`` by name, the
package re-exports most names, and the function ``anticollapse.homology``
shadows the submodule, so modules are fetched through ``importlib`` and
``sys.modules``).
Three class methods are wrapped on their class.  The package source is not
edited.

Self time is a span's duration minus the time covered by its child spans.
Spans are kept in memory and written out by the caller at the end.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (label, module, attribute); a dotted attribute is a method of a class.
TARGETS = [
    ("complexes.facets", "complexes", "SimplicialComplex.facets"),
    ("complexes.digest", "complexes", "digest"),
    ("complexes.from_facets", "complexes", "from_facets"),
    ("complexes.parse_facet_text", "complexes", "parse_facet_text"),
    ("collapse.free_faces", "collapse", "free_faces"),
    ("collapse.core_erosion", "collapse", "core_erosion"),
    ("collapse.search_collapse", "collapse", "search_collapse"),
    ("collapse.replay", "collapse", "replay"),
    ("collapse.Certificate.from_json", "collapse", "Certificate.from_json"),
    ("duality.alexander_dual", "duality", "alexander_dual"),
    ("duality.dual_certificate", "duality", "dual_certificate"),
    ("duality.is_anticollapsible", "duality", "is_anticollapsible"),
    ("duality.check_alexander_duality", "duality", "check_alexander_duality"),
    ("homology.homology", "homology", "homology"),
    ("homology.smith_invariant_factors", "homology", "smith_invariant_factors"),
    ("homology.boundary_matrix", "homology", "boundary_matrix"),
    ("homology.field_betti", "homology", "field_betti"),
    ("homology.IncrementalRank.add", "homology", "IncrementalRank.add"),
    ("hypertrees.kruskal_generate", "hypertrees", "kruskal_generate"),
    ("hypertrees.spanning_torsion_order", "hypertrees", "spanning_torsion_order"),
    ("hypertrees.is_hypertree", "hypertrees", "is_hypertree"),
    ("constructions.theorem2_construct", "constructions", "theorem2_construct"),
    ("constructions.load_base_case", "constructions", "load_base_case"),
    ("constructions.catalog", "constructions", "catalog"),
    ("constructions.double_cone", "constructions", "double_cone"),
    ("constructions.stacking_move", "constructions", "stacking_move"),
    ("cli.main", "cli", "main"),
]

LABELS = [label for label, _, _ in TARGETS]
LAYERS = ["complexes", "homology", "collapse", "duality", "hypertrees", "constructions", "cli"]

# Called too often to keep one span per call; only its totals are kept.
AGGREGATE_ONLY = {"homology.IncrementalRank.add"}

# Outcome counters, each updated from a traced call's arguments and result.
COUNTERS = [
    "collapse.replay.steps",
    "collapse.search_collapse.found",
    "duality.is_anticollapsible.found",
    "collapse.core_erosion.stuck",
]


def _replay_steps(args, kwargs, result):
    cert = args[1] if len(args) > 1 else kwargs["cert"]
    return "collapse.replay.steps", len(cert.steps)


HOOKS = {
    "collapse.replay": _replay_steps,
    "collapse.search_collapse": lambda a, k, r: ("collapse.search_collapse.found", r is not None),
    "duality.is_anticollapsible": lambda a, k, r: ("duality.is_anticollapsible.found", r is not None),
    "collapse.core_erosion": lambda a, k, r: ("collapse.core_erosion.stuck", not r[1]),
}


class Tracer:
    """Per-function call counts and self times, outcome counters and spans."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # finished spans: (span id, parent span id, label, start, end, op id)
        self.spans: list[tuple] = []
        self.op = -1  # spans of one benchmark operation share this id
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0

    def wrap(self, label: str, fn):
        record = label not in AGGREGATE_ONLY
        hook = HOOKS.get(label)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            stack.append([sid, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - child
                if record:
                    parent = stack[-1][0] if stack else -1
                    self.spans.append((sid, parent, label, start, end, self.op))
            if hook is not None:
                name, amount = hook(args, kwargs, result)
                self.counts[name] += int(amount)
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"anticollapse.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "anticollapse" or name.startswith("anticollapse.")]
        for label, modname, attr in TARGETS:
            module = sys.modules[f"anticollapse.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(owner, meth, staticmethod(self.wrap(label, raw.__func__)))
                else:
                    setattr(owner, meth, self.wrap(label, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """A copy of the totals so far; later calls do not change it."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": len(self.spans)}

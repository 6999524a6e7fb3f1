"""Spans around fibrephi's public functions, for the benchmark's per-layer numbers.

``Tracer.install`` wraps ``Ideal.groebner_basis`` on the class and each traced
function in every module namespace that holds it by name, so calls made
through ``from .groebner import saturation`` are seen as well as calls inside
the defining module.  Each call records a span: name, start, end, parent span,
request id and, for some functions, a note taken from the call and its result.  Spans
stay in memory; ``Tracer.dump`` writes them out once the run is over.

``poly``, ``orders`` and ``parser`` internals have no boundary coarse enough to
wrap; their cost shows up in the self time of the spans that call them.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

from fibrephi import cli, geometry, groebner, invariant, parser
from fibrephi.groebner import Ideal

NAMESPACES = (groebner, geometry, invariant, parser, cli)

BASIS = "groebner.Ideal.groebner_basis"


def _basis_note(bound: inspect.BoundArguments, result) -> tuple:
    # the input as (ring, generator set, order), and the basis size
    ideal = bound.arguments["self"]
    key = (ideal.ring, frozenset(ideal.generators), bound.arguments["order"])
    return key, len(result)


def _length(bound: inspect.BoundArguments, result) -> int:
    return len(result)


# span name -> (defining module, attribute, note taken from the call)
TRACED = {
    "cli.load_setup": (cli, "load_setup", None),
    "parser.parse_polynomial": (parser, "parse_polynomial", None),
    "parser.parse_polynomial_list": (parser, "parse_polynomial_list", None),
    "geometry.make_setup": (geometry, "make_setup", None),
    "geometry.stratify_by_fibre_dimension": (geometry, "stratify_by_fibre_dimension", None),
    "geometry.sample_cell_points": (geometry, "sample_cell_points", None),
    "geometry.fibre_at_point": (geometry, "fibre_at_point", None),
    "geometry.pure_dimension_check": (geometry, "pure_dimension_check", None),
    "geometry.has_vertical_component": (geometry, "has_vertical_component", None),
    "geometry.split_components": (geometry, "split_components", _length),
    "invariant.phi_by_fibred_powers": (invariant, "phi_by_fibred_powers", _length),
    "invariant.certify_multiplicity_query": (invariant, "certify_multiplicity_query", None),
    "invariant.multiplicity_bound": (invariant, "multiplicity_bound", None),
    "groebner.saturation": (groebner, "saturation", None),
    "groebner.radical_member": (groebner, "radical_member", None),
    "groebner.elimination_ideal": (groebner, "elimination_ideal", None),
    "groebner.krull_dimension": (groebner, "krull_dimension", None),
    "groebner.ideal_intersection": (groebner, "ideal_intersection", None),
}

# layer metric prefix -> the spans that make up the layer
LAYERS = {
    "cli.load_setup": ("cli.load_setup",),
    "parser.parse": ("parser.parse_polynomial", "parser.parse_polynomial_list"),
    "geometry.make_setup": ("geometry.make_setup",),
    "geometry.stratify": ("geometry.stratify_by_fibre_dimension",),
    "geometry.oracle": ("geometry.sample_cell_points", "geometry.fibre_at_point"),
    "geometry.purity": ("geometry.pure_dimension_check",),
    "geometry.vertical": ("geometry.has_vertical_component",),
    "geometry.split": ("geometry.split_components",),
    "invariant.fibred_powers": ("invariant.phi_by_fibred_powers",),
    "invariant.multiplicity": (
        "invariant.certify_multiplicity_query",
        "invariant.multiplicity_bound",
    ),
    "groebner.basis": (BASIS,),
    "groebner.saturation": ("groebner.saturation",),
    "groebner.radical_member": ("groebner.radical_member",),
    "groebner.elimination": ("groebner.elimination_ideal",),
    "groebner.krull_dimension": ("groebner.krull_dimension",),
    "groebner.intersection": ("groebner.ideal_intersection",),
}

class Tracer:
    """Records spans while installed; one tracer serves one benchmark run."""

    def __init__(self):
        # each span: [name, start, end, parent index, request id, note]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = -1

    def _wrap(self, name, original, note):
        signature = inspect.signature(original)
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = note(bound, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function; calls made until ``uninstall`` record spans."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch(Ideal, "groebner_basis", self._wrap(BASIS, Ideal.groebner_basis, _basis_note))
        for name, (home, attr, note) in TRACED.items():
            function = getattr(home, attr)
            wrapper = self._wrap(name, function, note)
            for module in NAMESPACES:
                if getattr(module, attr, None) is function:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, request, _ in self.spans:
                out.write(json.dumps([name, start, end, parent, request]) + "\n")


def layer_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer busy times and counts of one pass, from its spans.

    ``spans`` are the pass's spans and ``first`` the index of the first of
    them in the run's span list, which parent indices refer to.

    A layer's busy time is the time covered by its outermost spans, so nested
    calls of the same layer are not counted twice.  Self time is a span's
    duration minus the time its direct children cover.
    """
    layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    children_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        layer = layer_of[name]
        calls[layer] += 1
        p = parent - first
        if 0 <= p < len(spans):
            children_time[p] += end - start
        outermost = True
        while 0 <= p < len(spans):
            if layer_of[spans[p][0]] == layer:
                outermost = False
                break
            p = spans[p][3] - first
        if outermost:
            busy[layer] += end - start

    basis = [(i, s) for i, s in enumerate(spans) if s[0] == BASIS]
    seen: set = set()
    repeat_s = self_s = 0.0
    max_elements = 0
    for i, (_, start, end, _, request, (key, elements)) in basis:
        duration = end - start
        if (request, key) in seen:
            repeat_s += duration
        seen.add((request, key))
        self_s += duration - children_time[i]
        max_elements = max(max_elements, elements)

    splits = [s[5] for s in spans if s[0] == "geometry.split_components"]
    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    metrics.update(
        {
            "geometry.oracle.points": sum(s[0] == "geometry.fibre_at_point" for s in spans),
            "geometry.split.useful_ratio": (
                sum(pieces > 1 for pieces in splits) / len(splits) if splits else 0.0
            ),
            "invariant.fibred_powers.powers_checked": sum(
                s[5] for s in spans if s[0] == "invariant.phi_by_fibred_powers"
            ),
            "groebner.basis.distinct_inputs": len(seen),
            "groebner.basis.repeat_s": repeat_s,
            "groebner.basis.self_s": self_s,
            "groebner.basis.max_elements": max_elements,
        }
    )
    return metrics


"""Outside tracer: spans around the public functions of the `multmon` layers.

The tracer lives entirely in the benchmark.  `install` replaces each traced
function with a wrapper in every `multmon` module that binds it (a function
imported by name, such as `codim`, is bound in several modules, and patching
only its home module would miss most calls); `uninstall` puts the originals
back.  Spans are kept in memory as `[name, start, end, parent, input]` and
turned into per-layer metrics (calls, self time, work counters) at the end.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter
from types import ModuleType
from typing import Callable

# Layer module -> traced functions.  `generate` and `errors` are not layers.
TRACED = {
    "parsing": ("parse_ideal_detailed",),
    "core": ("minimalize",),
    "invariants": ("codim", "classify", "dominance_witnesses", "is_almost_complete_intersection"),
    "formulas": (
        "find_ci_split",
        "detect_stem",
        "e_structural",
        "e_codim1",
        "e_complete_intersection",
        "e_stem",
        "e_quadratic_dominant",
        "e_aci",
    ),
    "taylor": ("lcm_degree_table", "multiplicity_ps", "taylor_resolution", "betti_table"),
    "oracle": ("minimal_covers", "colength"),
    "decomposition": ("multiplicity_recurrence",),
    "cli": ("main",),
}

# The closed forms other than the structural sum are reported as one sum.
CLOSED_FORMS = ("e_codim1", "e_complete_intersection", "e_stem", "e_quadratic_dominant", "e_aci")

# What a span keeps of its call for the work counters; references only, so
# the counters cost nothing inside the traced interval.
NOTES: dict[str, Callable] = {
    "taylor.lcm_degree_table": lambda args, result: args[0].q,
    "taylor.taylor_resolution": lambda args, result: args[0].q,
    "oracle.minimal_covers": lambda args, result: (args[0], len(result), len(result[0]) if result else 0),
    "oracle.colength": lambda args, result: (args[0], args[1], result),
}

NAME, START, END, PARENT, INPUT, NOTE = range(6)

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "taylor.lcm_degree_table.calls": "count",
    "taylor.lcm_degree_table.self_s": "s",
    "taylor.multiplicity_ps.calls": "count",
    "taylor.multiplicity_ps.self_s": "s",
    "taylor.faces": "count",
    "taylor.taylor_resolution.calls": "count",
    "taylor.taylor_resolution.self_s": "s",
    "taylor.betti_table.self_s": "s",
    "core.minimalize.calls": "count",
    "core.minimalize.self_s": "s",
    "oracle.colength.calls": "count",
    "oracle.colength.self_s": "s",
    "oracle.grid_points": "count",
    "oracle.colength_yield": "ratio",
    "oracle.minimal_covers.calls": "count",
    "oracle.minimal_covers.self_s": "s",
    "oracle.cover_candidates": "count",
    "oracle.covers": "count",
    "oracle.cover_yield": "ratio",
    "invariants.codim.calls": "count",
    "invariants.codim.self_s": "s",
    "invariants.codim.calls_per_ideal": "calls/ideal",
    "invariants.classify.self_s": "s",
    "invariants.dominance_witnesses.calls": "count",
    "invariants.dominance_witnesses.self_s": "s",
    "invariants.is_almost_complete_intersection.self_s": "s",
    "formulas.find_ci_split.calls": "count",
    "formulas.find_ci_split.self_s": "s",
    "formulas.detect_stem.calls": "count",
    "formulas.detect_stem.self_s": "s",
    "formulas.e_structural.self_s": "s",
    "formulas.closed_forms.self_s": "s",
    "decomposition.multiplicity_recurrence.calls": "count",
    "decomposition.multiplicity_recurrence.self_s": "s",
    "parsing.parse_ideal_detailed.calls": "count",
    "parsing.parse_ideal_detailed.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "bench.trace_overhead_frac": "ratio",
}


def _package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "multmon" or name.startswith("multmon.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.input_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    def install(self) -> None:
        """Wrap every traced function wherever a `multmon` module binds it."""
        modules = _package_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"multmon.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "parent": span[PARENT],
                            "input": span[INPUT],
                        }
                    )
                    + "\n"
                )

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Function -> (calls, self seconds); self = span minus its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, tuple[int, float]] = {}
        for span, inner in zip(self.spans, child):
            calls, total = out.get(span[NAME], (0, 0.0))
            out[span[NAME]] = (calls + 1, total + span[END] - span[START] - inner)
        return out


def grid_points(ideal, cover) -> int:
    """Points of the oracle's colength grid for one cover.

    Computed here from the ideal, as the oracle defines it: the generators
    restricted to the cover variables, inclusion-minimal ones kept, and the
    largest exponent of each cover variable among them as that side's length.
    """
    cov = sorted(cover)
    vectors = sorted({tuple(g.exponent(v) for v in cov) for g in ideal.gens}, key=sum)
    kept: list[tuple[int, ...]] = []
    for vec in vectors:
        if not any(all(w <= x for w, x in zip(prev, vec)) for prev in kept):
            kept.append(vec)
    return math.prod(max(vec[p] for vec in kept) for p in range(len(cov)))


def layer_metrics(tracer: Tracer, ideals: int, output_bytes: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric of `LAYER_METRICS` from one traced pass."""
    times = tracer.self_times()

    def calls(fn: str) -> int:
        return times.get(fn, (0, 0.0))[0]

    def self_s(fn: str) -> float:
        return times.get(fn, (0, 0.0))[1]

    faces = candidates = covers = grid = colengths = 0
    for span in tracer.spans:
        note = span[NOTE]
        if note is None:
            continue
        if span[NAME] in ("taylor.lcm_degree_table", "taylor.taylor_resolution"):
            faces += 1 << note
        elif span[NAME] == "oracle.minimal_covers":
            ideal, found, size = note
            candidates += math.comb(len(ideal.used_variables()), size)
            covers += found
        else:
            ideal, cover, count = note
            grid += grid_points(ideal, cover)
            colengths += count

    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls(fn)
        elif kind == "self_s" and fn != "formulas.closed_forms":
            values[metric] = self_s(fn)
    values.update(
        {
            "taylor.faces": faces,
            "oracle.grid_points": grid,
            "oracle.colength_yield": colengths / grid if grid else 0.0,
            "oracle.cover_candidates": candidates,
            "oracle.covers": covers,
            "oracle.cover_yield": covers / candidates if candidates else 0.0,
            "invariants.codim.calls_per_ideal": calls("invariants.codim") / ideals if ideals else 0.0,
            "formulas.closed_forms.self_s": sum(self_s(f"formulas.{f}") for f in CLOSED_FORMS),
            "cli.output_bytes": output_bytes,
            "bench.trace_overhead_frac": overhead,
        }
    )
    return {name: values[name] for name in LAYER_METRICS}

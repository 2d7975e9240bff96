"""Spans and counters recorded at layer boundaries, from the benchmark's side.

The tracer wraps public functions where the library looks them up (a module
attribute), records one span per call, and keeps everything in memory until
the run writes it out. Nothing inside the library is changed; uninstalling
puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter


def _lp_info(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {
        "width": int(problem.a_eq.shape[1]),
        "pivots": int(result.iterations),
        "feasible": bool(result.feasible),
    }


def _file_info(args, kwargs, result):
    """Size of the file read or just written."""
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _factorize_info(args, kwargs, result):
    return factorization_info(result)


# (module, attribute, span name, recorder of call details)
WRAPPED = (
    # Hull LPs: is_extreme_point looks phase_one_feasible up in its own module.
    ("latticenmf.simplex", "phase_one_feasible", "simplex.hull_lp", _lp_info),
    # Expansion LPs: expand_in_vertices imported its own binding.
    ("latticenmf.lattice", "phase_one_feasible", "simplex.expansion_lp", _lp_info),
    ("latticenmf.factorize", "segment_vertices", "polytope.segment_vertices", None),
    ("latticenmf.cli", "read_matrix", "matio.read_matrix", _file_info),
    ("latticenmf.cli", "write_matrix", "matio.write_matrix", _file_info),
    ("latticenmf.cli", "factorize", "cli.factorize", _factorize_info),
)


def factorization_info(result) -> dict:
    """What the per-layer metrics need from a ``Factorization``."""
    return {
        "timings": dict(result.timings_ms),
        "r": result.r,
        "d": result.p,
        "mu": result.mu,
        "m": len(result.mask.kept_columns),
    }


class Tracer:
    """In-memory spans ``[name, start, end, parent, call_id, info]``.

    ``parent`` is the index of the enclosing span (None for a root);
    ``call_id`` numbers the benchmark call a span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.call_id = 0
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None,
                  self.call_id, info or {}]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` that still exists. A missing
        one is listed in ``absent`` and its layer reads as not exercised."""
        self.absent = []
        for module_name, attr, name, recorder in WRAPPED:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, recorder))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, recorder):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if recorder is not None:
                    record[5] = recorder(args, kwargs, result)
                return result

        return traced

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "call": call_id, **info,
                }) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ms(span) -> float:
    return (span[2] - span[1]) * 1000.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of whole traced passes.

    Times are means per call in ms; counts are totals divided by the number
    of calls, so they repeat exactly for the same inputs.
    """
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    roots = [s for s in spans if s[3] is None]
    calls = len(roots)

    def per_call(total) -> float:
        return total / calls if calls else 0.0

    # Each factorize run: its wall span and its Factorization details. Runs
    # by the command line are the cli.factorize spans; direct calls are roots.
    runs = [s for s in spans if s[0] in ("factorize", "cli.factorize") and "timings" in s[5]]

    def stage(name) -> float:
        return _mean(s[5]["timings"].get(name, 0.0) for s in runs)

    hull_lps = by_name.get("simplex.hull_lp", [])
    expansion_lps = by_name.get("simplex.expansion_lp", [])
    lps = hull_lps + expansion_lps
    expanded = [s for s in runs if "expansion" in s[5]["timings"]]
    interior = sum(s[5]["mu"] - s[5]["d"] for s in expanded)
    total_d = sum(s[5]["d"] for s in runs)
    reads = by_name.get("matio.read_matrix", [])
    writes = by_name.get("matio.write_matrix", [])
    # Self time of cli.run: its wall minus its read, factorize and write spans.
    io_and_factorize = {"matio.read_matrix", "matio.write_matrix", "cli.factorize"}
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span[0] in io_and_factorize and span[3] is not None:
            child_ms[span[3]] += _ms(span)
    cli_other = [_ms(s) - child_ms[i] for i, s in enumerate(spans) if s[0] == "cli.run"]
    cli_factorize = by_name.get("cli.factorize", [])

    return {
        "factorize.call_ms": _mean(_ms(s) for s in runs),
        "factorize.strip_ms": stage("strip"),
        "factorize.assemble_ms": stage("assemble"),
        "factorize.other_ms": _mean(_ms(s) - sum(s[5]["timings"].values()) for s in runs),
        "basic.basic_set_ms": stage("basic_set"),
        "basic.basic_function_ms": stage("basic_function"),
        "basic.distinct_values_ms": stage("distinct_values"),
        "basic.mu": _mean(s[5]["mu"] for s in runs),
        "basic.merge_frac": _mean(1.0 - s[5]["mu"] / s[5]["m"] for s in runs),
        "polytope.vertices_ms": stage("vertices"),
        "polytope.reorder_ms": stage("reorder"),
        "polytope.d": _mean(s[5]["d"] for s in runs),
        "polytope.lp_per_vertex": len(hull_lps) / total_d if total_d else 0.0,
        "polytope.segment_calls": per_call(len(by_name.get("polytope.segment_vertices", []))),
        "simplex.calls": per_call(len(lps)),
        "simplex.busy_ms": per_call(sum(_ms(s) for s in lps)),
        "simplex.pivots_total": per_call(sum(s[5]["pivots"] for s in lps)),
        "simplex.pivots_max": max((s[5]["pivots"] for s in lps), default=0),
        "simplex.width_mean": _mean(s[5]["width"] for s in lps),
        "simplex.feasible_frac": _mean(s[5]["feasible"] for s in lps),
        "lattice.expansion_ms": stage("expansion"),
        "lattice.expansion_lp_calls": per_call(len(expansion_lps)),
        "lattice.lp_per_distinct_interior": len(expansion_lps) / interior if interior else 0.0,
        "lattice.basis_ms": stage("basis"),
        "lattice.nodes_ms": stage("nodes"),
        "matio.read_ms": per_call(sum(_ms(s) for s in reads)),
        "matio.write_ms": per_call(sum(_ms(s) for s in writes)),
        "matio.bytes_read": per_call(sum(s[5]["bytes"] for s in reads)),
        "matio.bytes_written": per_call(sum(s[5]["bytes"] for s in writes)),
        "cli.factorize_ms": per_call(sum(_ms(s) for s in cli_factorize)),
        "cli.other_ms": _mean(cli_other),
    }

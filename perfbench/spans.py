"""In-memory spans around the library's layer entry points.

:func:`install` replaces each public entry point of a layer with a
wrapper that records a span (name, start, end, parent, attributes) in a
:class:`Tracer`, at the place its callers look it up: methods on their
class, functions in every ``repro`` module namespace that bound them.
Nothing inside the library changes.  :func:`layer_metrics` turns the
spans of one run into the per-layer metrics of the traced benchmark run.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.enabled = True
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "attrs": {}}
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``measure(args, result)`` returns the span's attributes; it runs
        after the span closes, so its cost is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if measure is not None:
                self.spans[index]["attrs"] = measure(args, result)
            return result

        return traced

    def as_dicts(self) -> list[dict[str, Any]]:
        """The spans with times in seconds since the process's origin."""
        return [
            {**span, "start": span["start"] - self.origin, "end": span["end"] - self.origin}
            for span in self.spans
        ]


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _sweep_shape(args, _result) -> dict:
    """Array sizes of a prepared CTMDP solver (for the computed step cost)."""
    prepared = args[0]
    prob = getattr(prepared, "prob", None)  # unset when the goal set is empty
    if prob is None:
        return {}
    return {
        "nnz": int(prob.nnz),
        "transitions": int(prob.shape[0]),
        "states": int(prepared.num_states),
        "goal": int(prepared.goal_idx.size),
        "csr_bytes": int(prob.data.nbytes + prob.indices.nbytes + prob.indptr.nbytes),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro.models.ftwc as ftwc
    from repro.core.reachability import PreparedTimedReachability
    from repro.ctmc.reachability import PreparedCTMCReachability
    from repro.engine import ModelRegistry, QueryEngine
    from repro.imc.labeled import LabeledIMC
    from repro.imc.transform import imc_to_ctmdp
    from repro.models import ftwc_direct
    from repro.numerics.foxglynn import fox_glynn
    from repro.obs.certificate import certificate_from_foxglynn

    functions = [
        (ftwc_direct.build_ctmdp, "ftwc_direct.build_ctmdp",
         lambda a, r: {"states": r.ctmdp.num_states}),
        (ftwc_direct.build_ctmc, "ftwc_direct.build_ctmc",
         lambda a, r: {"states": r[0].num_states}),
        (imc_to_ctmdp, "imc.transform", lambda a, r: {"states": r.ctmdp.num_states}),
        (fox_glynn, "foxglynn", lambda a, r: {"terms": r.right - r.left + 1}),
        (certificate_from_foxglynn, "certificate",
         lambda a, r: {"error_bound": r.error_bound}),
    ]
    for original, name, measure in functions:
        _rebind(original, tracer.wrap(name, original, measure))
    # The final quotient of the compositional route is called directly,
    # outside LabeledIMC.minimize; wrap it only where that caller looks
    # it up, so minimisations inside LabeledIMC.minimize count once.
    ftwc.branching_minimize = tracer.wrap(
        "bisim.minimize",
        ftwc.branching_minimize,
        lambda a, r: {"states_in": a[0].num_states, "states_out": r[0].num_states},
    )

    methods = [
        (LabeledIMC, "parallel", "imc.parallel", lambda a, r: {"states": r.imc.num_states}),
        (LabeledIMC, "hide_all_but", "imc.hide", None),
        (LabeledIMC, "minimize", "bisim.minimize",
         lambda a, r: {"states_in": a[0].imc.num_states, "states_out": r.imc.num_states}),
        (PreparedTimedReachability, "__init__", "reachability.prepare", _sweep_shape),
        (PreparedTimedReachability, "solve", "reachability.solve",
         lambda a, r: {"iterations": r.iterations}),
        (PreparedCTMCReachability, "__init__", "ctmc.prepare", None),
        (PreparedCTMCReachability, "solve", "ctmc.solve",
         lambda a, r: {"iterations": a[0].last_certificate.right}),
        (QueryEngine, "run", "engine.run", lambda a, r: {"queries": len(r.results)}),
        (ModelRegistry, "get", "engine.registry_get", None),
    ]
    for cls, attr, name, measure in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), measure))


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _under(spans: list[dict], index: int, name: str) -> bool:
    """True iff span ``index`` has an ancestor called ``name``."""
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def layer_metrics(tracer: Tracer, end: float, counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced run ending at ``end``.

    ``counters`` carries counts the library keeps itself (the engine's
    ``models_built``).  ``trace.overhead_frac`` needs an untraced run and
    is added by the caller.
    """
    spans = tracer.spans
    own = self_times(spans)

    def pick(name: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span["name"] == name]

    def seconds(indices: list[int]) -> float:
        return sum(spans[i]["end"] - spans[i]["start"] for i in indices)

    def attr(indices: list[int], key: str) -> list:
        return [spans[i]["attrs"][key] for i in indices if key in spans[i]["attrs"]]

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    builds = pick("ftwc_direct.build_ctmdp") + pick("ftwc_direct.build_ctmc")
    parallel = pick("imc.parallel")
    minimize = pick("bisim.minimize")
    prepares = pick("reachability.prepare")
    solves = pick("reachability.solve")
    foxglynn = pick("foxglynn")
    certificates = pick("certificate")
    ctmc_solves = pick("ctmc.solve")
    runs = pick("engine.run")

    build_s = seconds(builds)
    states = sum(attr(builds, "states"))
    states_in = sum(attr(minimize, "states_in"))
    states_out = sum(attr(minimize, "states_out"))
    sweep_s = sum(own[i] for i in solves)
    iterations = sum(attr(solves, "iterations"))
    ctmc_iterations = sum(attr(ctmc_solves, "iterations"))

    # Computed step cost of the largest prepared sweep: one CSR mat-vec
    # (2 flops per nonzero), the scaled goal term and the per-state
    # optimum (3 per transition), the goal recursion (1 per goal state);
    # bytes are the CSR arrays plus one pass over each per-transition
    # (3) and per-state (2) float64 vector.
    shapes = [spans[i]["attrs"] for i in prepares if "nnz" in spans[i]["attrs"]]
    largest = max(shapes, key=lambda shape: shape["nnz"], default=None)
    nnz = flops = bytes_moved = 0
    if largest is not None:
        nnz = largest["nnz"]
        flops = 2 * nnz + 3 * largest["transitions"] + largest["goal"]
        bytes_moved = largest["csr_bytes"] + 8 * (
            3 * largest["transitions"] + 2 * largest["states"]
        )

    queries = sum(attr(runs, "queries"))
    engine_prepares = [
        i
        for i in prepares + pick("ctmc.prepare")
        if _under(spans, i, "engine.run")
    ]
    registry_gets = [i for i in pick("engine.registry_get") if _under(spans, i, "engine.run")]

    total = end - tracer.origin
    covered = seconds([i for i, span in enumerate(spans) if span["parent"] is None])

    return {
        "import.repro_s": seconds(pick("import.repro")),
        "ftwc_direct.build_s": build_s,
        "ftwc_direct.states": states,
        "ftwc_direct.states_per_s": per(states, build_s),
        "imc.parallel_s": seconds(parallel),
        "imc.parallel_calls": len(parallel),
        "imc.parallel_states_max": max(attr(parallel, "states"), default=0),
        "imc.hide_s": seconds(pick("imc.hide")),
        "imc.transform_s": seconds(pick("imc.transform")),
        "bisim.minimize_s": seconds(minimize),
        "bisim.minimize_calls": len(minimize),
        "bisim.states_in": states_in,
        "bisim.states_out": states_out,
        "bisim.kept_frac": per(states_out, states_in),
        "reachability.prepare_s": seconds(prepares),
        "reachability.prepares": len(prepares),
        "reachability.solve_s": seconds(solves),
        "reachability.iterations": iterations,
        "reachability.sweep_s": sweep_s,
        "reachability.step_us": per(sweep_s, iterations, 1e6),
        "reachability.nnz": nnz,
        "reachability.flops_per_step": flops,
        "reachability.bytes_per_step": bytes_moved,
        "foxglynn.s": seconds(foxglynn),
        "foxglynn.calls": len(foxglynn),
        "foxglynn.terms": sum(attr(foxglynn, "terms")),
        "certificate.s": seconds(certificates),
        "certificate.calls": len(certificates),
        "certificate.error_bound_max": max(attr(certificates, "error_bound"), default=0.0),
        "ctmc.prepare_s": seconds(pick("ctmc.prepare")),
        "ctmc.solve_s": seconds(ctmc_solves),
        "ctmc.iterations": ctmc_iterations,
        "ctmc.step_us": per(sum(own[i] for i in ctmc_solves), ctmc_iterations, 1e6),
        "engine.run_s": seconds(runs),
        "engine.self_s": sum(own[i] for i in runs),
        "engine.registry_get_s": seconds(registry_gets),
        "engine.models_built": counters.get("models_built", 0),
        "engine.prepares_per_query": per(len(engine_prepares), queries),
        "trace.unattributed_frac": per(total - covered, total),
    }

"""Benchmark workloads: their inputs, one fresh-interpreter run, and checks.

Run as a script, this module is one *child* of the benchmark: a fresh
interpreter that imports ``repro``, sets one workload up, answers its
queries through the library's public API, and prints one JSON record as
the last line of its standard output.  ``run.py`` starts the children,
checks their answers and aggregates the metrics.

The record holds the end-to-end timings (``setup_s`` from before
``import repro`` until the solver is ready, ``solve_s`` from the first
query issued to the last certified answer, per-query latencies, peak
RSS), one answer per query, and -- with ``--check`` -- the reference
values the answers are checked against, computed outside the timed
region.  With ``--trace`` the layer entry points are wrapped
(``spans.py``) and the record also carries the spans.

Only ``serve-n4`` uses the seed: its time bounds, query mix and order
are drawn from it.  ``direct-n64`` and ``compositional-n3`` analyse one
fixed model at one fixed bound and ignore it.
"""

import time

# setup_s is measured from here, before ``import repro``.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Precision of every timed query, and of the reference reruns.
EPSILON = 1e-6
REF_EPSILON = 1e-10
#: Decision-race rate of the FTWC CTMC (Figure 4's CTMC curve).
GAMMA = 10.0
#: serve-n4 draws its time bounds (hours) from this range.
T_RANGE = (1.0, 500.0)
#: Per-query wall-clock budget of the serve loop.
QUERY_TIMEOUT_S = 60.0

#: Workload -> size -> parameters.  "smoke" is the benchmark's own test size.
WORKLOADS = {
    "direct-n64": {
        "full": {"n": 64, "t": 500.0},
        "smoke": {"n": 2, "t": 500.0},
    },
    "compositional-n3": {
        "full": {"n": 3, "t": 100.0},
        "smoke": {"n": 1, "t": 100.0},
    },
    "serve-n4": {
        "full": {"n": 4, "bounds": 80, "ctmc_bounds": 40},
        "smoke": {"n": 4, "bounds": 4, "ctmc_bounds": 2},
    },
}


def plan(workload: str, size: str, seed: int) -> list[dict]:
    """The workload's queries, in the order the client issues them.

    Each query is ``{"family", "n", "t", "objective"}``.  serve-n4 draws
    one bound uniformly from each of ``bounds`` equal strata of
    :data:`T_RANGE` (so every seed covers the whole range evenly), asks
    Pmax and Pmin at each, adds a CTMC query at one bound of every
    consecutive pair of strata, and shuffles the lot.
    """
    params = WORKLOADS[workload][size]
    n = params["n"]
    if workload == "direct-n64":
        return [{"family": "ftwc", "n": n, "t": params["t"], "objective": "max"}]
    if workload == "compositional-n3":
        return [{"family": "ftwc-compositional", "n": n, "t": params["t"], "objective": "max"}]
    rng = random.Random(seed)
    low, high = T_RANGE
    count = params["bounds"]
    width = (high - low) / count
    bounds = [low + (i + rng.random()) * width for i in range(count)]
    pairs = count // params["ctmc_bounds"]
    ctmc_at = {pairs * j + rng.randrange(pairs) for j in range(params["ctmc_bounds"])}
    queries = []
    for i, t in enumerate(bounds):
        queries.append({"family": "ftwc", "n": n, "t": t, "objective": "max"})
        queries.append({"family": "ftwc", "n": n, "t": t, "objective": "min"})
        if i in ctmc_at:
            queries.append({"family": "ftwc-ctmc", "n": n, "t": t, "objective": "max"})
    rng.shuffle(queries)
    return queries


def _spec(query: dict) -> dict:
    spec = {"family": query["family"], "n": query["n"]}
    if query["family"] == "ftwc-ctmc":
        spec["gamma"] = GAMMA
    return spec


# ----------------------------------------------------------------------
# Setup and answering, per workload.  Each setup returns the function
# answering one query as ``(value, certificate)`` and the state the
# checks need.
# ----------------------------------------------------------------------
def _setup_prepared(model):
    """One solver prepared for ``model``'s CTMDP and goal set."""
    from repro.core.reachability import PreparedTimedReachability

    prepared = PreparedTimedReachability(model.ctmdp, model.goal_mask)

    def answer(query):
        result = prepared.solve(query["t"], EPSILON, query["objective"])
        return result.value(model.ctmdp.initial), result.certificate

    return answer, model


def _setup_direct(params: dict):
    from repro.models import ftwc_direct

    return _setup_prepared(ftwc_direct.build_ctmdp(params["n"]))


def _setup_compositional(params: dict):
    from repro.models.ftwc import build_compositional

    return _setup_prepared(build_compositional(params["n"]))


def _setup_serve(params: dict):
    from repro.engine import Query, QueryEngine

    engine = QueryEngine(workers=None, timeout=QUERY_TIMEOUT_S)
    for family in ("ftwc", "ftwc-ctmc"):
        engine.model(_spec({"family": family, "n": params["n"]}))

    def answer(query):
        batch = engine.run(
            [
                Query(
                    model=_spec(query),
                    t=query["t"],
                    objective=query["objective"],
                    epsilon=EPSILON,
                )
            ]
        )
        result = batch.results[0]
        if result.error is not None:
            raise RuntimeError(result.error)
        return result.value, result.certificate

    return answer, engine


SETUPS = {
    "direct-n64": _setup_direct,
    "compositional-n3": _setup_compositional,
    "serve-n4": _setup_serve,
}


# ----------------------------------------------------------------------
# References for the output checks (computed outside the timed region).
# Each returns one ``{"value", "bound"}`` per query plus a list of
# structural problems (empty when the model looks right).
# ----------------------------------------------------------------------
def _refs_direct(params: dict, queries: list[dict], model) -> tuple[list, list]:
    from repro.analysis.stats import ctmdp_alternating_statistics

    stored = json.loads(REFERENCES.read_text())
    key = str(params["n"])
    problems = []
    paper_interactive, paper_markov = stored["paper_table1"][key]
    stats = ctmdp_alternating_statistics(model.ctmdp)
    if stats.markov_states != paper_markov:
        problems.append(f"{stats.markov_states} Markov states, paper has {paper_markov}")
    if abs(stats.interactive_states - paper_interactive) > 1:
        problems.append(
            f"{stats.interactive_states} interactive states, paper has {paper_interactive}"
        )
    ref = stored["direct_pmax"][key]
    if ref["t"] != params["t"] or ref["epsilon"] != REF_EPSILON:
        problems.append("stored reference does not match the workload's bound")
    return [{"value": ref["value"], "bound": ref["error_bound"]} for _ in queries], problems


def _refs_compositional(params: dict, queries: list[dict], model) -> tuple[list, list]:
    from repro.models import ftwc_direct

    answer, _ = _setup_prepared(ftwc_direct.build_ctmdp(params["n"]))
    refs = []
    for query in queries:
        value, certificate = answer(query)
        refs.append({"value": value, "bound": certificate.error_bound})
    return refs, []


def _refs_serve(params: dict, queries: list[dict], engine) -> tuple[list, list]:
    from repro.core.reachability import PreparedTimedReachability
    from repro.ctmc.reachability import timed_reachability_curve

    ctmdp = engine.model(_spec({"family": "ftwc", "n": params["n"]}))
    ctmc = engine.model(_spec({"family": "ftwc-ctmc", "n": params["n"]}))
    prepared = PreparedTimedReachability(ctmdp.model, ctmdp.goal_mask)
    ctmc_ts = [q["t"] for q in queries if q["family"] == "ftwc-ctmc"]
    curve = timed_reachability_curve(ctmc.model, ctmc.goal_mask, ctmc_ts, epsilon=REF_EPSILON)
    forward = dict(zip(ctmc_ts, (float(v) for v in curve)))
    refs = []
    for query in queries:
        if query["family"] == "ftwc-ctmc":
            refs.append({"value": forward[query["t"]], "bound": REF_EPSILON})
        else:
            result = prepared.solve(query["t"], REF_EPSILON, query["objective"])
            refs.append(
                {
                    "value": result.value(ctmdp.model.initial),
                    "bound": result.certificate.error_bound,
                }
            )
    return refs, []


REFERENCE_ROUTES = {
    "direct-n64": _refs_direct,
    "compositional-n3": _refs_compositional,
    "serve-n4": _refs_serve,
}


def run(workload: str, size: str, seed: int, trace: bool, check: bool) -> dict:
    """Set up, answer every query, and (optionally) compute the references."""
    params = WORKLOADS[workload][size]
    queries = plan(workload, size, seed)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(origin=_STARTED)
        import_span = tracer.open("import.repro")
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported repro from {source}, not from this checkout's src/")
    if tracer is not None:
        tracer.close(import_span)
        spans.install(tracer)

    answer, state = SETUPS[workload](params)
    setup_done = time.perf_counter()

    answers, latencies = [], []
    for query in queries:
        started = time.perf_counter()
        try:
            value, certificate = answer(query)
            record = {
                "value": float(value),
                "bound": float(certificate.error_bound),
                "healthy": bool(certificate.healthy),
                "error": None,
            }
        except Exception as exc:  # a failed query is counted, not fatal
            record = {"value": None, "bound": None, "healthy": False, "error": repr(exc)}
        latencies.append(time.perf_counter() - started)
        answers.append(record)
    solved = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "setup_s": setup_done - _STARTED,
        "solve_s": solved - setup_done,
        "total_s": solved - _STARTED,
        "latencies": latencies,
        "peak_rss_mb": peak_kib / 1024.0,
        "queries": queries,
        "answers": answers,
    }
    if tracer is not None:
        tracer.enabled = False  # the checks below are not the workload
        counters = {}
        if workload == "serve-n4":
            counters["models_built"] = state.metrics.counter("models_built")
        result["spans"] = tracer.as_dicts()
        result["layers"] = spans.layer_metrics(tracer, end=solved, counters=counters)
        result["self_s"] = spans.layer_self_seconds(tracer.spans)
    if check:
        refs, problems = REFERENCE_ROUTES[workload](params, queries, state)
        result["refs"] = refs
        result["problems"] = problems
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="wrap the layer entry points")
    parser.add_argument("--check", action="store_true", help="also compute the references")
    parser.add_argument("--spans-out", type=Path, help="write the spans here at exit")
    args = parser.parse_args(argv)
    result = run(args.workload, args.size, args.seed, args.trace, args.check)
    if args.spans_out is not None and "spans" in result:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        args.spans_out.write_text(json.dumps(result.pop("spans")))
    else:
        result.pop("spans", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

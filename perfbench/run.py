"""The repository's benchmark: the paper's pipeline timed from the outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-n4 --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters (``workload.py``), one after the
other, until ``--seconds`` have passed and at least two have finished,
so that every user-visible cold cost counts and every figure is a median
over several set-ups.  One client, one process, no pool workers.

``--trace 0`` prints the end-to-end metrics of untraced children.
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics of the traced ones, plus the tracing overhead; the
traced children's spans are written to ``.perfbench/``.

Every answer is checked outside the timed region against a reference
from an independent or tighter route (see ``workload.py``); a query
fails on an exception, a timeout, an unhealthy certificate or a failed
check.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import ROOT, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
LAYERS = HERE / "layers.json"
SPANS_DIR = ROOT / ".perfbench"

#: A run starts no child that would likely end after this many seconds,
#: and kills one that does, so that it ends well inside three minutes.
HARD_CAP_S = 150.0
MIN_CHILDREN = 2
#: A reported tail percentile has at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "query_p50_s": "s",
    "query_p95_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float], q: float) -> float:
    """The percentile nearest ``q`` that has at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median has
    ten beyond it, and the median is reported.
    """
    return max(50.0, min(q, 100.0 * (1.0 - TAIL_SAMPLES / len(values))))


def child_env() -> dict[str, str]:
    """The environment of a workload interpreter.

    The source tree comes first on the path; BLAS threads are capped at
    the cores this process may use; string hashing is fixed so that set
    and dict orders, and hence the work done, repeat from run to run.
    The library's own ``REPRO_*`` switches (disk cache, push gateway,
    sanitizer) are cleared, so every run measures the defaults.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cores = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = cores
    return env


def run_child(args, traced: bool, check: bool, number: int, timeout: float) -> dict | None:
    """One workload interpreter; its record, or ``None`` if it failed."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
    ]
    if traced:
        spans_out = SPANS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}-{number}.json"
        command += ["--trace", "--spans-out", str(spans_out)]
    if check:
        command.append("--check")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child {number} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"child {number} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def failures(record: dict, refs: list[dict] | None, problems: list[str]) -> dict[int, str]:
    """Why each failed answer of one child failed, by query index."""
    answers = record["answers"]
    if problems:
        return {index: "model: " + "; ".join(problems) for index in range(len(answers))}
    failed: dict[int, str] = {}
    by_bound: dict[float, dict[str, int]] = {}
    for index, (query, answer) in enumerate(zip(record["queries"], answers, strict=True)):
        ref = refs[index] if refs is not None else None
        if answer["error"] is not None:
            failed[index] = answer["error"]
        elif not answer["healthy"]:
            failed[index] = "unhealthy certificate"
        elif ref is None:
            failed[index] = "no reference value"
        elif abs(answer["value"] - ref["value"]) > answer["bound"] + ref["bound"]:
            failed[index] = (
                f"{answer['value']!r} is not within {answer['bound']:.3g} "
                f"of the reference {ref['value']!r}"
            )
        else:
            kind = "ctmc" if query["family"] == "ftwc-ctmc" else query["objective"]
            by_bound.setdefault(query["t"], {})[kind] = index
    # Figure 4's ordering: Pmin <= Pmax <= CTMC at every bound.
    for at in by_bound.values():
        for low, high in (("min", "max"), ("max", "ctmc")):
            if low in at and high in at:
                a, b = answers[at[low]], answers[at[high]]
                if a["value"] - b["value"] > a["bound"] + b["bound"]:
                    failed[at[high]] = f"{low} {a['value']!r} exceeds {high} {b['value']!r}"
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", default="full", choices=("full", "smoke"), help="smoke: the benchmark's tests"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, as an installed package would be.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )

    queries = plan(args.workload, args.size, args.seed)
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    refs = problems = None
    attempted = failed = 0
    longest = 0.0
    number = 0
    while True:
        is_traced = bool(args.trace) and number % 2 == 1
        child_started = time.monotonic()
        budget = max(10.0, HARD_CAP_S - (child_started - started))
        record = run_child(args, is_traced, check=number == 0, number=number, timeout=budget)
        longest = max(longest, time.monotonic() - child_started)
        number += 1
        attempted += len(queries)
        if record is None:
            failed += len(queries)
        else:
            if "refs" in record:
                refs, problems = record["refs"], record["problems"]
            why = failures(record, refs, problems or [])
            for index, reason in sorted(why.items()):
                query = queries[index]
                print(
                    f"FAILED child {number - 1}: {query['family']} {query['objective']} "
                    f"t={query['t']:.4f}: {reason}"
                )
            failed += len(why)
            (traced if is_traced else untraced).append(record)
        elapsed = time.monotonic() - started
        if elapsed + longest > HARD_CAP_S or (
            elapsed >= args.seconds and number >= MIN_CHILDREN
        ):
            break

    if not untraced or (args.trace and not traced):
        print("no workload interpreter finished; no figures to report", file=sys.stderr)
        return 1

    latencies = [s for record in untraced for s in record["latencies"]]
    median_latency = statistics.median(latencies)
    tail = tail_percentile(latencies, 95.0)
    print(
        f"{args.workload} ({args.size}, seed {args.seed}): {len(untraced)} untraced and "
        f"{len(traced)} traced interpreters, {len(queries)} queries each; query_p95_s is "
        f"p{tail:.4g} of {len(latencies)} untraced query latencies"
    )
    for kind, records in (("untraced", untraced), ("traced", traced)):
        for record in records:
            print(
                f"  {kind} interpreter: setup {record['setup_s']:.4f} s, "
                f"solve {record['solve_s']:.4f} s, peak RSS {record['peak_rss_mb']:.1f} MB"
            )
    if args.trace:
        units = {entry["name"]: entry["unit"] for entry in json.loads(LAYERS.read_text())}
        values = {
            name: statistics.median(record["layers"][name] for record in traced)
            for name in units
            if name != "trace.overhead_frac"
        }
        layers = sorted({layer for record in traced for layer in record["self_s"]})
        print("  self time per layer (s, median over traced interpreters):")
        for layer in layers:
            own = statistics.median(record["self_s"].get(layer, 0.0) for record in traced)
            print(f"    {layer:16s} {own:10.4f}")
        values["trace.overhead_frac"] = (
            statistics.median(r["total_s"] for r in traced)
            / statistics.median(r["total_s"] for r in untraced)
            - 1.0
        )
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "solve_s": statistics.median(r["solve_s"] for r in untraced),
            "query_p50_s": median_latency,
            "query_p95_s": percentile(latencies, tail) if tail > 50.0 else median_latency,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "answered_frac": 1.0 - failed / attempted,
        }
    for name, value in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference composition order for the compositional FTWC: station last.

This is the original body of :func:`repro.models.ftwc.build_system_imc`,
kept as a test oracle (and as the fixed workload of
``benchmarks/test_bench_bisim.py``).  It interleaves every component
block first -- all replicas of all five kinds -- and only then
synchronises the whole interleaving with the repair station on the
union of the per-kind grab/repair/release alphabets.  At N=3 that
builds an 80,000-state product before the first hiding; the library
composes the station first instead and never does.
"""

from __future__ import annotations

from repro.bisim.branching import branching_minimize
from repro.bisim.quotient import map_labels_through
from repro.errors import ModelError
from repro.imc.labeled import LabeledIMC
from repro.models.ftwc import (
    _OBS_KINDS,
    SystemIMC,
    component_block,
    premium_from_obs,
    repair_station,
)
from repro.models.ftwc_direct import FTWCParameters


def build_system_imc(
    n: int,
    params: FTWCParameters | None = None,
    minimize_intermediate: bool = True,
    engine: str = "worklist",
) -> SystemIMC:
    """Compose the full FTWC as a closed uniform IMC, station last."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")

    def maybe_minimize(model: LabeledIMC) -> LabeledIMC:
        return model.minimize(engine=engine) if minimize_intermediate else model

    # Interleave the workstation replicas of each side.
    def cluster(kind: str) -> LabeledIMC:
        block = component_block(
            kind, params.fail_rate(kind), minimize=minimize_intermediate, engine=engine
        )
        result = block
        for _ in range(1, n):
            result = maybe_minimize(result.parallel(block, sync=[]))
        return result

    system = maybe_minimize(cluster("wsL").parallel(cluster("wsR"), sync=[]))
    for kind in ("swL", "swR", "bb"):
        block = component_block(
            kind, params.fail_rate(kind), minimize=minimize_intermediate, engine=engine
        )
        system = maybe_minimize(system.parallel(block, sync=[]))

    station = repair_station(params)
    sync = [f"{prefix}_{kind}" for kind in _OBS_KINDS for prefix in ("g", "rep", "r")]
    system = station.parallel(system, sync=sync)

    closed = system.hide_all_but()
    # Final quotient: only the premium predicate needs to survive now.
    quality = [premium_from_obs(obs, n) for obs in closed.observations]
    quotient, partition = branching_minimize(closed.imc, labels=quality, engine=engine)
    return SystemIMC(
        imc=quotient, premium_flags=map_labels_through(partition, quality)
    )

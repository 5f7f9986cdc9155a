"""Reference FTWC generator: explicit exploration over ``Config`` values.

This is the original dataclass-based generator, kept as a test oracle
for the integer-encoded generator in :mod:`repro.models.ftwc_direct`.
It explores configurations depth-first from the all-up cluster, hashes
each ``Config`` into an index, and builds every rate function as a
``{Config: rate}`` dictionary.  States are numbered in discovery order,
so its models equal the library's only up to a permutation of states.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError
from repro.models.ftwc_direct import (
    IDLE,
    Config,
    FTWCModel,
    FTWCParameters,
    premium,
    uniform_rate,
)


def race(config: Config, params: FTWCParameters, total: float) -> dict[Config, float]:
    """Rate function of the exponential race out of ``config``.

    Precondition: ``config`` is not a decision point.  The self-loop
    padding tops the exit rate up to the uniform rate ``total``.
    """
    n = params.n
    rates: dict[Config, float] = {}

    def add(target: Config, rate: float) -> None:
        if rate > 0.0:
            rates[target] = rates.get(target, 0.0) + rate

    add(config.after_failure("wsL"), (n - config.failed_left) * params.ws_fail)
    add(config.after_failure("wsR"), (n - config.failed_right) * params.ws_fail)
    if not config.sw_left_down:
        add(config.after_failure("swL"), params.sw_fail)
    if not config.sw_right_down:
        add(config.after_failure("swR"), params.sw_fail)
    if not config.bb_down:
        add(config.after_failure("bb"), params.bb_fail)
    if config.repairing:
        add(config.after_repair(), params.repair_rate(config.repairing))

    padding = total - math.fsum(rates.values())
    add(config, padding)
    return rates


def explore(
    params: FTWCParameters, racing_decisions: bool = False
) -> tuple[list[Config], dict[Config, int]]:
    """Enumerate all configurations reachable from the fully-up cluster.

    With ``racing_decisions`` the decision points additionally spawn
    their failure successors (needed for the CTMC variant, where the
    failure clocks race against the assignment delay).
    """
    start = Config(0, 0, False, False, False, IDLE)
    index: dict[Config, int] = {start: 0}
    order: list[Config] = [start]
    total = uniform_rate(params)
    frontier = [start]
    while frontier:
        config = frontier.pop()
        successors: list[Config] = []
        if config.is_decision_point():
            for kind in config.failed_kinds():
                successors.extend(race(config.with_repairing(kind), params, total))
            if racing_decisions:
                successors.extend(race(config, params, total))
        else:
            successors.extend(race(config, params, total))
        for target in successors:
            if target not in index:
                index[target] = len(order)
                order.append(target)
                frontier.append(target)
    return order, index


def build_ctmdp(
    n: int,
    params: FTWCParameters | None = None,
    quality_threshold: int | None = None,
) -> FTWCModel:
    """The uniform CTMDP of the FTWC, states in discovery order."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    total = uniform_rate(params)
    order, index = explore(params)

    transitions: list[tuple[int, str, dict[int, float]]] = []
    for config in order:
        src = index[config]
        if config.is_decision_point():
            for kind in config.failed_kinds():
                rates = race(config.with_repairing(kind), params, total)
                transitions.append(
                    (src, f"g_{kind}", {index[c]: r for c, r in rates.items()})
                )
        else:
            rates = race(config, params, total)
            transitions.append((src, "tau", {index[c]: r for c, r in rates.items()}))

    ctmdp = CTMDP.from_transitions(
        num_states=len(order),
        transitions=transitions,
        initial=0,
        state_names=[c.describe() for c in order],
    )
    goal = np.array(
        [not premium(c, n, quality_threshold) for c in order], dtype=bool
    )
    return FTWCModel(ctmdp=ctmdp, configs=order, goal_mask=goal, params=params)


def build_ctmc(
    n: int,
    params: FTWCParameters | None = None,
    gamma: float = 10.0,
    quality_threshold: int | None = None,
) -> tuple[CTMC, list[Config], np.ndarray]:
    """The CTMC approximation with racing decisions, in discovery order."""
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    if gamma <= 0.0:
        raise ModelError("gamma must be positive")
    total = uniform_rate(params)
    order, index = explore(params, racing_decisions=True)

    transitions: list[tuple[int, int, float]] = []
    for config in order:
        src = index[config]
        if config.is_decision_point():
            for kind in config.failed_kinds():
                transitions.append((src, index[config.with_repairing(kind)], gamma))
            for target, rate in race(config, params, total).items():
                if target != config:
                    transitions.append((src, index[target], rate))
        else:
            for target, rate in race(config, params, total).items():
                if target != config:  # drop the uniformisation self-loop
                    transitions.append((src, index[target], rate))

    chain = CTMC.from_transitions(len(order), transitions, initial=0)
    goal = np.array(
        [not premium(c, n, quality_threshold) for c in order], dtype=bool
    )
    return chain, order, goal

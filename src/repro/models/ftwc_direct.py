"""Direct state-space generator for the fault-tolerant workstation cluster.

The paper constructs the FTWC compositionally with CADP for ``N <= 14``
and falls back to PRISM-generated state spaces for larger ``N``; this
module is our analogue of the latter: it enumerates the uniform CTMDP of
the cluster directly over a counting abstraction of the configuration
space, which is sound because workstations within one sub-cluster are
fully symmetric (the compositional route merges them by bisimulation
anyway -- the test suite verifies that both routes yield identical
reachability probabilities for small ``N``).

System recap (Section 5 / Figure 1): two sub-clusters of ``N``
workstations each, connected through one switch per side and a backbone;
every component fails and is repaired with exponentially distributed
delays; a *single* repair unit serves one failed component at a time,
and the assignment of the repair unit to a failed component is the
nondeterministic decision of the model.

Configurations
--------------
A configuration records ``(failed_left, failed_right, switch_left_down,
switch_right_down, backbone_down, repairing)`` where the counts include
a component currently under repair and ``repairing`` names the component
kind the repair unit is attached to (or none).  A configuration is a
*decision point* iff the repair unit is idle although failed components
exist; there the scheduler picks a ``grab`` action per failed kind.  All
other configurations carry a single internal transition whose rate
function is the exponential race between failures, the running repair,
and the uniformisation self-loop.

Integer encoding and state order
--------------------------------
Generation never materialises :class:`Config` objects.  A configuration
is one integer *code* in mixed radix, most significant field first::

    code = ((((fL * (N+1) + fR) * 2 + swL) * 2 + swR) * 2 + bb) * 6 + ru

with ``ru`` = 0 for an idle repair unit and ``1 + KINDS.index(kind)``
otherwise, so the full lattice has ``48 (N+1)^2`` codes.  One more
failure of a kind adds a fixed stride to the code, attaching the repair
unit to kind ``k`` adds ``k``, and a completed repair subtracts both.
The race successors and rates of every code are therefore computed at
once with array arithmetic; decision points take their rate functions
from the races of ``code + k`` for their failed kinds.  One
breadth-first traversal from the all-up code 0 finds the reachable
codes, and the CTMDP numbers them in increasing code order: state 0 is
the all-up initial configuration, and the columns of every rate
function come out sorted.  :attr:`FTWCModel.configs` decodes codes back
into :class:`Config` values on access.

Uniformity by construction
--------------------------
Every rate function has total rate ``E(N) = mu_max + 2N*lf_ws +
2*lf_sw + lf_bb``: each component's failure clock ticks at its failure
rate at all times (clocks of failed components contribute to the
self-loop), and the shared repair clock ticks at the fastest repair
rate ``mu_max`` (slower repairs are padded with self-loop rate, exactly
Jensen's uniformization).  The self-loop rate is ``E(N)`` minus the
exactly rounded (``math.fsum``) sum of the other rates.  This mirrors
the elapse-based compositional construction and reproduces the uniform
rates implied by the iteration counts of Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Sequence, overload

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError

__all__ = [
    "FTWCParameters",
    "Config",
    "Configurations",
    "FTWCModel",
    "build_ctmdp",
    "build_ctmc",
    "premium",
    "uniform_rate",
]

#: Component kinds in a fixed order: left/right workstations, left/right
#: switch, backbone.
KINDS = ("wsL", "wsR", "swL", "swR", "bb")

#: The repair unit is idle.
IDLE = ""

#: Repair-unit digit of a code -> the ``repairing`` field.
_REPAIRING = (IDLE,) + KINDS

#: Action label of the rate function taken from the race of ``code + k``.
_LABELS = np.array(["tau"] + [f"g_{kind}" for kind in KINDS], dtype=object)


@dataclass(frozen=True)
class FTWCParameters:
    """Failure and repair rates of the FTWC (defaults from [13] / PRISM).

    Mean times: workstations fail every 500 h and take 0.5 h to repair;
    switches 4000 h / 4 h; the backbone 5000 h / 8 h.
    """

    n: int
    ws_fail: float = 1.0 / 500.0
    sw_fail: float = 1.0 / 4000.0
    bb_fail: float = 1.0 / 5000.0
    ws_repair: float = 2.0
    sw_repair: float = 0.25
    bb_repair: float = 0.125

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("the FTWC needs at least one workstation per sub-cluster")
        for name in ("ws_fail", "sw_fail", "bb_fail", "ws_repair", "sw_repair", "bb_repair"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"{name} must be positive")

    def fail_rate(self, kind: str) -> float:
        """Failure rate of one component of ``kind``."""
        return {"wsL": self.ws_fail, "wsR": self.ws_fail, "swL": self.sw_fail,
                "swR": self.sw_fail, "bb": self.bb_fail}[kind]

    def repair_rate(self, kind: str) -> float:
        """Repair rate of one component of ``kind``."""
        return {"wsL": self.ws_repair, "wsR": self.ws_repair, "swL": self.sw_repair,
                "swR": self.sw_repair, "bb": self.bb_repair}[kind]

    @property
    def mu_max(self) -> float:
        """Rate of the shared (uniformized) repair clock."""
        return max(self.ws_repair, self.sw_repair, self.bb_repair)

    @property
    def total_fail_rate(self) -> float:
        """Sum of all failure-clock rates (they tick at all times)."""
        return 2 * self.n * self.ws_fail + 2 * self.sw_fail + self.bb_fail


def uniform_rate(params: FTWCParameters) -> float:
    """The uniform rate ``E(N)`` of the FTWC uCTMDP."""
    return params.mu_max + params.total_fail_rate


@dataclass(frozen=True)
class Config:
    """One configuration of the cluster.

    ``failed_left`` / ``failed_right`` count non-operational workstations
    (waiting or under repair); the switch/backbone flags are ``True``
    when the component is non-operational; ``repairing`` is the kind the
    repair unit is attached to, or ``IDLE``.
    """

    failed_left: int
    failed_right: int
    sw_left_down: bool
    sw_right_down: bool
    bb_down: bool
    repairing: str = IDLE

    def failed_kinds(self) -> list[str]:
        """Kinds with at least one failed component (grab candidates)."""
        kinds = []
        if self.failed_left > 0:
            kinds.append("wsL")
        if self.failed_right > 0:
            kinds.append("wsR")
        if self.sw_left_down:
            kinds.append("swL")
        if self.sw_right_down:
            kinds.append("swR")
        if self.bb_down:
            kinds.append("bb")
        return kinds

    def is_decision_point(self) -> bool:
        """True iff the repair unit must be (re)assigned here."""
        return self.repairing == IDLE and bool(self.failed_kinds())

    def with_repairing(self, kind: str) -> "Config":
        """Attach the repair unit to ``kind``."""
        return Config(self.failed_left, self.failed_right, self.sw_left_down,
                      self.sw_right_down, self.bb_down, kind)

    def after_failure(self, kind: str) -> "Config":
        """Configuration after one more component of ``kind`` fails."""
        return Config(
            self.failed_left + (kind == "wsL"),
            self.failed_right + (kind == "wsR"),
            self.sw_left_down or kind == "swL",
            self.sw_right_down or kind == "swR",
            self.bb_down or kind == "bb",
            self.repairing,
        )

    def after_repair(self) -> "Config":
        """Configuration after the running repair completes (unit released)."""
        kind = self.repairing
        return Config(
            self.failed_left - (kind == "wsL"),
            self.failed_right - (kind == "wsR"),
            self.sw_left_down and kind != "swL",
            self.sw_right_down and kind != "swR",
            self.bb_down and kind != "bb",
            IDLE,
        )

    def describe(self) -> str:
        """Compact human-readable rendering."""
        ru = self.repairing or "idle"
        return (
            f"fL={self.failed_left},fR={self.failed_right},"
            f"swL={'down' if self.sw_left_down else 'up'},"
            f"swR={'down' if self.sw_right_down else 'up'},"
            f"bb={'down' if self.bb_down else 'up'},ru={ru}"
        )


def _quality_need(n: int, threshold: int | None) -> int:
    """The validated number of connected operational workstations required."""
    need = n if threshold is None else threshold
    if not 0 < need <= 2 * n:
        raise ModelError(f"quality threshold must lie in 1..{2 * n}, got {need}")
    return need


def premium(config: Config, n: int, threshold: int | None = None) -> bool:
    """Quality-of-service predicate of [13] (Section 5 of the paper).

    The cluster offers the required quality iff at least ``threshold``
    operational workstations are connected to each other: either one
    sub-cluster provides all of them through its own (operational)
    switch, or both sub-clusters together do -- which additionally
    requires both switches and the backbone.

    ``threshold`` defaults to ``n``: *premium* quality, the paper's
    property.  Smaller thresholds give the *minimum quality* variants
    also studied in [13] (e.g. ``threshold = (3 * n) // 4``).
    """
    need = _quality_need(n, threshold)
    op_left = n - config.failed_left
    op_right = n - config.failed_right
    sw_left = not config.sw_left_down
    sw_right = not config.sw_right_down
    bb = not config.bb_down
    if sw_left and op_left >= need:
        return True
    if sw_right and op_right >= need:
        return True
    return sw_left and sw_right and bb and op_left + op_right >= need


# ----------------------------------------------------------------------
# Integer encoding
# ----------------------------------------------------------------------
def _fields(codes: Any, n: int) -> tuple[Any, ...]:
    """Decode one code or an array of codes into ``(failed_left,
    failed_right, sw_left_down, sw_right_down, bb_down, repairing digit)``."""
    high, low = divmod(codes, 48)
    failed_left, failed_right = divmod(high, n + 1)
    return (
        failed_left,
        failed_right,
        low // 24 == 1,
        (low // 12) % 2 == 1,
        (low // 6) % 2 == 1,
        low % 6,
    )


def _decode(code: int, n: int) -> Config:
    *fields, repairing = _fields(code, n)
    return Config(*fields, _REPAIRING[repairing])


class Configurations(Sequence[Config]):
    """The configurations of a generated model, one per state.

    Holds only the states' integer codes (sorted, as the states are) and
    decodes a :class:`Config` on each access.
    """

    def __init__(self, codes: np.ndarray, n: int) -> None:
        self.codes = codes
        self.n = n

    def __len__(self) -> int:
        return len(self.codes)

    @overload
    def __getitem__(self, index: int) -> Config: ...

    @overload
    def __getitem__(self, index: slice) -> "Configurations": ...

    def __getitem__(self, index: int | slice) -> "Config | Configurations":
        if isinstance(index, slice):
            return Configurations(self.codes[index], self.n)
        return _decode(int(self.codes[index]), self.n)

    def __iter__(self) -> Iterator[Config]:
        n = self.n
        return (_decode(code, n) for code in self.codes.tolist())


def _goal_mask(codes: np.ndarray, n: int, threshold: int | None) -> np.ndarray:
    """``not premium`` for every code, as array arithmetic."""
    need = _quality_need(n, threshold)
    failed_left, failed_right, sw_left_down, sw_right_down, bb_down, _ = _fields(codes, n)
    op_left = n - failed_left
    op_right = n - failed_right
    quality = (
        (~sw_left_down & (op_left >= need))
        | (~sw_right_down & (op_right >= need))
        | (~sw_left_down & ~sw_right_down & ~bb_down & (op_left + op_right >= need))
    )
    return ~quality


def _state_names(codes: np.ndarray, n: int) -> list[str]:
    """``Config.describe()`` of every code, assembled from two tables."""
    counts = [f"fL={left},fR={right}," for left in range(n + 1) for right in range(n + 1)]
    flags = [
        _decode(low, n).describe().split(",", 2)[2] for low in range(48)
    ]
    high, low = np.divmod(codes, 48)
    names = np.array(counts, dtype=object)[high] + np.array(flags, dtype=object)[low]
    return names.tolist()


class _Races:
    """Race successors of every consistent code of the lattice.

    A code is *consistent* when its repair unit is idle or attached to a
    kind with a failed component; only those are ever reached.  Row
    ``r`` describes code ``codes[r]``; ``targets[r]`` and ``rates[r]``
    list its race entries in increasing target order -- the completed
    repair, the self-loop, then one failure per kind in reverse
    ``KINDS`` order -- with target row ``-1`` where an entry is absent.
    Decision points carry no self-loop (their race is only used by the
    CTMC variant, which drops it).  ``row_of`` maps a lattice code to
    its row (``-1`` if inconsistent).
    """

    def __init__(self, params: FTWCParameters) -> None:
        n = params.n
        lattice = np.arange(48 * (n + 1) ** 2, dtype=np.int64)
        failed_left, failed_right, sw_left, sw_right, bb, repairing = _fields(lattice, n)
        # failed[:, k]: kind KINDS[k] has a failed component.
        failed = np.column_stack([failed_left > 0, failed_right > 0, sw_left, sw_right, bb])
        consistent = np.column_stack([np.ones(len(lattice), dtype=bool), failed])[
            lattice, repairing
        ]
        self.codes = codes = lattice[consistent]
        failed = failed[consistent]
        repairing = repairing[consistent]
        failed_left, failed_right = failed_left[consistent], failed_right[consistent]
        decision = (repairing == 0) & failed.any(axis=1)
        # grabs[r, k]: decision point r may attach the repair unit to KINDS[k].
        self.grabs = failed & decision[:, None]
        self.row_of = np.full(len(lattice), -1, dtype=np.int64)
        self.row_of[codes] = np.arange(len(codes))

        # Code increment of one more failure, per kind in KINDS order.
        strides = np.array([48 * (n + 1), 48, 24, 12, 6], dtype=np.int64)
        repair_rate = np.array([0.0] + [params.repair_rate(k) for k in KINDS])
        repair_stride = np.concatenate(([0], strides))
        fail_rate = np.array([params.fail_rate(k) for k in KINDS])
        up = np.column_stack([n - failed_left, n - failed_right, ~failed[:, 2:]])
        offsets = np.concatenate(([0, 0], strides[::-1]))
        target_codes = codes[:, None] + offsets
        target_codes[:, 0] -= repair_stride[repairing] + repairing
        rates = np.zeros(target_codes.shape)
        rates[:, 0] = repair_rate[repairing]
        rates[:, 2:] = (up * fail_rate)[:, ::-1]

        races = ~decision
        total = uniform_rate(params)
        sums = np.fromiter(map(math.fsum, rates[races].tolist()), float, races.sum())
        rates[races, 1] = total - sums

        present = rates > 0.0
        self.rates = rates
        self.targets = np.where(
            present, self.row_of[np.where(present, target_codes, 0)], -1
        )


def _reachable(
    sources: np.ndarray, targets: np.ndarray, num_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows reachable from row 0 over ``sources[i] -> targets[i, :]``.

    ``sources`` must be sorted; ``-1`` targets are absent.  Returns the
    reachable rows in increasing order and the state number of every
    row (``-1`` if unreachable).
    """
    present = targets >= 0
    counts = np.bincount(sources, weights=present.sum(axis=1), minlength=num_rows)
    indptr = np.concatenate(([0], np.cumsum(counts.astype(np.int64))))
    graph = sp.csr_matrix(
        (np.ones(int(indptr[-1]), dtype=np.int8), targets[present], indptr),
        shape=(num_rows, num_rows),
    )
    reached = np.sort(breadth_first_order(graph, 0, directed=True, return_predecessors=False))
    state_of = np.full(num_rows, -1, dtype=np.int64)
    state_of[reached] = np.arange(len(reached))
    return reached, state_of


def _rate_matrix(
    targets: np.ndarray, rates: np.ndarray, state_of: np.ndarray, num_states: int
) -> sp.csr_matrix:
    """CSR matrix with one row per ``targets``/``rates`` row.

    Entries are in increasing target order already, so the result is in
    canonical form without sorting.
    """
    present = targets >= 0
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1)))).astype(np.int32)
    indices = state_of[targets[present]].astype(np.int32)
    matrix = sp.csr_matrix(
        (rates[present], indices, indptr), shape=(len(targets), num_states)
    )
    matrix.has_sorted_indices = True
    return matrix


def _checked(n: int, params: FTWCParameters | None) -> FTWCParameters:
    params = params or FTWCParameters(n=n)
    if params.n != n:
        raise ModelError("n argument and params.n disagree")
    return params


@dataclass
class FTWCModel:
    """A generated FTWC model with its goal set and provenance.

    Attributes
    ----------
    ctmdp:
        The uniform CTMDP (states are configurations).
    configs:
        Configuration per CTMDP state.
    goal_mask:
        Boolean mask of the non-premium states (the goal set ``B`` of
        the paper's property "premium service is not guaranteed").
    params:
        The generating parameters.
    """

    ctmdp: CTMDP
    configs: Sequence[Config]
    goal_mask: np.ndarray
    params: FTWCParameters

    @property
    def initial_value_index(self) -> int:
        """Index of the all-operational initial state."""
        return self.ctmdp.initial


def build_ctmdp(
    n: int,
    params: FTWCParameters | None = None,
    quality_threshold: int | None = None,
) -> FTWCModel:
    """Build the uniform CTMDP of the FTWC with ``n`` workstations per side.

    Decision points offer one ``g_<kind>`` transition per failed kind
    (the nondeterministic repair-unit assignment, in ``KINDS`` order);
    every other configuration offers a single ``tau`` transition.  All
    rate functions share the uniform exit rate ``E(N)``.  States are
    numbered in increasing code order (see the module docstring).

    ``quality_threshold`` selects the required number of connected
    operational workstations (default ``n``: the premium property).
    """
    params = _checked(n, params)
    races = _Races(params)
    # Choice k of a code takes the race of ``code + k``: k = 0 is the
    # code's own race, k >= 1 grabs KINDS[k - 1] at a decision point.
    choices = np.column_stack([~races.grabs.any(axis=1), races.grabs])
    sources, kinds = np.nonzero(choices)
    race_rows = races.row_of[races.codes[sources] + kinds]
    targets = races.targets[race_rows]

    reached, state_of = _reachable(sources, targets, len(races.codes))
    keep = state_of[sources] >= 0
    race_rows = race_rows[keep]
    codes = races.codes[reached]

    ctmdp = CTMDP(
        num_states=len(reached),
        sources=state_of[sources[keep]],
        labels=_LABELS[kinds[keep]].tolist(),
        rate_matrix=_rate_matrix(
            targets[keep], races.rates[race_rows], state_of, len(reached)
        ),
        initial=0,
        state_names=_state_names(codes, n),
    )
    return FTWCModel(
        ctmdp=ctmdp,
        configs=Configurations(codes, n),
        goal_mask=_goal_mask(codes, n, quality_threshold),
        params=params,
    )


def build_ctmc(
    n: int,
    params: FTWCParameters | None = None,
    gamma: float = 10.0,
    quality_threshold: int | None = None,
) -> tuple[CTMC, Configurations, np.ndarray]:
    """Build the CTMC approximation of [13]: nondeterminism as fast races.

    At decision points the repair-unit assignment is replaced by a race
    of exponential transitions with rate ``gamma`` -- the modelling
    style of the original FTWC studies that the paper criticises.  The
    default of 10 follows the repairman's *inspection rate* of the
    classical PRISM ``cluster`` benchmark; larger values shrink the
    artefacts (and blow up the uniformization rate of the analysis).

    The artificial races let failures interleave with the (small but
    positive) decision delay, during which the repair unit is
    effectively idle -- paths that no scheduler of the CTMDP can
    realise.  This is why this chain *overestimates* even the
    worst-case CTMDP probabilities (Figure 4 of the paper).

    Returns ``(chain, configurations, goal mask)``; states are numbered
    in increasing code order.
    """
    params = _checked(n, params)
    if gamma <= 0.0:
        raise ModelError("gamma must be positive")
    races = _Races(params)
    # Every code races its own failures and repair; the uniformisation
    # self-loop is dropped.  Crucially, the failure clocks keep running
    # while a decision is pending -- in a CTMC all transitions race.
    # These artificial interleavings (a component failing during the
    # infinitesimal assignment delay, with the repair unit effectively
    # idle) are exactly the paths the paper identifies as the cause of
    # the CTMC's overestimation.  Decision points add the rate-gamma
    # race to ``code + k`` per failed kind; those targets sort between
    # the repair and the failure targets.
    grabs = races.grabs
    grab_codes = np.where(grabs, races.codes[:, None] + np.arange(1, len(KINDS) + 1), 0)
    targets = np.column_stack(
        [races.targets[:, :1], np.where(grabs, races.row_of[grab_codes], -1),
         races.targets[:, 2:]]
    )
    rates = np.column_stack(
        [races.rates[:, :1], np.where(grabs, gamma, 0.0), races.rates[:, 2:]]
    )

    reached, state_of = _reachable(np.arange(len(races.codes)), targets, len(races.codes))
    codes = races.codes[reached]
    chain = CTMC(
        rates=_rate_matrix(targets[reached], rates[reached], state_of, len(reached)),
        initial=0,
    )
    return chain, Configurations(codes, n), _goal_mask(codes, n, quality_threshold)

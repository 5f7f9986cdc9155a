"""Stochastic branching bisimulation (Definition 6 of the paper).

The paper's compositional minimisation strategy quotients intermediate
models by an equivalence that (1) abstracts from internal computation
like branching bisimulation, (2) lumps Markov transitions, and (3)
leaves the branching structure otherwise untouched.  Lemma 3 states that
this equivalence preserves uniformity -- because the uniformity
condition only constrains *stable* states, and condition 2 of the
definition forces related stable states to carry identical cumulative
rates (hence identical exit rates).

Two refinement engines compute the partition:

* ``engine="worklist"`` (the default) -- the vectorised worklist
  refinement of :mod:`repro.bisim.worklist`: CSR-encoded adjacency,
  dirty-block tracking, block-local inert-``tau`` SCC condensation and
  ``lexsort``-based signature grouping.  This is the fast path the
  compositional pipeline runs on (see ``BENCH_bisim.json``).
* ``engine="naive"`` -- the original Blom & Orzan-style signature
  refinement kept verbatim as the readable reference implementation:
  per round, every state is assigned its set of non-inert
  ``(a, target block)`` moves reachable through inert (same-block)
  ``tau`` sequences and the set of per-block cumulative-rate signatures
  of the *stable* states it reaches the same way, and blocks are split
  by signature.

Both engines walk through the identical sequence of partitions (the
property-based tests cross-check equality on random IMCs), and both
compare cumulative rates through the shared float-robust quantisation
of :mod:`repro.bisim.signatures`.

The refinement fixpoint always *is* a stochastic branching bisimulation
(this is verified exhaustively on random models in the test suite via
:func:`is_stochastic_branching_bisimulation`), so quotienting by it is
behaviour-preserving.  A quotient keeps every block of its input, also
states reachable only through Markov transitions that maximal progress
preempts; quotients of bisimilar models may therefore differ in size
(the FTWC ablation in EXPERIMENTS.md) -- compare initial states, as
:func:`repro.bisim.compare.are_branching_bisimilar` does, not sizes.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.bisim.partition import Partition, refine_to_fixpoint
from repro.bisim.quotient import quotient_imc
from repro.bisim.signatures import markov_rate_pairs, rate_signature
from repro.bisim.worklist import worklist_refine
from repro.errors import ModelError
from repro.imc.model import IMC, TAU
from repro.obs import MetricStore, span

__all__ = [
    "branching_bisimulation",
    "branching_minimize",
    "is_stochastic_branching_bisimulation",
]

#: The selectable refinement engines.
ENGINES = ("worklist", "naive")


def _rate_signature(imc: IMC, state: int, block_of: np.ndarray) -> frozenset:
    """Cumulative-rate signature ``{(block, Rate(state, block))}``.

    Accumulation is order-independent (sorted ``fsum``) and the sums are
    quantised on the shared relative grid of
    :mod:`repro.bisim.signatures`, so rates straddling a decimal
    rounding boundary can no longer split blocks that Definition 6 says
    must merge.
    """
    return rate_signature(markov_rate_pairs(imc, state, block_of))


def _signatures(imc: IMC, partition: Partition) -> list[Hashable]:
    """Branching signatures: non-inert moves and stable rate signatures
    reachable through inert ``tau`` paths."""
    n = imc.num_states
    block_of = partition.block_of

    # Inert tau graph: tau transitions staying inside their block.
    rows, cols = [], []
    for src, action, dst in imc.interactive:
        if action == TAU and block_of[src] == block_of[dst] and src != dst:
            rows.append(src)
            cols.append(dst)
    if rows:
        graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        num_comps, comp_of = connected_components(graph, directed=True, connection="strong")
    else:
        num_comps, comp_of = n, np.arange(n)

    # Local contributions per component.
    visible: list[set] = [set() for _ in range(num_comps)]
    stable_rates: list[set] = [set() for _ in range(num_comps)]
    for state in range(n):
        comp = int(comp_of[state])
        for action, target in imc.interactive_successors(state):
            if action == TAU and block_of[state] == block_of[target]:
                continue  # inert
            visible[comp].add((action, int(block_of[target])))
        if imc.is_stable(state):
            stable_rates[comp].add(_rate_signature(imc, state, block_of))

    # Condensation edges (inert edges between different components) and
    # propagation in reverse topological order: a component sees its own
    # contributions plus everything its inert successors see.
    comp_edges: set[tuple[int, int]] = set()
    for src, dst in zip(rows, cols):
        a, b = int(comp_of[src]), int(comp_of[dst])
        if a != b:
            comp_edges.add((a, b))
    successors: list[list[int]] = [[] for _ in range(num_comps)]
    indegree = np.zeros(num_comps, dtype=np.int64)
    for a, b in comp_edges:
        successors[a].append(b)
        indegree[b] += 1
    order: list[int] = [c for c in range(num_comps) if indegree[c] == 0]
    head = 0
    while head < len(order):
        comp = order[head]
        head += 1
        for nxt in successors[comp]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
    for comp in reversed(order):
        for nxt in successors[comp]:
            visible[comp] |= visible[nxt]
            stable_rates[comp] |= stable_rates[nxt]

    return [
        (frozenset(visible[int(comp_of[s])]), frozenset(stable_rates[int(comp_of[s])]))
        for s in range(n)
    ]


def _initial_partition(imc: IMC, labels: Sequence[Hashable] | None) -> Partition:
    return (
        Partition.from_labels(labels)
        if labels is not None
        else Partition.trivial(imc.num_states)
    )


def branching_bisimulation(
    imc: IMC,
    labels: Sequence[Hashable] | None = None,
    engine: str = "worklist",
    metrics: MetricStore | None = None,
) -> Partition:
    """Compute a stochastic branching bisimulation partition.

    Parameters
    ----------
    imc:
        The model to partition.
    labels:
        Optional per-state atomic propositions seeding the initial
        partition; states with different labels are never merged, so
        goal predicates survive the quotient.
    engine:
        ``"worklist"`` (vectorised dirty-block refinement, the default)
        or ``"naive"`` (the reference signature engine).  Both compute
        the same fixpoint.
    metrics:
        Optional :class:`~repro.obs.MetricStore` receiving ``bisim_*``
        counters (worklist engine only).
    """
    if engine not in ENGINES:
        raise ModelError(
            f"unknown refinement engine {engine!r}; expected one of {ENGINES}"
        )
    initial = _initial_partition(imc, labels)
    if engine == "worklist":
        return worklist_refine(imc, initial, metrics=metrics)
    return refine_to_fixpoint(initial, lambda p: _signatures(imc, p))


def branching_minimize(
    imc: IMC,
    labels: Sequence[Hashable] | None = None,
    engine: str = "worklist",
    metrics: MetricStore | None = None,
) -> tuple[IMC, Partition]:
    """Quotient ``imc`` by stochastic branching bisimilarity.

    Inert ``tau`` steps disappear in the quotient.  Returns the quotient
    together with the partition for predicate mapping.  By Corollary 1
    the quotient is uniform iff the input is.
    """
    with span("bisim.minimize", states=imc.num_states, engine=engine) as sp:
        partition = branching_bisimulation(imc, labels, engine=engine, metrics=metrics)
        quotient = quotient_imc(imc, partition, drop_inert_tau=True)
        if metrics is not None:
            metrics.count("bisim_minimize_calls")
            metrics.count(
                "bisim_states_eliminated", imc.num_states - quotient.num_states
            )
        if sp is not None:
            sp.annotate(blocks=partition.num_blocks, quotient_states=quotient.num_states)
    return quotient, partition


def is_stochastic_branching_bisimulation(imc: IMC, partition: Partition) -> bool:
    """Literal check of Definition 6 -- exponential comfort, test-sized models.

    For every pair ``(s1, t1)`` in one block and every move
    ``s1 --a--> s2``: either the move is inert (``a = tau`` and ``s2``
    stays in the block), or ``t1`` can reach, via ``tau`` steps through
    the block, a state ``t1'`` (still in the block) with an ``a`` move
    into the block of ``s2``.  And for stable ``s1``: ``t1`` reaches via
    inert ``tau`` steps a stable ``t1'`` with the same cumulative-rate
    signature.
    """
    canon = partition.canonical()
    block_of = canon.block_of

    def inert_closure(state: int) -> list[int]:
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for action, target in imc.interactive_successors(current):
                if (
                    action == TAU
                    and block_of[target] == block_of[state]
                    and target not in seen
                ):
                    seen.add(target)
                    stack.append(target)
        return sorted(seen)

    for block_states in canon.blocks():
        for s1 in block_states:
            for t1 in block_states:
                # Condition 1: interactive moves.
                for action, s2 in imc.interactive_successors(s1):
                    if action == TAU and block_of[s2] == block_of[s1]:
                        continue  # matched by (s2, t1) in B via the first disjunct
                    matched = any(
                        any(
                            a == action and block_of[t2] == block_of[s2]
                            for a, t2 in imc.interactive_successors(t1p)
                        )
                        for t1p in inert_closure(t1)
                    )
                    if not matched:
                        return False
                # Condition 2: stable states must be rate-matched.
                if imc.is_stable(s1):
                    sig = _rate_signature(imc, s1, block_of)
                    matched = any(
                        imc.is_stable(t1p)
                        and _rate_signature(imc, t1p, block_of) == sig
                        for t1p in inert_closure(t1)
                    )
                    if not matched:
                        return False
    return True

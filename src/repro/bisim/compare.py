"""Equivalence checking between two IMCs.

Section 5 of the paper reports that the CADP-generated and the
PRISM-generated FTWC models were checked to be "equivalent -- up to
uniformity".  This module provides that check: two IMCs are compared by
computing a bisimulation partition on their disjoint union and asking
whether the two initial states share a block.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.bisim.branching import branching_bisimulation
from repro.bisim.partition import Partition
from repro.bisim.strong import strong_bisimulation
from repro.errors import ModelError
from repro.imc.model import IMC

__all__ = ["disjoint_union", "are_branching_bisimilar", "are_strongly_bisimilar"]


def disjoint_union(left: IMC, right: IMC) -> tuple[IMC, int, int]:
    """Disjoint union of two IMCs.

    Returns the union (initial state taken from ``left``) together with
    the indices of both original initial states in the union.
    """
    offset = left.num_states
    names = [f"L:{left.name_of(s)}" for s in range(left.num_states)]
    names += [f"R:{right.name_of(s)}" for s in range(right.num_states)]
    union = IMC(
        num_states=left.num_states + right.num_states,
        interactive=list(left.interactive)
        + [(s + offset, a, t + offset) for s, a, t in right.interactive],
        markov=list(left.markov)
        + [(s + offset, r, t + offset) for s, r, t in right.markov],
        initial=left.initial,
        state_names=names,
    )
    return union, left.initial, right.initial + offset


def _bisimilar(
    left: IMC,
    right: IMC,
    relation: Callable[[IMC, Sequence[Hashable] | None], Partition],
    left_labels: Sequence[Hashable] | None,
    right_labels: Sequence[Hashable] | None,
) -> bool:
    if (left_labels is None) != (right_labels is None):
        raise ModelError("provide labels for both models or neither")
    union, init_left, init_right = disjoint_union(left, right)
    labels: list[Hashable] | None = None
    if left_labels is not None and right_labels is not None:
        if len(left_labels) != left.num_states or len(right_labels) != right.num_states:
            raise ModelError("one label per state required")
        labels = list(left_labels) + list(right_labels)
    partition = relation(union, labels)
    return partition.same_block(init_left, init_right)


def are_branching_bisimilar(
    left: IMC,
    right: IMC,
    left_labels: Sequence[Hashable] | None = None,
    right_labels: Sequence[Hashable] | None = None,
) -> bool:
    """Stochastic branching bisimilarity of the two initial states.

    Optional per-state labels (atomic propositions) must be respected by
    the relation; provide both or neither.

    The partition is computed by signature refinement on the disjoint
    union, so a ``True`` answer is always sound.  Bisimilar models may
    differ in size, even as quotients: states reachable only through
    Markov transitions that maximal progress preempts do not affect the
    initial states' blocks (see :mod:`repro.bisim.branching`).
    """
    return _bisimilar(left, right, branching_bisimulation, left_labels, right_labels)


def are_strongly_bisimilar(
    left: IMC,
    right: IMC,
    left_labels: Sequence[Hashable] | None = None,
    right_labels: Sequence[Hashable] | None = None,
) -> bool:
    """Strong stochastic bisimilarity of the two initial states."""
    return _bisimilar(left, right, strong_bisimulation, left_labels, right_labels)

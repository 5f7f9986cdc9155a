"""Model statistics in the shape of Table 1.

The paper reports, per model, the numbers of interactive and Markov
states and transitions of the strictly alternating IMC "which comprises
precisely what needs to be stored for the corresponding CTMDP", plus the
memory footprint.  For models produced by the IMC transformation these
numbers fall out of :class:`repro.imc.transform.TransformStatistics`;
for directly generated CTMDPs this module reconstructs them from the
sparse representation:

* interactive states  = CTMDP states,
* Markov states       = distinct rate functions (several transitions may
  share one -- e.g. all grab choices of the FTWC whose races coincide),
* interactive transitions = CTMDP transitions (word-labelled edges),
* Markov transitions  = rate entries summed over distinct rate functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ctmdp import CTMDP

__all__ = ["AlternatingStatistics", "ctmdp_alternating_statistics"]


@dataclass(frozen=True)
class AlternatingStatistics:
    """Strictly-alternating size statistics of a CTMDP."""

    interactive_states: int
    markov_states: int
    interactive_transitions: int
    markov_transitions: int
    memory_bytes: int

    def as_row(self) -> dict[str, int]:
        """Dictionary form for table rendering."""
        return {
            "inter_states": self.interactive_states,
            "markov_states": self.markov_states,
            "inter_transitions": self.interactive_transitions,
            "markov_transitions": self.markov_transitions,
            "memory_bytes": self.memory_bytes,
        }


def ctmdp_alternating_statistics(ctmdp: CTMDP) -> AlternatingStatistics:
    """Reconstruct Table-1-style statistics from a CTMDP.

    Rate functions are deduplicated structurally (same targets in the
    same stored order, same rates rounded to 12 decimals); each distinct
    function corresponds to one Markov state of the underlying strictly
    alternating IMC.  Rows are compared as byte strings, one group of
    equally long rows at a time.
    """
    matrix = ctmdp.rate_matrix
    lengths = np.diff(matrix.indptr)
    rounded = np.round(matrix.data, 12).view(np.int64)
    markov_states = 0
    markov_transitions = 0
    for length in np.unique(lengths).tolist():
        entries = matrix.indptr[:-1][lengths == length][:, None] + np.arange(length)
        keys = np.concatenate(
            [matrix.indices[entries].astype(np.int64), rounded[entries]], axis=1
        )
        rows = np.ascontiguousarray(keys).view(np.dtype((np.void, 16 * length)))
        distinct = len(np.unique(rows)) if length else 1
        markov_states += distinct
        markov_transitions += distinct * length
    return AlternatingStatistics(
        interactive_states=ctmdp.num_states,
        markov_states=markov_states,
        interactive_transitions=ctmdp.num_transitions,
        markov_transitions=markov_transitions,
        memory_bytes=ctmdp.memory_bytes(),
    )

"""Planted defect: guarded attribute written without its lock (T001).

``RacyFleetStore`` is a pocket-sized push-counting store with the
classic lost-update bug: ``record_push`` performs an unlocked read-modify-write on ``_pushes``,
so two concurrent pushes can both read the same old count and one
increment vanishes.  The file doubles as

* a static-analysis target: ``repro lint defect_unguarded_write.py``
  must flag the unlocked accesses in ``record_push`` as ``T001``; and
* a runtime reproducer: the interleaving harness in
  ``tests/tsan/test_harness.py`` pins a seed where the lost update
  actually happens.
"""

from __future__ import annotations

import threading

from repro.tsan import guarded_by


@guarded_by("_lock", "_pushes", "_payloads")
class RacyFleetStore:
    """A push-counting store whose push path forgot to take its lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pushes = 0
        self._payloads: list[str] = []

    def record_push(self, payload: str) -> int:
        # BUG: read-modify-write of guarded state without self._lock.
        count = self._pushes + 1
        self._pushes = count
        self._payloads.append(payload)
        return count

    def snapshot(self) -> tuple[int, tuple[str, ...]]:
        with self._lock:
            return self._pushes, tuple(self._payloads)

"""AN003 fixture: a lock-order cycle and an unguarded cross-thread write.

``poll`` acquires ``_lock`` then ``_aux``; ``drain`` acquires them in
the opposite order — the classic AB/BA deadlock.  Both threads also
bump ``_pulse`` outside any lock, while ``_jobs`` (always guarded) and
``_beacon`` (waived) show the clean and the waived shapes.
"""

from __future__ import annotations

import threading


class Coordinator:
    """Two worker threads sharing a pair of locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._aux = threading.Lock()
        self._jobs = 0
        self._pulse = 0
        self._beacon = 0
        threading.Thread(target=self.poll, daemon=True).start()
        threading.Thread(target=self.drain, daemon=True).start()

    def poll(self) -> None:
        with self._lock:
            with self._aux:
                self._jobs += 1
        self._pulse += 1
        self._beacon = 1  # reprolint: disable=AN003 -- advisory heartbeat, monotonic flag

    def drain(self) -> None:
        with self._aux:
            with self._lock:
                self._jobs -= 1
        self._pulse -= 1
        self._beacon = 0  # reprolint: disable=AN003 -- advisory heartbeat, monotonic flag

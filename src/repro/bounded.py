"""One bounded table for every memo the engine keeps.

Plans, parsed query texts, compiled constraints, ModT results and the
operators' per-schema state are all memos: a key maps to a value computed
once and served many times.  Each lives in a :class:`BoundedTable`, so one
rule covers them all:

* a read is a plain ``dict`` probe (``get``, ``in``, ``[]``): no lock, and
  it never writes, so a plan shared by every thread is never changed by
  being used;
* the only writes are :meth:`BoundedTable.file` and
  :meth:`BoundedTable.clear`, under one lock shared by every table, and a
  full table evicts its oldest entry (FIFO) to make room;
* a table pickles empty: a memo is process-local, and whoever unpickles it
  files again.

This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import threading


class BoundedTable(dict):
    """A ``dict`` of at most ``limit`` entries, filed under one lock.

    Audit threads file beside the session thread.  Finding the oldest key,
    evicting it and filing the new one is one step under the lock, so two
    filers never evict the same key, iterate a table the other is
    changing, or both take the last slot.
    """

    __slots__ = ("limit",)

    _filing = threading.Lock()

    def __init__(self, limit: int = 1024):
        super().__init__()
        self.limit = limit

    def file(self, key, value) -> None:
        """Map ``key`` to ``value``, evicting the oldest entry when full."""
        with self._filing:
            if key not in self and len(self) >= self.limit:
                del self[next(iter(self))]
            self[key] = value

    def clear(self) -> None:
        with self._filing:
            super().clear()

    def __reduce__(self):
        return (type(self), (self.limit,))

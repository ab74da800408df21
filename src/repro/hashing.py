"""Hash-once support for immutable, structurally hashed objects.

Expression and predicate nodes are frozen dataclasses, and relation schemas
are never mutated after construction: their ``__hash__`` walks the whole
structure, and the plan, per-database and per-schema caches hash the same
objects on every probe.  :func:`hash_once` makes a class compute that hash
once per object.

The memo is process-local state, never part of the value: string hashes
are salted per process (``PYTHONHASHSEED``), while schemas travel in
checkpoints and expressions to spawn workers, so pickling (and with it
``copy.copy``) leaves the memo out.  It is not a dataclass field either:
``dataclasses.fields`` / ``replace``, ``==`` and ``repr`` do not see it.
"""

from __future__ import annotations


def hash_once(cls):
    """Class decorator: memoise ``cls.__hash__`` per object.

    Apply it outermost (after ``@dataclass`` has generated ``__hash__``).
    Instances need a ``__dict__`` and must not change in any way their
    hash depends on.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        # A fresh object reads the class-level None: a first hash raises
        # and catches nothing.  (Written with ``object.__setattr__``, past a
        # frozen dataclass's own; touching ``__dict__`` instead would
        # materialize it and slow every later attribute read of the node.)
        value = self._structural_hash
        if value is None:
            value = structural(self)
            object.__setattr__(self, "_structural_hash", value)
        return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_structural_hash", None)
        return state

    cls._structural_hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls

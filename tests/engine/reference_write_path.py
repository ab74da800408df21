"""The tuple-at-a-time write path the engine shipped until PR 14.

Kept verbatim as the oracle for the set-at-a-time kernels
(``tests/properties/test_prop_bulk_write.py``, ``tests/engine/
test_bulk_write.py``) and as the baseline of the bulk-commit variant in
``benchmarks/bench_transaction.py``.  Nothing under ``src/`` imports it.

Every function is the body of the method it is named after as it stood
before the kernels, turned into a free function over the same objects
(``Relation._rows``, ``HashIndex.buckets``, the aggregate memo), so a
relation driven through this module and one driven through
``insert_many`` / ``insert_counts`` / ``apply_deltas`` can be compared
field by field:

=============================  ==========================================
here                           was
=============================  ==========================================
``index_add`` / ``index_remove``  ``HashIndex.add`` / ``remove``
``index_build``                ``HashIndex.build``
``row_added`` / ``row_removed``   ``IndexSet.row_added`` / ``row_removed``, plus
                               the unread charge (``HashIndex.charge``)
``insert`` / ``delete``        ``Relation.insert`` / ``delete``
``insert_many`` / ``delete_many``  ``Relation.insert_many`` / ``delete_many``
``overlay_insert`` / ``overlay_delete``  ``OverlayRelation.insert`` / ``delete``
``ReferenceContext``           ``TransactionContext.insert_rows`` /
                               ``delete_rows`` / ``commit``
``apply_deltas``               ``Database.apply_deltas``
=============================  ==========================================
"""

from repro.engine.relation import shift_aggregate_state
from repro.engine.transaction import TransactionContext
from repro.engine.types import NULL

# -- hash indexes ----------------------------------------------------------------


def index_add(index, row):
    key = index.key_of(row)
    bucket = index.buckets.get(key)
    if bucket is None:
        index.buckets[key] = {row: None}
    else:
        bucket[row] = None


def index_remove(index, row):
    key = index.key_of(row)
    bucket = index.buckets.get(key)
    if bucket is None:
        return
    bucket.pop(row, None)
    if not bucket:
        del index.buckets[key]


def index_build(index, rows):
    index.buckets = {}
    for row in rows:
        index_add(index, row)
    index.unread = 0
    index.built = True
    return index


# The one rule added since: an index of a database's base relation that
# files more rows unread than the relation holds goes back to declared.
# Charged here row by row, by the kernel once per batch; the two agree
# because within one batch the count only grows, and the rows held only
# shrink (deletes) or grow in step with it (inserts).


def _held(relation):
    return len(relation._rows) if relation._observer is not None else None


def _charge(index, held):
    if held is not None:
        index.unread += 1
        if index.unread > held:
            index.built = False
            index.buckets = {}


def row_added(indexes, row, held=None):
    for index in indexes._indexes.values():
        if index.built:
            index_add(index, row)
            _charge(index, held)


def row_removed(indexes, row, held=None):
    for index in indexes._indexes.values():
        if index.built:
            index_remove(index, row)
            _charge(index, held)


# -- relations -------------------------------------------------------------------


def _shift_aggregates(relation, row, occurrences):
    memo = relation._aggregates
    for key in tuple(memo):
        item = row[key[1]]
        if item is NULL:
            continue
        state = shift_aggregate_state(key[0], memo[key], item, occurrences)
        if state is None:
            del memo[key]
        else:
            memo[key] = state


def insert(relation, row, _validated=False):
    if relation._observer is not None:
        relation._observer.note_mutation()
    row = tuple(row) if _validated else relation.schema.validate_tuple(tuple(row))
    if relation.bag:
        count = relation._rows.get(row, 0)
        relation._rows[row] = count + 1
        if relation._aggregates is not None:
            _shift_aggregates(relation, row, 1)
        if count == 0 and relation._indexes is not None:
            row_added(relation._indexes, row, _held(relation))
        return True
    if row in relation._rows:
        return False
    relation._rows[row] = 1
    if relation._aggregates is not None:
        _shift_aggregates(relation, row, 1)
    if relation._indexes is not None:
        row_added(relation._indexes, row, _held(relation))
    return True


def delete(relation, row):
    if relation._observer is not None:
        relation._observer.note_mutation()
    row = tuple(row)
    count = relation._rows.get(row)
    if count is None:
        return False
    if relation.bag and count > 1:
        relation._rows[row] = count - 1
    else:
        del relation._rows[row]
        if relation._indexes is not None:
            row_removed(relation._indexes, row, _held(relation))
    if relation._aggregates is not None:
        _shift_aggregates(relation, row, -1)
    return True


def insert_many(relation, rows):
    return sum(1 for row in rows if insert(relation, row))


def delete_many(relation, rows):
    return sum(1 for row in rows if delete(relation, row))


# -- overlays --------------------------------------------------------------------


def overlay_insert(overlay, row, _validated=False):
    row = tuple(row) if _validated else overlay.schema.validate_tuple(tuple(row))
    if not overlay.bag:
        if row in overlay.plus._rows:
            return False
        count = overlay.base._rows.get(row)
        if count is not None and overlay.minus._rows.get(row, 0) < count:
            return False
    overlay._materialized = None
    if not delete(overlay.minus, row):
        insert(overlay.plus, row, _validated=True)
    return True


def overlay_delete(overlay, row):
    row = tuple(row)
    if row not in overlay:
        return False
    overlay._materialized = None
    if not delete(overlay.plus, row):
        insert(overlay.minus, row, _validated=True)
    return True


# -- transactions and commits ----------------------------------------------------


def apply_deltas(database, differentials, advance_time=True, record=True):
    pre_time = database.logical_time
    committed = None
    database.epochs.begin_write()
    try:
        for name, (plus, minus) in differentials.items():
            relation = database.relation(name)
            if minus is not None:
                for row, count in minus.items():
                    delete(relation, row)
                    for _ in range(count - 1):  # bag-mode extra occurrences
                        delete(relation, row)
            if plus is not None:
                for row, count in plus.items():
                    insert(relation, row, _validated=True)
                    for _ in range(count - 1):
                        insert(relation, row, _validated=True)
        if advance_time:
            database.logical_time += 1
        committed = database.commit_log.append(
            differentials, pre_time, database.logical_time, record,
            trim=database.epochs._trim_locked,
        )
    finally:
        database.epochs.end_write()
    if record and database.wal is not None:
        database.wal.append(committed)


class ReferenceContext(TransactionContext):
    """A transaction context writing and committing one tuple at a time."""

    def insert_rows(self, base, rows):
        target = self._working_copy(base)
        changed = 0
        for row in rows:
            if overlay_insert(target, row):
                changed += 1
        self.tuples_inserted += changed
        return changed

    def delete_rows(self, base, rows):
        target = self._working_copy(base)
        changed = 0
        for row in list(rows):
            if overlay_delete(target, row):
                changed += 1
        self.tuples_deleted += changed
        return changed

    def commit(self):
        differentials = {
            base: (self._plus.get(base), self._minus.get(base))
            for base in self.working
        }
        apply_deltas(self.database, differentials)

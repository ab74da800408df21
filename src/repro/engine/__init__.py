"""Main-memory relational engine (the PRISMA/DB stand-in).

This package provides the database substrate of the reproduction: typed
relation and database schemas (paper Defs 2.1-2.2), set- and multiset-based
relation instances, database states with logical time and transitions
(Def 2.3), and a transaction manager implementing the bracketed-program
transaction model of Def 2.5 (atomicity, temporary relations, pre-transaction
auxiliary state ``R@old`` and differential relations ``R@plus``/``R@minus``).
"""

from repro.engine.types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    Domain,
    NULL,
    value_in_domain,
)
from repro.engine.schema import Attribute, DatabaseSchema, RelationSchema
from repro.engine.relation import Relation
from repro.engine.overlay import OverlayRelation
from repro.engine.epochs import (
    EpochManager,
    EpochPin,
    EpochSpan,
    SnapshotRelation,
)
from repro.engine.commitlog import CommitLog, CommitRecord
from repro.engine.database import Database, DatabaseSnapshot
from repro.engine.transaction import (
    Transaction,
    TransactionManager,
    TransactionResult,
    TransactionStatus,
)
from repro.engine.session import Session
from repro.engine.wal import WriteAheadLog
from repro.engine.recovery import RecoveryReport, recover, replay_to

__all__ = [
    "RecoveryReport",
    "WriteAheadLog",
    "recover",
    "replay_to",
    "Attribute",
    "BOOL",
    "CommitLog",
    "CommitRecord",
    "Database",
    "DatabaseSchema",
    "DatabaseSnapshot",
    "Domain",
    "EpochManager",
    "EpochPin",
    "EpochSpan",
    "FLOAT",
    "INT",
    "NULL",
    "OverlayRelation",
    "Relation",
    "RelationSchema",
    "Session",
    "SnapshotRelation",
    "STRING",
    "Transaction",
    "TransactionManager",
    "TransactionResult",
    "TransactionStatus",
    "value_in_domain",
]

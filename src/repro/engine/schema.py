"""Relation and database schemas (paper Definitions 2.1 and 2.2).

A :class:`RelationSchema` is a relation name plus an ordered list of typed
attributes; its *type* is the cartesian product of the attribute domains.
A :class:`DatabaseSchema` is a named set of relation schemas.

Attribute positions are **1-based** throughout the library, matching the
paper's attribute-selection terms ``x.i`` (Def 4.2).  Attributes can equally
be addressed by name (``x.alcohol`` in the paper's examples).
"""

from __future__ import annotations

from operator import contains
from typing import Iterable, Iterator, Sequence

from repro.engine.types import NULL, Domain, domain_by_name, value_in_domain
from repro.errors import (
    DuplicateRelationError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.hashing import hash_once

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_identifier(name: str, what: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _IDENT_OK:
        raise SchemaError(f"invalid {what} name {name!r}")
    return name


class Attribute:
    """A single typed attribute of a relation schema."""

    __slots__ = ("name", "domain", "nullable")

    def __init__(self, name: str, domain: Domain | str, nullable: bool = False):
        self.name = _check_identifier(name, "attribute")
        self.domain = domain_by_name(domain) if isinstance(domain, str) else domain
        self.nullable = nullable

    def __repr__(self) -> str:
        suffix = "?" if self.nullable else ""
        return f"{self.name}:{self.domain}{suffix}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Attribute)
            and self.name == other.name
            and self.domain is other.domain
            and self.nullable == other.nullable
        )

    def __hash__(self) -> int:
        return hash((self.name, self.domain.name, self.nullable))

    def as_nullable(self) -> "Attribute":
        """Return a nullable copy of this attribute."""
        if self.nullable:
            return self
        return Attribute(self.name, self.domain, nullable=True)


_NULL_TYPE = frozenset({type(NULL)})


def _types_of(column: tuple) -> set:
    return set(map(type, column))


@hash_once
class RelationSchema:
    """A relation schema ``R(A_1, ..., A_n)`` (paper Def 2.1).

    Immutable after construction; operators key per-schema compiled state
    on it, so the structural hash is computed once per object.
    """

    def __init__(self, name: str, attributes: Sequence[Attribute | tuple]):
        self.name = _check_identifier(name, "relation")
        attrs = []
        for spec in attributes:
            if isinstance(spec, Attribute):
                attrs.append(spec)
            else:
                attrs.append(Attribute(*spec))
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [attribute.name for attribute in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names")
        self.attributes: tuple = tuple(attrs)
        self._index_by_name = {
            attribute.name: position
            for position, attribute in enumerate(self.attributes, start=1)
        }
        # Per attribute, the value types validate_tuple() accepts and stores
        # unchanged; NULL fits exactly the nullable attributes.
        self._exact_types = tuple(
            attribute.domain.exact_types | _NULL_TYPE
            if attribute.nullable
            else attribute.domain.exact_types
            for attribute in self.attributes
        )

    # -- structure ----------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attributes (the degree of the relation)."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple:
        return tuple(attribute.name for attribute in self.attributes)

    def position_of(self, attribute: int | str) -> int:
        """Resolve an attribute reference (1-based position or name).

        Returns the 1-based position; raises UnknownAttributeError otherwise.
        """
        if isinstance(attribute, int):
            if 1 <= attribute <= self.arity:
                return attribute
            raise UnknownAttributeError(attribute, self.name)
        position = self._index_by_name.get(attribute)
        if position is None:
            raise UnknownAttributeError(attribute, self.name)
        return position

    def attribute_at(self, attribute: int | str) -> Attribute:
        """Return the Attribute addressed by position or name."""
        return self.attributes[self.position_of(attribute) - 1]

    # -- validation ---------------------------------------------------------

    def validate_tuple(self, values: tuple) -> tuple:
        """Check arity and domains of ``values``; return the tuple.

        Raises TypeMismatchError when the tuple does not fit the schema.
        FLOAT attributes coerce ints to float so mixed literals behave.
        """
        if len(values) != self.arity:
            raise TypeMismatchError(
                f"tuple of arity {len(values)} does not fit relation "
                f"{self.name!r} of arity {self.arity}"
            )
        coerced = []
        for value, attribute in zip(values, self.attributes):
            if value_in_domain(value, attribute.domain, attribute.nullable):
                if attribute.domain.name == "float" and isinstance(value, int):
                    value = float(value)
                coerced.append(value)
            else:
                raise TypeMismatchError(
                    f"value {value!r} not valid for attribute "
                    f"{self.name}.{attribute.name} ({attribute.domain})"
                )
        return tuple(coerced)

    def validate_rows(self, rows: Iterable[Sequence]) -> list:
        """:meth:`validate_tuple` over a batch; returns the list of tuples.

        Rows whose values all have exactly the types their attributes store
        unchanged are accepted column by column, without a Python-level
        call per value.  Anything else in the batch — an int for a FLOAT
        attribute, a subclass of a value type, a wrong arity, a bad value —
        sends every row through :meth:`validate_tuple` in order, which
        coerces or raises exactly as single-row validation does.  Either
        way nothing is returned unless every row fits.
        """
        rows = list(map(tuple, rows))
        exact = self._exact_types
        arity = len(exact)
        if len(rows) == 1:
            row = rows[0]
            if len(row) == arity and all(map(contains, exact, map(type, row))):
                return rows
        elif set(map(len, rows)) <= {arity} and all(
            map(frozenset.issuperset, exact, map(_types_of, zip(*rows)))
        ):
            return rows
        validate = self.validate_tuple
        return [validate(row) for row in rows]

    def is_union_compatible(self, other: "RelationSchema") -> bool:
        """True when both schemas have the same domain sequence."""
        if self.arity != other.arity:
            return False
        return all(
            mine.domain is theirs.domain
            for mine, theirs in zip(self.attributes, other.attributes)
        )

    # -- derivation ---------------------------------------------------------

    def renamed(self, new_name: str) -> "RelationSchema":
        """Return a copy of this schema under a different relation name."""
        return RelationSchema(new_name, self.attributes)

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:
        attrs = ", ".join(repr(attribute) for attribute in self.attributes)
        return f"{self.name}({attrs})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationSchema)
            and self.name == other.name
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __reduce__(self):
        # Everything else is derived from these two; schemas travel in
        # every write-ahead-log record and worker payload.
        return (RelationSchema, (self.name, self.attributes))


class DatabaseSchema:
    """A database schema: a set of relation schemas (paper Def 2.2)."""

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: dict = {}
        # Monotonic DDL counter: bumped on every add().  Caches keyed on a
        # schema (e.g. the plan-backed constraint cache) compare versions to
        # detect that compiled artifacts predate a schema change.
        self.version = 0
        for schema in relations:
            self.add(schema)

    def add(self, schema: RelationSchema) -> RelationSchema:
        """Add a relation schema; raise on duplicate names."""
        if schema.name in self._relations:
            raise DuplicateRelationError(
                f"relation {schema.name!r} already in database schema"
            )
        self._relations[schema.name] = schema
        self.version += 1
        return schema

    def relation(self, name: str) -> RelationSchema:
        """Look up a relation schema by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, "database schema") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple:
        return tuple(self._relations)

    def __repr__(self) -> str:
        names = ", ".join(self._relations)
        return f"DatabaseSchema({names})"

"""A small DDL text form for relation schemas.

The paper defines schemas mathematically (Def 2.1); tests and the CLI need
a text form.  Syntax:

.. code-block:: text

    relation beer(name string, type string, brewery string, alcohol float)
    relation brewery(name string, city string null, country string null)

Domains: ``int``, ``float``, ``string``, ``bool`` (plus the aliases of
:func:`repro.engine.types.domain_by_name`); a trailing ``null`` marks the
attribute nullable.
"""

from __future__ import annotations

from typing import List

from repro.engine.schema import Attribute, DatabaseSchema, RelationSchema
from repro.engine.types import domain_by_name
from repro.errors import ParseError, TypeMismatchError
from repro.lex import TokenStream


def parse_relation_schema(text: str) -> RelationSchema:
    """Parse one ``relation name(attr domain [null], ...)`` declaration."""
    stream = TokenStream(text)
    schema = _relation(stream)
    stream.expect_eof()
    return schema


def parse_schema(text: str) -> DatabaseSchema:
    """Parse a sequence of relation declarations into a database schema."""
    stream = TokenStream(text)
    relations: List[RelationSchema] = []
    while not stream.at("EOF"):
        relations.append(_relation(stream))
        stream.accept("OP", ";")
    if not relations:
        raise ParseError("schema text contains no relation declarations")
    return DatabaseSchema(relations)


def _relation(stream: TokenStream) -> RelationSchema:
    stream.expect_name("relation")
    name = stream.expect("NAME").value
    stream.expect("OP", "(")
    attributes = [_attribute(stream)]
    while stream.accept("OP", ","):
        attributes.append(_attribute(stream))
    stream.expect("OP", ")")
    return RelationSchema(name, attributes)


def _attribute(stream: TokenStream) -> Attribute:
    name = stream.expect("NAME").value
    domain_token = stream.expect("NAME")
    try:
        domain = domain_by_name(domain_token.value)
    except TypeMismatchError:
        raise ParseError(
            f"unknown domain {domain_token.value!r} at position "
            f"{domain_token.position}"
        ) from None
    nullable = stream.accept_name("null") is not None
    return Attribute(name, domain, nullable=nullable)


def render_relation_schema(schema: RelationSchema) -> str:
    """Render a schema back to DDL text (round-trip property tested)."""
    attributes = ", ".join(
        f"{attribute.name} {attribute.domain.name}"
        + (" null" if attribute.nullable else "")
        for attribute in schema.attributes
    )
    return f"relation {schema.name}({attributes})"

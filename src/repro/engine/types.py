"""Attribute domains and value handling.

The paper (Def 2.1) defines each attribute on a domain ``dom(A_i)``.  We
provide the four scalar domains needed by the paper's examples and the CL
language (integers, floats, strings, booleans) plus an explicit ``NULL``
marker used by generalized projection (the paper's Example 4.2 inserts
``(name, null, null)`` tuples as a compensating action).

Values are plain Python objects; domains are small singleton descriptors that
know how to validate and coerce values.  Keeping values unboxed keeps the
evaluator fast, which matters for the Section 7 benchmarks.
"""

from __future__ import annotations

from typing import Any

from repro.errors import TypeMismatchError


class _Null:
    """Singleton SQL-style null marker.

    ``NULL`` compares unequal to everything including itself under the
    three-valued-logic helpers in :mod:`repro.algebra.predicates`; as a Python
    object it is hashable and equal only to itself so it can live in tuples
    stored in set-based relations.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


NULL = _Null()


class Domain:
    """A scalar attribute domain.

    Instances are shared singletons (:data:`INT`, :data:`FLOAT`,
    :data:`STRING`, :data:`BOOL`).  A domain validates values and defines
    which Python types are acceptable representations.
    """

    def __init__(self, name: str, pytypes: tuple, coerce=None):
        self.name = name
        self.pytypes = pytypes
        self._coerce = coerce
        # The types whose values are members *and* are stored as they are,
        # by exact type: what batch validation accepts without looking at
        # the values (RelationSchema.validate_rows).  A coercing domain
        # stores only its coercion's own type unchanged (FLOAT turns an int
        # into a float); matching by exact type keeps ``bool`` out of INT
        # and FLOAT, and no value but a bare ``object()`` has the type ANY
        # lists — every other value goes through :meth:`contains`.
        self.exact_types = frozenset(
            pytypes if coerce is None else (t for t in pytypes if t is coerce)
        )

    def __repr__(self) -> str:
        return f"Domain({self.name})"

    def __str__(self) -> str:
        return self.name

    def __reduce_ex__(self, protocol):
        # Domains are compared by identity (``is BOOL``, ``Attribute.__eq__``),
        # so a pickle of a shared singleton — schemas travel in checkpoints
        # and worker payloads — names it instead of copying it.
        if _SINGLETONS.get(self.name) is self:
            return (_singleton, (self.name,))
        return super().__reduce_ex__(protocol)

    def contains(self, value: Any) -> bool:
        """Return True when ``value`` is a member of this domain."""
        if self is ANY:
            return True
        if isinstance(value, bool):
            # bool is a subclass of int in Python; keep the domains disjoint.
            return self is BOOL
        return isinstance(value, self.pytypes)

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` into this domain or raise TypeMismatchError."""
        if self.contains(value):
            return value
        if self._coerce is not None:
            try:
                return self._coerce(value)
            except (TypeError, ValueError):
                pass
        raise TypeMismatchError(
            f"value {value!r} is not in domain {self.name}"
        )


INT = Domain("int", (int,))
FLOAT = Domain("float", (float, int), coerce=float)
STRING = Domain("string", (str,))
BOOL = Domain("bool", (bool,))

# ANY is used only for *derived* relation schemas (projection of computed
# values, aggregate results, NULL literals) where a precise domain cannot be
# inferred.  Base relations always carry precise domains; inserting a derived
# relation into a base relation re-validates every tuple against the target.
ANY = Domain("any", (object,))

_SINGLETONS = {domain.name: domain for domain in (INT, FLOAT, STRING, BOOL, ANY)}


def _singleton(name: str) -> Domain:
    return _SINGLETONS[name]

_DOMAINS_BY_NAME = {
    "int": INT,
    "integer": INT,
    "float": FLOAT,
    "real": FLOAT,
    "double": FLOAT,
    "string": STRING,
    "str": STRING,
    "text": STRING,
    "bool": BOOL,
    "boolean": BOOL,
}


def domain_by_name(name: str) -> Domain:
    """Look up a domain by (case-insensitive) name.

    Accepts the common aliases (``integer``, ``real``, ``text``...) so schema
    definitions read naturally.
    """
    try:
        return _DOMAINS_BY_NAME[name.lower()]
    except KeyError:
        raise TypeMismatchError(f"unknown domain name {name!r}") from None


def value_in_domain(value: Any, domain: Domain, nullable: bool = False) -> bool:
    """Return True when ``value`` is acceptable for an attribute.

    ``NULL`` is acceptable only for nullable attributes.
    """
    if value is NULL:
        return nullable
    return domain.contains(value)


def is_null(value: Any) -> bool:
    """Return True when ``value`` is the NULL marker."""
    return value is NULL

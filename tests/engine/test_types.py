"""Domains, NULL, and value validation."""

import copy
import pickle

import pytest

from repro.engine.types import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    NULL,
    STRING,
    Domain,
    domain_by_name,
    is_null,
    value_in_domain,
)
from repro.errors import TypeMismatchError


class TestDomains:
    def test_int_contains_int(self):
        assert INT.contains(5)

    def test_int_rejects_bool(self):
        # bool is an int subclass in Python; the domains stay disjoint.
        assert not INT.contains(True)

    def test_bool_contains_bool(self):
        assert BOOL.contains(False)

    def test_bool_rejects_int(self):
        assert not BOOL.contains(0)

    def test_float_contains_int(self):
        assert FLOAT.contains(3)

    def test_float_coerces_int(self):
        assert FLOAT.coerce(3) == 3

    def test_string_contains_str(self):
        assert STRING.contains("abc")

    def test_string_rejects_int(self):
        assert not STRING.contains(1)

    def test_any_contains_everything(self):
        for value in (1, 1.5, "x", True, NULL, None):
            assert ANY.contains(value)

    def test_coerce_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            INT.coerce("not an int")

    def test_domain_by_name_aliases(self):
        assert domain_by_name("integer") is INT
        assert domain_by_name("TEXT") is STRING
        assert domain_by_name("real") is FLOAT
        assert domain_by_name("boolean") is BOOL

    def test_domain_by_name_unknown(self):
        with pytest.raises(TypeMismatchError):
            domain_by_name("decimal")

    def test_str_and_repr(self):
        assert str(INT) == "int"
        assert "int" in repr(INT)

    def test_pickle_preserves_singleton_identity(self):
        # Domains compare by identity; an unpickled BOOL that is not BOOL
        # would reject booleans, and an unpickled schema would equal nothing.
        for domain in (INT, FLOAT, STRING, BOOL, ANY):
            assert pickle.loads(pickle.dumps(domain)) is domain
        assert pickle.loads(pickle.dumps(BOOL)).contains(True)
        custom = pickle.loads(pickle.dumps(Domain("int", (int,))))
        assert custom is not INT and custom.name == "int"


class TestNull:
    def test_singleton(self):
        from repro.engine.types import _Null

        assert _Null() is NULL

    def test_falsy(self):
        assert not NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(0)
        assert not is_null(None)

    def test_deepcopy_preserves_identity(self):
        assert copy.deepcopy(NULL) is NULL
        assert copy.copy(NULL) is NULL

    def test_repr(self):
        assert repr(NULL) == "NULL"


class TestValueInDomain:
    def test_null_needs_nullable(self):
        assert not value_in_domain(NULL, INT, nullable=False)
        assert value_in_domain(NULL, INT, nullable=True)

    def test_plain_value(self):
        assert value_in_domain(7, INT)
        assert not value_in_domain("x", INT)

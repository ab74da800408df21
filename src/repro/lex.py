r"""A small shared tokenizer for the library's text languages.

Three text languages share this lexer: the constraint language CL
(:mod:`repro.calculus.parser`), the integrity rule language RL
(:mod:`repro.core.rule_language`), and the extended-algebra program/
transaction language (:mod:`repro.algebra.parser`).

The token grammar is one compiled regular expression (``_MASTER``).  Every
match first skips blanks (space, tab, CR, LF only) and ``#`` comments to
end of line, then takes the first of these alternatives that matches, in
this priority order:

``OP``
    ``:= => <= >= != <>`` before the single characters
    ``( ) [ ] { } , ; . < > = + - * /`` (longest match first);
``FLOAT``
    ``[0-9]+`` followed by a fraction ``.[0-9]+``, an exponent
    ``[eE][+-]?[0-9]+``, or both — tried before ``INT`` so ``1.5`` is one
    token while ``1.`` and ``1e`` are ``INT`` plus what follows;
``INT``
    ``[0-9]+`` — ASCII digits only: ``²`` or ``٣`` are unexpected
    characters, not numbers;
``NAME``
    ``[A-Za-z_][A-Za-z0-9_]*``, optionally with one auxiliary suffix
    ``@old`` / ``@plus`` / ``@minus`` as part of the same token
    (``rel@old``);
*bad auxiliary*
    a name directly followed by ``@`` and anything else: a ``LexError``
    naming the unknown suffix, at the ``@``;
``STRING``
    single- or double-quoted, backslash escapes ``\n`` ``\t`` and
    ``\<any character>`` for that character, newlines allowed;
*alias*
    the paper's notation ``∀ ∃ ∧ ∨ ¬ ⇒ → ∈ ≠ ≤ ≥ −``, normalized to the
    ``NAME`` or ``OP`` of its ASCII spelling (the token text stays the
    symbol);
``EOF``
    the end of the text, after trailing blanks and comments — always the
    last token, positioned at ``len(text)``;
*anything else*
    a ``LexError`` with position and text: an opening quote that no
    ``STRING`` matched is an unterminated string literal, any other
    character is unexpected.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from repro.errors import LexError, ParseError


class Token(NamedTuple):
    kind: str
    value: object
    text: str
    position: int


# Unicode aliases normalize to their ASCII spelling.
_UNICODE_ALIASES = {
    "∀": "forall",
    "∃": "exists",
    "∧": "and",
    "∨": "or",
    "¬": "not",
    "⇒": "=>",
    "→": "=>",
    "∈": "in",
    "≠": "!=",
    "≤": "<=",
    "≥": ">=",
    "−": "-",
}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# The ``EOF`` and ``BAD`` alternatives make the pattern match at every
# position, so ``finditer`` never skips a character and never backtracks
# into the blanks-and-comments prefix.
_MASTER = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
    r"(?P<OP>:=|=>|<=|>=|!=|<>|[()\[\]{},;.<>=+\-*/])"
    r"|(?P<FLOAT>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<INT>[0-9]+)"
    rf"|(?P<NAME>{_NAME}(?:@(?:old|plus|minus)(?![A-Za-z0-9_])|(?![A-Za-z0-9_@])))"
    rf"|(?P<BADAUX>{_NAME}@[A-Za-z0-9_]*)"
    r"""|(?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')"""
    rf"|(?P<ALIAS>[{''.join(_UNICODE_ALIASES)}])"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(match) -> str:
    escape = match.group(1)
    return _ESCAPED.get(escape, escape)


def tokenize(text: str) -> list:
    """Tokenize ``text``; raises LexError on invalid input."""
    tokens = []
    append = tokens.append
    # NamedTuple's generated __new__ is a Python-level call around this one;
    # at ~60 tokens per small transaction the direct form is worth having.
    new = tuple.__new__
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        group = match.lastindex
        lexeme = match[group]
        position = match.start(group)
        if kind == "OP" or kind == "NAME":
            value = lexeme
        elif kind == "INT":
            value = int(lexeme)
        elif kind == "FLOAT":
            value = float(lexeme)
        elif kind == "STRING":
            value = lexeme[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
        elif kind == "EOF":
            break
        elif kind == "ALIAS":
            value = _UNICODE_ALIASES[lexeme]
            kind = "NAME" if value[0].isalpha() else "OP"
        elif kind == "BADAUX":
            name, _, suffix = lexeme.partition("@")
            raise LexError(
                f"unknown auxiliary suffix {suffix!r}", position + len(name), text
            )
        elif lexeme in "'\"":
            raise LexError("unterminated string literal", position, text)
        else:
            raise LexError(f"unexpected character {lexeme!r}", position, text)
        append(new(Token, (kind, value, lexeme, position)))
    append(Token("EOF", None, "", len(text)))
    return tokens


class TokenStream:
    """A cursor over a token list with the usual parser conveniences.

    ``tokens`` always ends with the ``EOF`` token and ``index`` never moves
    past it, so ``tokens[index]`` is always valid; parsers' hot loops read
    the two attributes directly and write ``index`` back.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, ahead: int = 1) -> Token:
        index = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def at(self, kind: str, value: Optional[object] = None) -> bool:
        token = self.tokens[self.index]
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def at_name(self, *names: str) -> bool:
        """True when the current token is one of the given keywords.

        Keyword matching is case-insensitive, so ``FORALL`` and ``forall``
        are the same token (the paper mixes fonts, not spellings).
        """
        token = self.tokens[self.index]
        if token.kind != "NAME":
            return False
        return token.value.lower() in names

    def accept(self, kind: str, value: Optional[object] = None) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind != kind or (value is not None and token.value != value):
            return None
        if kind != "EOF":
            self.index += 1
        return token

    def accept_name(self, *names: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind != "NAME" or token.value.lower() not in names:
            return None
        self.index += 1
        return token

    def expect(self, kind: str, value: Optional[object] = None) -> Token:
        token = self.tokens[self.index]
        if token.kind == kind and (value is None or token.value == value):
            if kind != "EOF":
                self.index += 1
            return token
        want = value if value is not None else kind
        raise ParseError(
            f"expected {want!r} but found {self.current.text or 'end of input'!r} "
            f"at position {self.current.position}"
        )

    def expect_name(self, *names: str) -> Token:
        token = self.tokens[self.index]
        if token.kind == "NAME" and token.value.lower() in names:
            self.index += 1
            return token
        raise ParseError(
            f"expected one of {names} but found "
            f"{self.current.text or 'end of input'!r} "
            f"at position {self.current.position}"
        )

    def expect_eof(self) -> None:
        if self.current.kind != "EOF":
            raise ParseError(
                f"unexpected trailing input {self.current.text!r} "
                f"at position {self.current.position}"
            )

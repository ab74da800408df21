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
    characters, not numbers; more digits than the interpreter converts
    (CPython: 4,300) are a ``LexError`` at the literal, not ``int``'s
    ``ValueError``;
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

A text is scanned once, by one ``findall`` of that expression, into
parallel columns with one entry per token, ``EOF`` included:

``kinds``
    the names above (``"OP"``, ``"INT"``, ...), decided from the lexeme's
    first character in one loop (``_scan``) — the only place tokens are
    classified;
``values``
    what a parser compares and keeps: the operator or name itself, the
    ``int`` / ``float``, the unescaped string, an alias's ASCII spelling,
    ``None`` for ``EOF``;
*pairs*
    ``(blanks, lexeme)`` as matched: the blanks and comments in front of
    the token and its characters as written.  No parser reads these; they
    are what a ``Token``'s text and every position are derived from.

There is no per-token object and no position in that.  The matches tile
the text, so a token starts where all earlier blanks and lexemes end:
``TokenStream.positions`` is a running sum over lengths the scan already
holds — no second pass over the text — computed the first time somebody
asks and kept on the stream.  Who asks: an error message (every
``ParseError`` and ``LexError`` names a position), the stream's methods
that hand out a :class:`Token` (``current``, ``peek``, ``advance``,
``accept``, ``expect``; the CL and DDL parsers use them, once per rule or
schema), and :func:`tokenize`, the positional token-list form of the same
columns, which the RL parser slices the text by.  What it costs: the sum,
about a third of the scan, and a ``Token`` per request; a conforming
transaction or query pays neither.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, chain, islice
from operator import itemgetter
from string import ascii_letters, digits
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
# Group 1 is the blanks and comments before a lexeme, group 2 the lexeme.
# The last two alternatives (the end of the text, any character) make the
# pattern match at every position, so the matches tile the text: no
# character is skipped, nothing backtracks into group 1, and a lexeme
# starts where everything before it ends.
_MASTER = re.compile(
    r"([ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*)("
    r":=|=>|<=|>=|!=|<>|[()\[\]{},;.<>=+\-*/]"
    r"|[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
    r"|[0-9]+"
    rf"|{_NAME}(?:@(?:old|plus|minus)(?![A-Za-z0-9_])|(?![A-Za-z0-9_@]))"
    rf"|{_NAME}@[A-Za-z0-9_]*"
    r"""|"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'"""
    rf"|[{''.join(_UNICODE_ALIASES)}]"
    r"|\Z"
    r"|.)",
    re.DOTALL,
)
# What a lexeme's first character says about it.  ``!`` and ``:`` are left
# out (an operator only as ``!=`` and ``:=``), as are quotes and aliases:
# ``_uncommon`` reads those.
_KIND_BY_FIRST = {
    **dict.fromkeys("()[]{},;.<>=+-*/", "OP"),
    **dict.fromkeys(ascii_letters + "_", "NAME"),
    **dict.fromkeys(digits, "NUMBER"),
}
_AUXILIARY_SUFFIXES = ("@old", "@plus", "@minus")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(match) -> str:
    escape = match.group(1)
    return _ESCAPED.get(escape, escape)


def _uncommon(lexeme: str):
    """``(kind, value)`` of a string, an alias, an auxiliary name, ``!=`` or
    ``:=``; ``None`` for a lexeme that is no token."""
    if lexeme[0] in "'\"":
        if len(lexeme) == 1:
            return None
        value = lexeme[1:-1]
        if "\\" in value:
            value = _ESCAPE.sub(_unescape, value)
        return "STRING", value
    value = _UNICODE_ALIASES.get(lexeme)
    if value is not None:
        return ("NAME" if value[0].isalpha() else "OP"), value
    if lexeme in ("!=", ":="):
        return "OP", lexeme
    if lexeme.endswith(_AUXILIARY_SUFFIXES):
        return "NAME", lexeme
    return None


def _lex_error(lexeme: str, position: int, text: str) -> LexError:
    if len(lexeme) > 1:  # only a name with a bad suffix is that long
        name, _, suffix = lexeme.partition("@")
        return LexError(
            f"unknown auxiliary suffix {suffix!r}", position + len(name), text
        )
    if lexeme in "'\"":
        return LexError("unterminated string literal", position, text)
    return LexError(f"unexpected character {lexeme!r}", position, text)


def _positions(pairs) -> list:
    """Where each lexeme starts: the length of everything before it."""
    ends = accumulate(map(len, chain.from_iterable(pairs)))
    return list(islice(ends, 0, None, 2))


def _scan(text: str):
    """``(kinds, values, pairs)``: the two columns parsers read, and the
    ``(blanks, lexeme)`` pair of every token as the expression matched it."""
    pairs = _MASTER.findall(text)
    if len(pairs) > 1 and not pairs[-2][1]:
        # After trailing blanks the end of the text matches twice: once
        # behind them and once more, empty, where that match stopped.
        del pairs[-1]
    kinds = []
    values = []
    kind_by_first = _KIND_BY_FIRST.get
    for _, lexeme in pairs[:-1]:
        kind = kind_by_first(lexeme[0])
        if kind == "OP" or (kind == "NAME" and "@" not in lexeme):
            value = lexeme
        elif kind == "NUMBER":
            if lexeme.isdigit():
                kind = "INT"
                try:
                    value = int(lexeme)
                except ValueError:  # CPython's limit on int <-> str digits
                    raise LexError(
                        f"integer literal of {len(lexeme)} digits is too long",
                        _positions(pairs)[len(kinds)],
                        text,
                    ) from None
            else:
                kind = "FLOAT"
                value = float(lexeme)
        else:
            token = _uncommon(lexeme)
            if token is None:
                raise _lex_error(lexeme, _positions(pairs)[len(kinds)], text)
            kind, value = token
        kinds.append(kind)
        values.append(value)
    kinds.append("EOF")
    values.append(None)
    return kinds, values, pairs


def tokenize(text: str) -> list:
    """Tokenize ``text``; raises LexError on invalid input."""
    kinds, values, pairs = _scan(text)
    lexemes = map(itemgetter(1), pairs)
    return list(map(Token._make, zip(kinds, values, lexemes, _positions(pairs))))


class TokenStream:
    """A cursor over the token columns with the usual parser conveniences.

    ``kinds`` and ``values`` are parallel, always end with the ``EOF``
    token, and ``index`` never moves past it, so ``kinds[index]`` is always
    valid; parsers' hot loops read the two columns directly and write
    ``index`` back.  The methods that hand out a :class:`Token` build it
    (and, once, ``positions``) when called.
    """

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values, self._pairs = _scan(text)
        self.index = 0

    @cached_property
    def positions(self) -> list:
        return _positions(self._pairs)

    def token(self, index: int) -> Token:
        return Token(
            self.kinds[index],
            self.values[index],
            self._pairs[index][1],
            self.positions[index],
        )

    @property
    def current(self) -> Token:
        return self.token(self.index)

    def peek(self, ahead: int = 1) -> Token:
        return self.token(min(self.index + ahead, len(self.kinds) - 1))

    def advance(self) -> Token:
        token = self.token(self.index)
        if token.kind != "EOF":
            self.index += 1
        return token

    def at(self, kind: str, value: Optional[object] = None) -> bool:
        if self.kinds[self.index] != kind:
            return False
        return value is None or self.values[self.index] == value

    def at_name(self, *names: str) -> bool:
        """True when the current token is one of the given keywords.

        Keyword matching is case-insensitive, so ``FORALL`` and ``forall``
        are the same token (the paper mixes fonts, not spellings).
        """
        if self.kinds[self.index] != "NAME":
            return False
        return self.values[self.index].lower() in names

    def accept(self, kind: str, value: Optional[object] = None) -> Optional[Token]:
        if not self.at(kind, value):
            return None
        return self.advance()

    def accept_name(self, *names: str) -> Optional[Token]:
        if not self.at_name(*names):
            return None
        return self.advance()

    def expect(self, kind: str, value: Optional[object] = None) -> Token:
        if self.at(kind, value):
            return self.advance()
        want = value if value is not None else kind
        raise ParseError(
            f"expected {want!r} but found {self.current.text or 'end of input'!r} "
            f"at position {self.current.position}"
        )

    def expect_name(self, *names: str) -> Token:
        if self.at_name(*names):
            return self.advance()
        raise ParseError(
            f"expected one of {names} but found "
            f"{self.current.text or 'end of input'!r} "
            f"at position {self.current.position}"
        )

    def expect_eof(self) -> None:
        if self.kinds[self.index] != "EOF":
            raise ParseError(
                f"unexpected trailing input {self.current.text!r} "
                f"at position {self.current.position}"
            )

"""The hand-written character scanner `repro.lex` shipped until PR 13.

Kept verbatim as the oracle for the master-regex lexer
(``tests/engine/test_lex_oracle.py``) and as the baseline of
``benchmarks/bench_frontend.py``.  It is not imported by anything under
``src/``.  Two behaviours of this scanner were bugs and are *not* shared
by the new lexer (both come from ``str.isdigit()`` accepting non-ASCII
digits): ``tokenize("²")`` escapes as a stray ``ValueError`` from
``int()``, and ``tokenize("x = ٣")`` lexes an Arabic-Indic digit as
``INT 3``.
"""

from repro.errors import LexError
from repro.lex import Token

# Longest operators first so the scanner can use greedy matching.
_OPERATORS = [
    ":=",
    "=>",
    "<=",
    ">=",
    "!=",
    "<>",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ".",
    "<",
    ">",
    "=",
    "+",
    "-",
    "*",
    "/",
]

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

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")
_AUX_SUFFIXES = ("old", "plus", "minus")


def tokenize(text: str) -> list:
    """Tokenize ``text``; raises LexError on invalid input."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[ch]
            kind = "NAME" if alias[0].isalpha() else "OP"
            tokens.append(Token(kind, alias, ch, i))
            i += 1
            continue
        if ch in _NAME_START:
            start = i
            while i < n and text[i] in _NAME_CONT:
                i += 1
            name = text[start:i]
            # Auxiliary relation names: name@old / name@plus / name@minus.
            if i < n and text[i] == "@":
                j = i + 1
                while j < n and text[j] in _NAME_CONT:
                    j += 1
                suffix = text[i + 1 : j]
                if suffix not in _AUX_SUFFIXES:
                    raise LexError(
                        f"unknown auxiliary suffix {suffix!r}", i, text
                    )
                name = f"{name}@{suffix}"
                i = j
            tokens.append(Token("NAME", name, name, start))
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            is_float = False
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    is_float = True
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            literal = text[start:i]
            if is_float:
                tokens.append(Token("FLOAT", float(literal), literal, start))
            else:
                tokens.append(Token("INT", int(literal), literal, start))
            continue
        if ch in "'\"":
            quote = ch
            start = i
            i += 1
            parts = []
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    escape = text[i + 1]
                    parts.append({"n": "\n", "t": "\t"}.get(escape, escape))
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
            if i >= n:
                raise LexError("unterminated string literal", start, text)
            i += 1
            tokens.append(Token("STRING", "".join(parts), text[start:i], start))
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, op, i))
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", i, text)
    tokens.append(Token("EOF", None, "", n))
    return tokens

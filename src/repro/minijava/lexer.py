"""Lexer for mini-Java, the corpus client-code language.

Mini-Java covers the Java constructs jungloid mining actually consumes:
declarations, assignments, calls, ``new``, casts, field access, and simple
control flow. The token set is correspondingly small; string/char/int
literals are supported because corpus code passes them as arguments.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple

from .errors import MjLexError


class MjTokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int"
    STRING_LIT = "string"
    CHAR_LIT = "char"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "package",
        "import",
        "class",
        "interface",
        "extends",
        "implements",
        "public",
        "protected",
        "private",
        "static",
        "final",
        "abstract",
        "void",
        "boolean",
        "byte",
        "short",
        "char",
        "int",
        "long",
        "float",
        "double",
        "return",
        "new",
        "if",
        "else",
        "while",
        "true",
        "false",
        "null",
        "this",
    }
)

#: Skips whitespace and comments, then matches one token: one alternative
#: per token class, tried in this order. An ASCII ``word`` always starts
#: an identifier or keyword; a ``uword`` uses the Unicode classes:
#: ``[^\W\d]`` is a superset of ``str.isalpha`` and ``\d`` a subset of
#: ``str.isdigit``, so :func:`tokenize` settles the few non-ASCII
#: characters on which they disagree.
_MASTER = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?:
      (?P<word>[A-Za-z_$][\w$]*)
    | (?P<open_comment>/\*)
    | (?P<punct>==|!=|<=|>=|&&|\|\||[{}()\[\];,.=<>+\-*/%!])
    | (?P<uword>[^\W\d][\w$]*)
    | (?P<int>\d[\dxXa-fA-FlL]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<char>'(?:\\.|[^\\])')
    | (?P<open_quote>["'])
    | (?P<other>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Characters that continue an int literal besides digits.
_INT_LETTERS = frozenset("xXabcdefABCDEFlL")


class MjToken(NamedTuple):
    kind: MjTokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is MjTokenKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind is MjTokenKind.PUNCT and self.text == text

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


def _int_end(text: str, end: int) -> int:
    """Where an int literal continuing at ``end`` stops: it takes digits
    (also those the pattern's ``int`` class misses, such as ``²``) and
    hex letters."""
    n = len(text)
    while end < n and (text[end].isdigit() or text[end] in _INT_LETTERS):
        end += 1
    return end


def tokenize(text: str) -> List[MjToken]:
    """Tokenize mini-Java source, raising :class:`MjLexError` on bad input."""
    tokens: List[MjToken] = []
    append = tokens.append
    match = _MASTER.match
    new = tuple.__new__  # skips MjToken's Python-level __new__
    ident, keyword, punct = MjTokenKind.IDENT, MjTokenKind.KEYWORD, MjTokenKind.PUNCT
    line, line_start = 1, 0  # line_start: index of the line's first char
    pos = 0  # ``line`` and ``line_start`` hold at ``pos``, the last token's end
    while True:
        m = match(text, pos)
        group = m.lastgroup
        start, end = m.span(group)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        if group == "word":
            word = text[start:end]
            append(new(MjToken, (keyword if word in KEYWORDS else ident, word, line, column)))
        elif group == "punct":
            append(new(MjToken, (punct, text[start:end], line, column)))
        elif group == "uword":
            first = text[start]
            if first.isalpha():
                append(MjToken(ident, text[start:end], line, column))
            elif first.isdigit():
                end = _int_end(text, start + 1)
                append(MjToken(MjTokenKind.INT_LIT, text[start:end], line, column))
            else:
                raise MjLexError(f"unexpected character {first!r}", line, column)
        elif group == "int":
            end = _int_end(text, end)
            append(MjToken(MjTokenKind.INT_LIT, text[start:end], line, column))
        elif group == "string" or group == "char":
            kind = MjTokenKind.STRING_LIT if group == "string" else MjTokenKind.CHAR_LIT
            append(MjToken(kind, text[start + 1 : end - 1], line, column))
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
        elif group == "eof":
            append(MjToken(MjTokenKind.EOF, "", line, column))
            return tokens
        elif group == "open_comment":
            raise MjLexError("unterminated block comment", line, column)
        elif group == "open_quote":
            what = "string" if text[start] == '"' else "char"
            raise MjLexError(f"unterminated {what} literal", line, column)
        else:
            raise MjLexError(f"unexpected character {text[start]!r}", line, column)
        pos = end

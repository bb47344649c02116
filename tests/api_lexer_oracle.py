"""The original character-by-character ``.api`` stub lexer, kept as a test oracle.

``repro.apispec.lexer`` tokenizes with one compiled master pattern; this
is the loop it replaced. ``tests/test_apispec_lexer.py`` checks that both
give the same tokens, and the same error message, line and column, on
generated stubs and on every bundled one.

One change from the loop as it shipped: a ``//`` comment now advances the
column, so an EOF token that follows a line comment with no newline
after it reports the column past the comment, not the comment's start.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.apispec.errors import ApiLexError
from repro.apispec.lexer import KEYWORDS, TokenKind

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
}

#: ``(kind, text, line, column)``, the fields of a ``Token``.
OracleToken = Tuple[TokenKind, str, int, int]


def oracle_tokenize(text: str) -> List[OracleToken]:
    """Tokenize ``text`` as the original lexer did."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[OracleToken]:
    i = 0
    line = 1
    column = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
                column += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise ApiLexError("unterminated block comment", line, column)
            skipped = text[i : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                i += 1
            word = text[start:i]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            yield (kind, word, line, column)
            column += i - start
            continue
        if ch in _PUNCT:
            yield (_PUNCT[ch], ch, line, column)
            i += 1
            column += 1
            continue
        raise ApiLexError(f"unexpected character {ch!r}", line, column)
    yield (TokenKind.EOF, "", line, column)

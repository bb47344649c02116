"""The original character-by-character mini-Java lexer, kept as a test oracle.

``repro.minijava.lexer`` tokenizes with one compiled master pattern; this
is the loop it replaced. ``tests/test_minijava_lexer.py`` checks that both
give the same tokens, and the same error message, line and column, on
generated sources.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.minijava.errors import MjLexError
from repro.minijava.lexer import KEYWORDS, MjTokenKind

#: Multi-character operators first so maximal munch works.
_PUNCTUATION = (
    "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "<", ">",
    "+", "-", "*", "/", "%", "!",
)

#: ``(kind, text, line, column)``, the fields of an ``MjToken``.
OracleToken = Tuple[MjTokenKind, str, int, int]


def oracle_tokenize(text: str) -> List[OracleToken]:
    """Tokenize ``text`` as the original lexer did."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[OracleToken]:
    i = 0
    line = 1
    column = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise MjLexError("unterminated block comment", line, column)
            advance(end + 2 - i)
            continue
        if ch.isalpha() or ch in "_$":
            start_line, start_col = line, column
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                advance(1)
            word = text[start:i]
            kind = MjTokenKind.KEYWORD if word in KEYWORDS else MjTokenKind.IDENT
            yield (kind, word, start_line, start_col)
            continue
        if ch.isdigit():
            start_line, start_col = line, column
            start = i
            while i < n and (text[i].isdigit() or text[i] in "xXabcdefABCDEFlL"):
                advance(1)
            yield (MjTokenKind.INT_LIT, text[start:i], start_line, start_col)
            continue
        if ch == '"':
            start_line, start_col = line, column
            j = i + 1
            value = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    value.append(text[j : j + 2])
                    j += 2
                else:
                    value.append(text[j])
                    j += 1
            if j >= n:
                raise MjLexError("unterminated string literal", start_line, start_col)
            advance(j + 1 - i)
            yield (MjTokenKind.STRING_LIT, "".join(value), start_line, start_col)
            continue
        if ch == "'":
            start_line, start_col = line, column
            j = i + 1
            if j < n and text[j] == "\\":
                j += 2
            else:
                j += 1
            if j >= n or text[j] != "'":
                raise MjLexError("unterminated char literal", start_line, start_col)
            value = text[i + 1 : j]
            advance(j + 1 - i)
            yield (MjTokenKind.CHAR_LIT, value, start_line, start_col)
            continue
        matched = False
        for punct in _PUNCTUATION:
            if text.startswith(punct, i):
                yield (MjTokenKind.PUNCT, punct, line, column)
                advance(len(punct))
                matched = True
                break
        if matched:
            continue
        raise MjLexError(f"unexpected character {ch!r}", line, column)
    yield (MjTokenKind.EOF, "", line, column)

"""Lexer for the ``.api`` stub language.

The stub language is a Java-signature subset: package headers, class and
interface declarations with modifiers, and member signatures (no bodies).
The lexer produces a flat token stream with line/column positions for
error reporting; ``//`` and ``/* */`` comments are skipped. It matches
one compiled master pattern per token, as the mini-Java lexer does.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple

from .errors import ApiLexError


class TokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "package",
        "class",
        "interface",
        "extends",
        "implements",
        "public",
        "protected",
        "private",
        "static",
        "abstract",
        "final",
        "native",
        "synchronized",
        "void",
        "boolean",
        "byte",
        "short",
        "char",
        "int",
        "long",
        "float",
        "double",
    }
)

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


#: Skips whitespace and comments, then matches one token. An ASCII
#: ``word`` always starts an identifier or keyword; a ``uword`` starts
#: with a Unicode word character that is not a decimal digit, which
#: :func:`tokenize` accepts only when ``str.isalpha`` does.
_MASTER = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?:
      (?P<word>[A-Za-z_$][\w$]*)
    | (?P<punct>[{}()\[\],;.])
    | (?P<uword>[^\W\d][\w$]*)
    | (?P<open_comment>/\*)
    | (?P<other>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


def tokenize(text: str) -> List[Token]:
    """Tokenize stub-file text, raising :class:`ApiLexError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    new = tuple.__new__  # skips Token's Python-level __new__
    ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
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
        if group == "word" or (group == "uword" and text[start].isalpha()):
            word = text[start:end]
            append(new(Token, (keyword if word in KEYWORDS else ident, word, line, column)))
        elif group == "punct":
            ch = text[start]
            append(new(Token, (_PUNCT[ch], ch, line, column)))
        elif group == "eof":
            append(Token(TokenKind.EOF, "", line, column))
            return tokens
        elif group == "open_comment":
            raise ApiLexError("unterminated block comment", line, column)
        else:
            raise ApiLexError(f"unexpected character {text[start]!r}", line, column)
        pos = end

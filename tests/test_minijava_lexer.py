"""Tests for the mini-Java lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import corpus_texts
from repro.minijava import MjLexError, MjTokenKind, tokenize

from .lexer_oracle import oracle_tokenize


def texts(src):
    return [t.text for t in tokenize(src) if t.kind is not MjTokenKind.EOF]


class TestTokens:
    def test_keywords_and_identifiers(self):
        toks = tokenize("return newValue new")
        assert toks[0].kind is MjTokenKind.KEYWORD
        assert toks[1].kind is MjTokenKind.IDENT  # maximal munch: not "new"
        assert toks[2].kind is MjTokenKind.KEYWORD

    def test_int_literals(self):
        toks = tokenize("0 42 0xFF 10L")
        assert all(t.kind is MjTokenKind.INT_LIT for t in toks[:-1])

    def test_string_literal(self):
        toks = tokenize('"hello world"')
        assert toks[0].kind is MjTokenKind.STRING_LIT
        assert toks[0].text == "hello world"

    def test_string_with_escapes(self):
        toks = tokenize(r'"a\"b"')
        assert toks[0].text == 'a\\"b'

    def test_unterminated_string(self):
        with pytest.raises(MjLexError):
            tokenize('"never ends')

    def test_char_literal(self):
        toks = tokenize("'x' '\\n'")
        assert toks[0].kind is MjTokenKind.CHAR_LIT
        assert toks[0].text == "x"
        assert toks[1].text == "\\n"

    def test_unterminated_char(self):
        with pytest.raises(MjLexError):
            tokenize("'x")

    def test_two_char_operators_are_single_tokens(self):
        assert texts("a == b != c <= d >= e && f || g") == [
            "a", "==", "b", "!=", "c", "<=", "d", ">=", "e", "&&", "f", "||", "g",
        ]

    def test_comments(self):
        assert texts("a // line\n b /* block\nmore */ c") == ["a", "b", "c"]

    def test_unterminated_block_comment(self):
        with pytest.raises(MjLexError):
            tokenize("a /* no end")

    def test_unexpected_character(self):
        with pytest.raises(MjLexError):
            tokenize("a # b")


class TestPositions:
    def test_multiline_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_position_inside_line(self):
        toks = tokenize("ab cd")
        assert toks[1].column == 4


# ----------------------------------------------------------------------
# Differential test against the original character loop
# ----------------------------------------------------------------------

#: Source fragments: identifiers (ASCII and not), keywords, literals of
#: every kind, both comment kinds, CRLF and other whitespace, and the
#: broken or stray pieces each error comes from.
_FRAGMENTS = (
    "x", "newValue", "_tmp", "$gen", "a1", "café", "πr", "Ⅻx",
    "new", "return", "class", "int", "null", "this",
    "0", "42", "0xFF", "10L", "7abc", "3²", "²5", "½",
    '"s"', '""', '"a\\"b"', '"two\nlines"', '"esc\\\n"', '"\\\\"',
    "'x'", "'\\n'", "'\\''", "'''", "'\n'",
    "// line", "// to eof", "/* block */", "/* multi\r\nline */", "/**/", "/*/", "*/",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f", " ",
    "==", "!=", "<=", ">=", "&&", "||", "&", "|", "=", "<", ">", "!",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "+", "-", "*", "/", "%",
    '"', "'", "'\\", "/*", "#", "@", "\\", "?",
)


def _outcome(lex, source):
    """The token tuples, or the error's message, line and column."""
    try:
        return [tuple(token) for token in lex(source)]
    except MjLexError as exc:
        return ("error", str(exc), exc.line, exc.column)


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12))
    def test_fragments(self, parts):
        source = "".join(parts)
        assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\r\n/*\"'\\xX0123456789aLé²½_$.=&|!<>#{}", max_size=30))
    def test_characters(self, source):
        assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)

    def test_bundled_corpus(self):
        for name, text in corpus_texts():
            assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text), name

    @pytest.mark.parametrize(
        "source",
        ["a /* no end", 'x\n  "never ends', "\r\n 'x", "a\r\n # b", "ab ½", "q = '\\"],
    )
    def test_errors_keep_message_and_position(self, source):
        outcome = _outcome(tokenize, source)
        assert outcome[0] == "error"
        assert outcome == _outcome(oracle_tokenize, source)

    def test_tokens_keep_their_helpers(self):
        semi, ret = tokenize("; return")[:2]
        assert semi.is_punct(";") and not semi.is_keyword(";")
        assert ret.is_keyword("return") and not ret.is_punct("return")

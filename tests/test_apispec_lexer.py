"""Tests for the .api stub lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apispec import ApiLexError, Token, TokenKind, tokenize
from repro.data import api_stub_texts

from .api_lexer_oracle import oracle_tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text) if t.kind is not TokenKind.EOF]


class TestBasics:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_keywords_vs_identifiers(self):
        toks = tokenize("class Foo extends Bar")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENT
        assert toks[2].kind is TokenKind.KEYWORD
        assert toks[3].kind is TokenKind.IDENT

    def test_punctuation(self):
        assert texts("{ } ( ) [ ] , ; .") == ["{", "}", "(", ")", "[", "]", ",", ";", "."]

    def test_dollar_and_underscore_identifiers(self):
        assert texts("$x _y") == ["$x", "_y"]

    def test_primitives_are_keywords(self):
        for word in ("int", "boolean", "void", "double"):
            assert tokenize(word)[0].kind is TokenKind.KEYWORD


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("class // ignore me\n Foo") == ["class", "Foo"]

    def test_block_comment_skipped(self):
        assert texts("class /* one\ntwo */ Foo") == ["class", "Foo"]

    def test_unterminated_block_comment(self):
        with pytest.raises(ApiLexError):
            tokenize("class /* never ends")


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("class\n  Foo")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_position_after_block_comment(self):
        toks = tokenize("/* a\nb */ class")
        assert toks[0].line == 2

    def test_error_position(self):
        with pytest.raises(ApiLexError) as exc:
            tokenize("class @")
        assert exc.value.line == 1
        assert exc.value.column == 7


class TestHelpers:
    def test_is_keyword(self):
        tok = Token(TokenKind.KEYWORD, "class", 1, 1)
        assert tok.is_keyword("class")
        assert not tok.is_keyword("interface")


# ----------------------------------------------------------------------
# Differential test against the original character loop
# ----------------------------------------------------------------------

#: Stub fragments: identifiers (ASCII and not), keywords, every
#: punctuation mark, both comment kinds, CRLF and other whitespace, and
#: the broken or stray pieces each error comes from.
_FRAGMENTS = (
    "x", "Foo", "_tmp", "$gen", "a1", "café", "πr", "Ⅻx", "java.lang.String",
    "package", "class", "interface", "extends", "public", "static", "void", "int",
    "{", "}", "(", ")", "[", "]", ",", ";", ".",
    "// line", "// to eof", "/* block */", "/* multi\r\nline */", "/**/", "/*/", "*/",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\u00a0",
    "/*", "/", "#", "@", "1", "²", "½", "=", "<", '"',
)


def _outcome(lex, source):
    """The token tuples, or the error's message, line and column."""
    try:
        return [tuple(token) for token in lex(source)]
    except ApiLexError as exc:
        return ("error", str(exc), exc.line, exc.column)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12))
    def test_fragments(self, parts):
        source = "".join(parts)
        assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=" \t\r\n/*{}()[];,.xX_$é²½1#", max_size=30))
    def test_characters(self, source):
        assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)

    def test_bundled_stubs(self):
        for name, text in api_stub_texts():
            assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text), name

    @pytest.mark.parametrize(
        "source", ["a /* no end", "class\r\n  @", "x\n /* one\n */ ²", "½"]
    )
    def test_errors_keep_message_and_position(self, source):
        outcome = _outcome(tokenize, source)
        assert outcome[0] == "error"
        assert outcome == _outcome(oracle_tokenize, source)

    def test_eof_after_a_line_comment_is_past_the_comment(self):
        assert tokenize("class // x")[-1] == (TokenKind.EOF, "", 1, 11)

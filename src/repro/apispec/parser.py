"""Recursive-descent parser for the ``.api`` stub language.

Grammar (bodies are signatures only — this is a *declaration* language)::

    file       := package? typedecl*
    package    := 'package' dotted ';'
    typedecl   := mods ('class' | 'interface') IDENT
                  ('extends' typelist)? ('implements' typelist)? '{' member* '}'
    member     := mods (constructor | method | field)
    constructor:= IDENT '(' params? ')' ';'          -- IDENT = enclosing simple name
    method     := type IDENT '(' params? ')' ';'
    field      := type IDENT ';'
    type       := ('void' | primitive | dotted) ('[' ']')*
    params     := type IDENT? (',' type IDENT?)*

Type references are *unresolved* strings here; :mod:`repro.apispec.loader`
links them against the :class:`~repro.typesystem.TypeRegistry` in a second
pass so stub files may reference each other freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ApiParseError
from .lexer import Token, TokenKind, tokenize

_PRIMITIVES = frozenset(
    {"boolean", "byte", "short", "char", "int", "long", "float", "double"}
)
_MODIFIERS = frozenset(
    {"public", "protected", "private", "static", "abstract", "final", "native", "synchronized"}
)


@dataclass(frozen=True)
class RawType:
    """An unresolved type reference: a (possibly dotted) name plus dims."""

    name: str
    dims: int = 0

    @property
    def is_void(self) -> bool:
        return self.name == "void" and self.dims == 0

    @property
    def is_primitive(self) -> bool:
        return self.name in _PRIMITIVES

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


@dataclass(frozen=True)
class RawParam:
    type: RawType
    name: Optional[str] = None


@dataclass(frozen=True)
class RawMember:
    """One member signature; ``return_type is None`` marks a constructor,
    ``params is None`` marks a field."""

    name: str
    return_type: Optional[RawType]
    params: Optional[Tuple[RawParam, ...]]
    modifiers: Tuple[str, ...] = ()

    @property
    def is_constructor(self) -> bool:
        return self.return_type is None

    @property
    def is_field(self) -> bool:
        return self.params is None and self.return_type is not None


@dataclass
class RawTypeDecl:
    package: str
    name: str
    is_interface: bool
    extends: List[RawType] = field(default_factory=list)
    implements: List[RawType] = field(default_factory=list)
    members: List[RawMember] = field(default_factory=list)
    modifiers: Tuple[str, ...] = ()

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}" if self.package else self.name


@dataclass
class RawFile:
    package: str
    declarations: List[RawTypeDecl]


class _Parser:
    def __init__(self, tokens: List[Token], source: str = "<api>"):
        self._tokens = tokens
        self._last = len(tokens) - 1  # the EOF token's index
        self._pos = 0
        self._cur = tokens[0]
        self._source = source

    # -- token plumbing -------------------------------------------------

    def _advance(self) -> Token:
        tok = self._cur
        if self._pos < self._last:
            self._pos += 1
            self._cur = self._tokens[self._pos]
        return tok

    def _error(self, message: str) -> ApiParseError:
        tok = self._cur
        return ApiParseError(f"{self._source}: {message} (found {tok.text!r})", tok.line, tok.column)

    def _expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        tok = self._cur
        if tok.kind is not kind or (text is not None and tok.text != text):
            raise self._error(f"expected {text or kind.value}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._cur.is_keyword(word):
            self._advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse_file(self) -> RawFile:
        package = ""
        first_package = None
        decls = []
        while self._cur.kind is not TokenKind.EOF:
            if self._cur.is_keyword("package"):
                self._advance()
                package = self._dotted_name()
                self._expect(TokenKind.SEMI)
                if first_package is None:
                    first_package = package
                continue
            decls.append(self._type_decl(package))
        return RawFile(first_package or package, decls)

    def _dotted_name(self) -> str:
        parts = [self._expect_ident()]
        while self._cur.kind is TokenKind.DOT:
            self._advance()
            parts.append(self._expect_ident())
        return ".".join(parts)

    def _expect_ident(self) -> str:
        tok = self._cur
        if tok.kind is not TokenKind.IDENT:
            raise self._error("expected identifier")
        self._advance()
        return tok.text

    def _modifiers(self) -> Tuple[str, ...]:
        mods = []
        while self._cur.kind is TokenKind.KEYWORD and self._cur.text in _MODIFIERS:
            mods.append(self._advance().text)
        return tuple(mods)

    def _type_decl(self, package: str) -> RawTypeDecl:
        mods = self._modifiers()
        if self._accept_keyword("class"):
            is_interface = False
        elif self._accept_keyword("interface"):
            is_interface = True
        else:
            raise self._error("expected 'class' or 'interface'")
        name = self._expect_ident()
        decl = RawTypeDecl(package, name, is_interface, modifiers=mods)
        if self._accept_keyword("extends"):
            decl.extends = self._type_list()
        if self._accept_keyword("implements"):
            if is_interface:
                raise self._error("interfaces use 'extends', not 'implements'")
            decl.implements = self._type_list()
        self._expect(TokenKind.LBRACE)
        while self._cur.kind is not TokenKind.RBRACE:
            decl.members.append(self._member(name))
        self._expect(TokenKind.RBRACE)
        return decl

    def _type_list(self) -> List[RawType]:
        types = [self._type()]
        while self._cur.kind is TokenKind.COMMA:
            self._advance()
            types.append(self._type())
        return types

    def _type(self) -> RawType:
        tok = self._cur
        if tok.kind is TokenKind.KEYWORD and (tok.text == "void" or tok.text in _PRIMITIVES):
            self._advance()
            name = tok.text
        elif tok.kind is TokenKind.IDENT:
            name = self._dotted_name()
        else:
            raise self._error("expected a type")
        dims = 0
        while self._cur.kind is TokenKind.LBRACKET:
            self._advance()
            self._expect(TokenKind.RBRACKET)
            dims += 1
        if name == "void" and dims:
            raise self._error("void cannot have array dimensions")
        return RawType(name, dims)

    def _member(self, class_name: str) -> RawMember:
        mods = self._modifiers()
        # Constructor: simple name equal to the class name, then '('.
        if (
            self._cur.kind is TokenKind.IDENT
            and self._cur.text == class_name
            and self._peek_kind(1) is TokenKind.LPAREN
        ):
            self._advance()
            params = self._params()
            self._expect(TokenKind.SEMI)
            return RawMember(class_name, None, params, mods)
        rtype = self._type()
        name = self._expect_ident()
        if self._cur.kind is TokenKind.LPAREN:
            params = self._params()
            self._expect(TokenKind.SEMI)
            return RawMember(name, rtype, params, mods)
        self._expect(TokenKind.SEMI)
        return RawMember(name, rtype, None, mods)

    def _peek_kind(self, offset: int) -> TokenKind:
        pos = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[pos].kind

    def _params(self) -> Tuple[RawParam, ...]:
        self._expect(TokenKind.LPAREN)
        params: List[RawParam] = []
        if self._cur.kind is not TokenKind.RPAREN:
            params.append(self._param())
            while self._cur.kind is TokenKind.COMMA:
                self._advance()
                params.append(self._param())
        self._expect(TokenKind.RPAREN)
        return tuple(params)

    def _param(self) -> RawParam:
        ptype = self._type()
        name = None
        if self._cur.kind is TokenKind.IDENT:
            name = self._advance().text
        return RawParam(ptype, name)


def parse_api(text: str, source: str = "<api>") -> RawFile:
    """Parse one stub file into raw (unresolved) declarations."""
    return _Parser(tokenize(text), source).parse_file()

"""The original recursive-descent mini-Java parser, kept as a test oracle.

``repro.minijava.parser`` tests a token's kind and text with one lookup
in a per-token key list and parses binary operators by precedence
climbing; this is the parser it replaced, one method per precedence
level and a helper call per token test. ``tests/test_minijava_parser.py``
checks that both give equal ASTs, positions included, or the same error
message, line and column.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.minijava.ast import (
    AssignStmt,
    BinaryExpr,
    Block,
    BoolLit,
    CallExpr,
    CastExpr,
    CharLit,
    ClassDecl,
    CompilationUnit,
    Expr,
    ExprStmt,
    FieldAccessExpr,
    FieldDecl,
    IfStmt,
    IntLit,
    LocalVarDecl,
    MethodDecl,
    NewExpr,
    NullLit,
    ParamDecl,
    Position,
    ReturnStmt,
    Stmt,
    StringLit,
    ThisExpr,
    TypeRef,
    UnaryExpr,
    VarRef,
    WhileStmt,
)
from repro.minijava.errors import MjParseError
from repro.minijava.lexer import MjToken, MjTokenKind, tokenize

_PRIMITIVE_WORDS = frozenset(
    {"boolean", "byte", "short", "char", "int", "long", "float", "double"}
)
_MODIFIER_WORDS = frozenset(
    {"public", "protected", "private", "static", "final", "abstract"}
)


class _Parser:
    def __init__(self, tokens: List[MjToken], source: str):
        self._tokens = tokens
        self._pos = 0
        self._source = source

    # -- plumbing ---------------------------------------------------------

    @property
    def _cur(self) -> MjToken:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> MjToken:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> MjToken:
        tok = self._cur
        if tok.kind is not MjTokenKind.EOF:
            self._pos += 1
        return tok

    def _position(self) -> Position:
        return Position(self._cur.line, self._cur.column)

    def _error(self, message: str, tok: Optional[MjToken] = None) -> MjParseError:
        tok = tok or self._cur
        return MjParseError(
            f"{self._source}: {message} (found {tok.text!r})", tok.line, tok.column
        )

    def _expect_punct(self, text: str) -> MjToken:
        if not self._cur.is_punct(text):
            raise self._error(f"expected {text!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> MjToken:
        if not self._cur.is_keyword(word):
            raise self._error(f"expected {word!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._cur.kind is not MjTokenKind.IDENT:
            raise self._error("expected identifier")
        return self._advance().text

    def _accept_punct(self, text: str) -> bool:
        if self._cur.is_punct(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._cur.is_keyword(word):
            self._advance()
            return True
        return False

    # -- compilation unit -------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        unit = CompilationUnit(source=self._source)
        if self._accept_keyword("package"):
            unit.package = self._dotted_name()
            self._expect_punct(";")
        while self._accept_keyword("import"):
            unit.imports.append(self._dotted_name())
            self._expect_punct(";")
        while self._cur.kind is not MjTokenKind.EOF:
            unit.classes.append(self._class_decl())
        for cls in unit.classes:
            cls.qualified_name = (
                f"{unit.package}.{cls.name}" if unit.package else cls.name
            )
        return unit

    def _dotted_name(self) -> str:
        parts = [self._expect_ident()]
        while self._cur.is_punct("."):
            self._advance()
            parts.append(self._expect_ident())
        return ".".join(parts)

    def _modifiers(self) -> Tuple[str, ...]:
        mods = []
        while self._cur.kind is MjTokenKind.KEYWORD and self._cur.text in _MODIFIER_WORDS:
            mods.append(self._advance().text)
        return tuple(mods)

    # -- declarations ------------------------------------------------------

    def _class_decl(self) -> ClassDecl:
        pos = self._position()
        self._modifiers()
        if self._accept_keyword("interface"):
            is_interface = True
        else:
            self._expect_keyword("class")
            is_interface = False
        name = self._expect_ident()
        decl = ClassDecl(name=name, is_interface=is_interface, position=pos)
        if self._accept_keyword("extends"):
            first = self._type_ref()
            if is_interface:
                decl.implements.append(first)
                while self._accept_punct(","):
                    decl.implements.append(self._type_ref())
            else:
                decl.extends = first
        if self._accept_keyword("implements"):
            decl.implements.append(self._type_ref())
            while self._accept_punct(","):
                decl.implements.append(self._type_ref())
        self._expect_punct("{")
        while not self._cur.is_punct("}"):
            self._member(decl)
        self._expect_punct("}")
        return decl

    def _type_ref(self) -> TypeRef:
        pos = self._position()
        if self._cur.kind is MjTokenKind.KEYWORD and (
            self._cur.text in _PRIMITIVE_WORDS or self._cur.text == "void"
        ):
            name = self._advance().text
        else:
            name = self._dotted_name()
        dims = 0
        while self._cur.is_punct("["):
            self._advance()
            self._expect_punct("]")
            dims += 1
        return TypeRef(name, dims, pos)

    def _member(self, decl: ClassDecl) -> None:
        pos = self._position()
        mods = self._modifiers()
        static = "static" in mods
        visibility = next(
            (m for m in mods if m in ("public", "protected", "private")), "public"
        )
        # Constructor?
        if (
            self._cur.kind is MjTokenKind.IDENT
            and self._cur.text == decl.name
            and self._peek().is_punct("(")
        ):
            name = self._advance().text
            params = self._params()
            body = self._block()
            decl.methods.append(
                MethodDecl(
                    name=name,
                    return_type=TypeRef(decl.name, 0, pos),
                    params=params,
                    body=body,
                    static=False,
                    visibility=visibility,
                    is_constructor=True,
                    position=pos,
                )
            )
            return
        type_ref = self._type_ref()
        name = self._expect_ident()
        if self._cur.is_punct("("):
            params = self._params()
            if self._accept_punct(";"):
                body: Optional[Block] = None
            else:
                body = self._block()
            decl.methods.append(
                MethodDecl(
                    name=name,
                    return_type=type_ref,
                    params=params,
                    body=body,
                    static=static,
                    visibility=visibility,
                    position=pos,
                )
            )
            return
        init = None
        if self._accept_punct("="):
            init = self._expression()
        self._expect_punct(";")
        decl.fields.append(
            FieldDecl(
                type_ref=type_ref,
                name=name,
                init=init,
                static=static,
                visibility=visibility,
                position=pos,
            )
        )

    def _params(self) -> List[ParamDecl]:
        self._expect_punct("(")
        params: List[ParamDecl] = []
        if not self._cur.is_punct(")"):
            params.append(ParamDecl(self._type_ref(), self._expect_ident()))
            while self._accept_punct(","):
                params.append(ParamDecl(self._type_ref(), self._expect_ident()))
        self._expect_punct(")")
        return params

    # -- statements --------------------------------------------------------

    def _block(self) -> Block:
        pos = self._position()
        self._expect_punct("{")
        statements: List[Stmt] = []
        while not self._cur.is_punct("}"):
            statements.append(self._statement())
        self._expect_punct("}")
        return Block(statements=statements, position=pos)

    def _statement(self) -> Stmt:
        pos = self._position()
        if self._cur.is_punct("{"):
            return self._block()
        if self._accept_keyword("return"):
            value = None
            if not self._cur.is_punct(";"):
                value = self._expression()
            self._expect_punct(";")
            return ReturnStmt(value=value, position=pos)
        if self._accept_keyword("if"):
            self._expect_punct("(")
            cond = self._expression()
            self._expect_punct(")")
            then_branch = self._statement()
            else_branch = None
            if self._accept_keyword("else"):
                else_branch = self._statement()
            return IfStmt(
                condition=cond, then_branch=then_branch, else_branch=else_branch, position=pos
            )
        if self._accept_keyword("while"):
            self._expect_punct("(")
            cond = self._expression()
            self._expect_punct(")")
            body = self._statement()
            return WhileStmt(condition=cond, body=body, position=pos)
        if self._looks_like_local_decl():
            type_ref = self._type_ref()
            name = self._expect_ident()
            init = None
            if self._accept_punct("="):
                init = self._expression()
            self._expect_punct(";")
            return LocalVarDecl(type_ref=type_ref, name=name, init=init, position=pos)
        start = self._cur
        expr = self._expression()
        if self._accept_punct("="):
            if not isinstance(expr, (VarRef, FieldAccessExpr)):
                raise self._error("invalid assignment target", start)
            value = self._expression()
            self._expect_punct(";")
            return AssignStmt(target=expr, value=value, position=pos)
        self._expect_punct(";")
        return ExprStmt(expr=expr, position=pos)

    def _looks_like_local_decl(self) -> bool:
        """Lookahead: Name ('.' Name)* ('[' ']')* IDENT  begins a declaration."""
        tok = self._cur
        if tok.kind is MjTokenKind.KEYWORD and tok.text in _PRIMITIVE_WORDS:
            return True
        if tok.kind is not MjTokenKind.IDENT:
            return False
        i = self._pos
        toks = self._tokens

        def kind(j):
            return toks[min(j, len(toks) - 1)]

        j = i + 1
        while kind(j).is_punct(".") and kind(j + 1).kind is MjTokenKind.IDENT:
            j += 2
        while kind(j).is_punct("[") and kind(j + 1).is_punct("]"):
            j += 2
        return kind(j).kind is MjTokenKind.IDENT

    # -- expressions ---------------------------------------------------------

    def _expression(self) -> Expr:
        return self._or_expr()

    def _binary_level(self, sub, ops) -> Expr:
        left = sub()
        while self._cur.kind is MjTokenKind.PUNCT and self._cur.text in ops:
            pos = self._position()
            op = self._advance().text
            right = sub()
            left = BinaryExpr(op=op, left=left, right=right, position=pos)
        return left

    def _or_expr(self) -> Expr:
        return self._binary_level(self._and_expr, ("||",))

    def _and_expr(self) -> Expr:
        return self._binary_level(self._equality, ("&&",))

    def _equality(self) -> Expr:
        return self._binary_level(self._relational, ("==", "!="))

    def _relational(self) -> Expr:
        return self._binary_level(self._additive, ("<", ">", "<=", ">="))

    def _additive(self) -> Expr:
        return self._binary_level(self._multiplicative, ("+", "-"))

    def _multiplicative(self) -> Expr:
        return self._binary_level(self._unary, ("*", "/", "%"))

    def _unary(self) -> Expr:
        pos = self._position()
        if self._cur.is_punct("!") or self._cur.is_punct("-"):
            op = self._advance().text
            return UnaryExpr(op=op, operand=self._unary(), position=pos)
        if self._is_cast_ahead():
            self._expect_punct("(")
            type_ref = self._type_ref()
            self._expect_punct(")")
            operand = self._unary()
            return CastExpr(type_ref=type_ref, operand=operand, position=pos)
        return self._postfix()

    def _is_cast_ahead(self) -> bool:
        """``( Name... )`` followed by an expression-starting token."""
        if not self._cur.is_punct("("):
            return False
        toks = self._tokens
        j = self._pos + 1

        def at(k):
            return toks[min(k, len(toks) - 1)]

        tok = at(j)
        if tok.kind is MjTokenKind.KEYWORD and tok.text in _PRIMITIVE_WORDS:
            j += 1
        elif tok.kind is MjTokenKind.IDENT:
            j += 1
            while at(j).is_punct(".") and at(j + 1).kind is MjTokenKind.IDENT:
                j += 2
        else:
            return False
        while at(j).is_punct("[") and at(j + 1).is_punct("]"):
            j += 2
        if not at(j).is_punct(")"):
            return False
        nxt = at(j + 1)
        if nxt.kind in (
            MjTokenKind.IDENT,
            MjTokenKind.INT_LIT,
            MjTokenKind.STRING_LIT,
            MjTokenKind.CHAR_LIT,
        ):
            return True
        if nxt.kind is MjTokenKind.KEYWORD and nxt.text in ("new", "this", "true", "false", "null"):
            return True
        if nxt.is_punct("("):
            return True
        return False

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self._cur.is_punct("."):
            pos = self._position()
            self._advance()
            name = self._expect_ident()
            if self._cur.is_punct("("):
                args = self._arguments()
                expr = CallExpr(receiver=expr, name=name, args=args, position=pos)
            else:
                expr = FieldAccessExpr(receiver=expr, name=name, position=pos)
        return expr

    def _arguments(self) -> List[Expr]:
        self._expect_punct("(")
        args: List[Expr] = []
        if not self._cur.is_punct(")"):
            args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
        self._expect_punct(")")
        return args

    def _primary(self) -> Expr:
        pos = self._position()
        tok = self._cur
        if tok.kind is MjTokenKind.INT_LIT:
            self._advance()
            return IntLit(text=tok.text, position=pos)
        if tok.kind is MjTokenKind.STRING_LIT:
            self._advance()
            return StringLit(value=tok.text, position=pos)
        if tok.kind is MjTokenKind.CHAR_LIT:
            self._advance()
            return CharLit(text=tok.text, position=pos)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self._advance()
            return BoolLit(value=tok.text == "true", position=pos)
        if tok.is_keyword("null"):
            self._advance()
            return NullLit(position=pos)
        if tok.is_keyword("this"):
            self._advance()
            return ThisExpr(position=pos)
        if tok.is_keyword("new"):
            self._advance()
            type_ref = self._type_ref()
            args = self._arguments()
            return NewExpr(type_ref=type_ref, args=args, position=pos)
        if tok.kind is MjTokenKind.IDENT:
            name = self._advance().text
            if self._cur.is_punct("("):
                args = self._arguments()
                return CallExpr(receiver=None, name=name, args=args, position=pos)
            return VarRef(name=name, position=pos)
        if tok.is_punct("("):
            self._advance()
            expr = self._expression()
            self._expect_punct(")")
            return expr
        raise self._error("expected an expression")


def oracle_parse_minijava(text: str, source: str = "<minijava>") -> CompilationUnit:
    """Parse ``text`` as the original parser did."""
    return _Parser(tokenize(text), source).parse_unit()

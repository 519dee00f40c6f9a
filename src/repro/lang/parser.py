"""A recursive-descent parser for MiniRust.

The grammar is a small subset of Rust's:

.. code-block:: text

    program   := (crate | item)*
    crate     := "crate" IDENT "{" item* "}"
    item      := struct_def | fn_decl
    struct_def:= "struct" IDENT ("{" field,* "}" | ";")
    fn_decl   := "extern"? "fn" IDENT generics? "(" param,* ")" ("->" type)? (block | ";")
    type      := "u32" | "bool" | "()" | "(" type,+ ")" | "&" lifetime? "mut"? type | IDENT
    stmt      := let | while | return | break | continue | assign | expr ";"?
    expr      := precedence-climbing over || && == != < <= > >= + - * / % ! unary- & * ...

Programs written without an explicit ``crate`` wrapper are placed in a single
crate named ``main``.  :func:`assemble_program` applies that rule to the
top-level entries of one source or the crates of several separately parsed
units alike.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.errors import ParseError, Span
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.obs import stage as obs_stage
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import (
    BOOL,
    Mutability,
    RefType,
    StructType,
    TupleType,
    Type,
    U32,
    UNIT,
)


class Parser:
    """Parses a token stream into MiniRust AST nodes.

    The token list must end in an EOF token, as :func:`tokenize`'s always
    does.  ``_advance`` never moves past EOF, so ``self.pos`` always indexes
    a token and lookahead needs no bounds check.
    """

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token stream helpers ----------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _check(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        if self._check(kind):
            return self._advance()
        found = self._peek()
        raise ParseError(
            f"expected {what}, found {found.text!r}", found.span
        )

    def _at_end(self) -> bool:
        return self._check(TokenKind.EOF)

    # -- top level -----------------------------------------------------------

    def parse_program(self, local_crate: str = "main") -> ast.Program:
        """Parse a whole program (one or more crates), recording each
        top-level entry with the lines of its first and last token."""
        entries: List[ast.Entry] = []
        while not self._at_end():
            first_line = self._peek().span.start_line
            if self._check(TokenKind.KW_CRATE):
                entry: Union[ast.Item, ast.Crate] = self._parse_crate_block()
            else:
                entry = self._parse_item("main")
            entries.append((first_line, self.tokens[self.pos - 1].span.end_line, entry))
        program = assemble_program((entry for _, _, entry in entries), local_crate)
        program.entries = entries
        return program

    def parse_crate(self, name: str = "main") -> ast.Crate:
        """Parse a bare item list as a single crate."""
        crate = ast.Crate(name=name)
        while not self._at_end():
            crate.add(self._parse_item(name))
        return crate

    def _parse_crate_block(self) -> ast.Crate:
        self._expect(TokenKind.KW_CRATE, "'crate'")
        name_token = self._expect(TokenKind.IDENT, "crate name")
        crate = ast.Crate(name=str(name_token.value), span=name_token.span)
        self._expect(TokenKind.LBRACE, "'{'")
        while not self._check(TokenKind.RBRACE):
            crate.add(self._parse_item(crate.name))
        self._expect(TokenKind.RBRACE, "'}'")
        return crate

    def _parse_item(self, crate_name: str) -> ast.Item:
        if self._check(TokenKind.KW_STRUCT):
            return self._parse_struct()
        if self._check(TokenKind.KW_EXTERN) or self._check(TokenKind.KW_FN):
            return self._parse_fn(crate_name)
        found = self._peek()
        raise ParseError(f"expected item, found {found.text!r}", found.span)

    def _parse_struct(self) -> ast.StructDef:
        start = self._expect(TokenKind.KW_STRUCT, "'struct'")
        name = self._expect(TokenKind.IDENT, "struct name")
        if self._match(TokenKind.SEMI):
            return ast.StructDef(
                name=str(name.value), fields=[], opaque=True, span=start.span
            )
        self._expect(TokenKind.LBRACE, "'{'")
        fields: List[ast.FieldDef] = []
        while not self._check(TokenKind.RBRACE):
            field_name = self._expect(TokenKind.IDENT, "field name")
            self._expect(TokenKind.COLON, "':'")
            field_ty = self._parse_type()
            fields.append(
                ast.FieldDef(name=str(field_name.value), ty=field_ty, span=field_name.span)
            )
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RBRACE, "'}'")
        return ast.StructDef(name=str(name.value), fields=fields, span=start.span)

    def _parse_fn(self, crate_name: str) -> ast.FnDecl:
        is_extern = bool(self._match(TokenKind.KW_EXTERN))
        start = self._expect(TokenKind.KW_FN, "'fn'")
        name = self._expect(TokenKind.IDENT, "function name")

        lifetime_params: List[str] = []
        if self._match(TokenKind.LT):
            while not self._check(TokenKind.GT):
                lt = self._expect(TokenKind.LIFETIME, "lifetime parameter")
                lifetime_params.append(str(lt.value))
                if not self._match(TokenKind.COMMA):
                    break
            self._expect(TokenKind.GT, "'>'")

        self._expect(TokenKind.LPAREN, "'('")
        params: List[ast.Param] = []
        while not self._check(TokenKind.RPAREN):
            param_name = self._expect(TokenKind.IDENT, "parameter name")
            self._expect(TokenKind.COLON, "':'")
            param_ty = self._parse_type()
            params.append(
                ast.Param(name=str(param_name.value), ty=param_ty, span=param_name.span)
            )
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "')'")

        ret_type: Type = UNIT
        if self._match(TokenKind.ARROW):
            ret_type = self._parse_type()

        body: Optional[ast.Block] = None
        if self._match(TokenKind.SEMI):
            is_extern = True
        else:
            body = self._parse_block()

        decl_span = start.span if body is None else start.span.merge(body.span)
        return ast.FnDecl(
            name=str(name.value),
            lifetime_params=lifetime_params,
            params=params,
            ret_type=ret_type,
            body=body,
            is_extern=is_extern,
            crate=crate_name,
            span=decl_span,
        )

    # -- types ---------------------------------------------------------------

    def _parse_type(self) -> Type:
        if self._match(TokenKind.KW_U32):
            return U32
        if self._match(TokenKind.KW_BOOL):
            return BOOL
        if self._check(TokenKind.AMP):
            self._advance()
            lifetime: Optional[str] = None
            if self._check(TokenKind.LIFETIME):
                lifetime = str(self._advance().value)
            mutable = bool(self._match(TokenKind.KW_MUT))
            pointee = self._parse_type()
            mutability = Mutability.MUT if mutable else Mutability.SHARED
            return RefType(pointee, mutability, lifetime)
        if self._check(TokenKind.LPAREN):
            self._advance()
            if self._match(TokenKind.RPAREN):
                return UNIT
            elements = [self._parse_type()]
            trailing_comma = False
            while self._match(TokenKind.COMMA):
                trailing_comma = True
                if self._check(TokenKind.RPAREN):
                    break
                elements.append(self._parse_type())
                trailing_comma = False
            self._expect(TokenKind.RPAREN, "')'")
            if len(elements) == 1 and not trailing_comma:
                # Parenthesised type, not a 1-tuple.
                return elements[0]
            return TupleType(tuple(elements))
        if self._check(TokenKind.IDENT):
            name = self._advance()
            return StructType(name=str(name.value))
        found = self._peek()
        raise ParseError(f"expected type, found {found.text!r}", found.span)

    # -- blocks and statements ------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE, "'{'")
        stmts: List[ast.Stmt] = []
        tail: Optional[ast.Expr] = None
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.KW_LET):
                stmts.append(self._parse_let())
            elif self._check(TokenKind.KW_WHILE):
                stmts.append(self._parse_while())
            elif self._check(TokenKind.KW_RETURN):
                stmts.append(self._parse_return())
            elif self._check(TokenKind.KW_BREAK):
                token = self._advance()
                self._expect(TokenKind.SEMI, "';'")
                stmts.append(ast.BreakStmt(span=token.span))
            elif self._check(TokenKind.KW_CONTINUE):
                token = self._advance()
                self._expect(TokenKind.SEMI, "';'")
                stmts.append(ast.ContinueStmt(span=token.span))
            elif self._check(TokenKind.KW_IF) or self._check(TokenKind.LBRACE):
                # Block-like expressions in statement position are never the
                # left operand of a binary operator (as in Rust): `if c { .. }
                # *r = 1;` is an if statement followed by an assignment.
                if self._check(TokenKind.KW_IF):
                    expr = self._parse_if()
                else:
                    inner = self._parse_block()
                    expr = ast.BlockExpr(block=inner, span=inner.span)
                if self._match(TokenKind.SEMI):
                    stmts.append(ast.ExprStmt(expr=expr, span=expr.span))
                elif self._check(TokenKind.RBRACE):
                    tail = expr
                else:
                    stmts.append(ast.ExprStmt(expr=expr, span=expr.span))
            else:
                expr = self._parse_expr()
                if self._check(TokenKind.EQ):
                    self._advance()
                    value = self._parse_expr()
                    semi = self._expect(TokenKind.SEMI, "';' after assignment")
                    stmts.append(
                        ast.AssignStmt(
                            target=expr, value=value, span=expr.span.merge(semi.span)
                        )
                    )
                elif self._match(TokenKind.SEMI):
                    stmts.append(ast.ExprStmt(expr=expr, span=expr.span))
                elif self._check(TokenKind.RBRACE):
                    tail = expr
                elif isinstance(expr, (ast.If, ast.BlockExpr)):
                    # Block-like expressions may appear as statements without
                    # a trailing semicolon, as in Rust.
                    stmts.append(ast.ExprStmt(expr=expr, span=expr.span))
                else:
                    found = self._peek()
                    raise ParseError(
                        f"expected ';' or '}}' after expression, found {found.text!r}",
                        found.span,
                    )
        end = self._expect(TokenKind.RBRACE, "'}'")
        return ast.Block(stmts=stmts, tail=tail, span=start.span.merge(end.span))

    def _parse_let(self) -> ast.LetStmt:
        start = self._expect(TokenKind.KW_LET, "'let'")
        mutable = bool(self._match(TokenKind.KW_MUT))
        name = self._expect(TokenKind.IDENT, "variable name")
        declared_ty: Optional[Type] = None
        if self._match(TokenKind.COLON):
            declared_ty = self._parse_type()
        self._expect(TokenKind.EQ, "'=' in let binding")
        init = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "';'")
        return ast.LetStmt(
            name=str(name.value),
            mutable=mutable,
            declared_ty=declared_ty,
            init=init,
            name_span=name.span,
            span=start.span.merge(semi.span),
        )

    def _parse_while(self) -> ast.WhileStmt:
        start = self._expect(TokenKind.KW_WHILE, "'while'")
        cond = self._parse_expr(allow_struct=False)
        body = self._parse_block()
        return ast.WhileStmt(cond=cond, body=body, span=start.span.merge(body.span))

    def _parse_return(self) -> ast.ReturnStmt:
        start = self._expect(TokenKind.KW_RETURN, "'return'")
        value: Optional[ast.Expr] = None
        if not self._check(TokenKind.SEMI):
            value = self._parse_expr()
        semi = self._expect(TokenKind.SEMI, "';'")
        return ast.ReturnStmt(value=value, span=start.span.merge(semi.span))

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self, allow_struct: bool = True) -> ast.Expr:
        return self._parse_or(allow_struct)

    def _parse_or(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_and(allow_struct)
        while self._check(TokenKind.OROR):
            self._advance()
            rhs = self._parse_and(allow_struct)
            expr = ast.Binary(
                op=ast.BinOp.OR, lhs=expr, rhs=rhs, span=expr.span.merge(rhs.span)
            )
        return expr

    def _parse_and(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_comparison(allow_struct)
        while self._check(TokenKind.ANDAND):
            self._advance()
            rhs = self._parse_comparison(allow_struct)
            expr = ast.Binary(
                op=ast.BinOp.AND, lhs=expr, rhs=rhs, span=expr.span.merge(rhs.span)
            )
        return expr

    _COMPARISON_OPS = {
        TokenKind.EQEQ: ast.BinOp.EQ,
        TokenKind.NE: ast.BinOp.NE,
        TokenKind.LT: ast.BinOp.LT,
        TokenKind.LE: ast.BinOp.LE,
        TokenKind.GT: ast.BinOp.GT,
        TokenKind.GE: ast.BinOp.GE,
    }

    def _parse_comparison(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_additive(allow_struct)
        while self._peek().kind in self._COMPARISON_OPS:
            op_token = self._advance()
            rhs = self._parse_additive(allow_struct)
            expr = ast.Binary(
                op=self._COMPARISON_OPS[op_token.kind],
                lhs=expr,
                rhs=rhs,
                span=expr.span.merge(rhs.span),
            )
        return expr

    def _parse_additive(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_multiplicative(allow_struct)
        while self._check(TokenKind.PLUS) or self._check(TokenKind.MINUS):
            op_token = self._advance()
            op = ast.BinOp.ADD if op_token.kind is TokenKind.PLUS else ast.BinOp.SUB
            rhs = self._parse_multiplicative(allow_struct)
            expr = ast.Binary(op=op, lhs=expr, rhs=rhs, span=expr.span.merge(rhs.span))
        return expr

    _MUL_OPS = {
        TokenKind.STAR: ast.BinOp.MUL,
        TokenKind.SLASH: ast.BinOp.DIV,
        TokenKind.PERCENT: ast.BinOp.REM,
    }

    def _parse_multiplicative(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_unary(allow_struct)
        while self._peek().kind in self._MUL_OPS:
            op_token = self._advance()
            rhs = self._parse_unary(allow_struct)
            expr = ast.Binary(
                op=self._MUL_OPS[op_token.kind],
                lhs=expr,
                rhs=rhs,
                span=expr.span.merge(rhs.span),
            )
        return expr

    def _parse_unary(self, allow_struct: bool) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.BANG:
            self._advance()
            operand = self._parse_unary(allow_struct)
            return ast.Unary(
                op=ast.UnOp.NOT, operand=operand, span=token.span.merge(operand.span)
            )
        if token.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary(allow_struct)
            return ast.Unary(
                op=ast.UnOp.NEG, operand=operand, span=token.span.merge(operand.span)
            )
        if token.kind is TokenKind.STAR:
            self._advance()
            operand = self._parse_unary(allow_struct)
            return ast.Deref(base=operand, span=token.span.merge(operand.span))
        if token.kind is TokenKind.AMP:
            self._advance()
            mutable = bool(self._match(TokenKind.KW_MUT))
            operand = self._parse_unary(allow_struct)
            return ast.Borrow(
                mutable=mutable, place=operand, span=token.span.merge(operand.span)
            )
        return self._parse_postfix(allow_struct)

    def _parse_postfix(self, allow_struct: bool) -> ast.Expr:
        expr = self._parse_primary(allow_struct)
        while True:
            if self._check(TokenKind.DOT):
                self._advance()
                field_token = self._peek()
                if field_token.kind is TokenKind.INT:
                    self._advance()
                    expr = ast.FieldAccess(
                        base=expr,
                        fld=int(field_token.value),
                        span=expr.span.merge(field_token.span),
                    )
                elif field_token.kind is TokenKind.IDENT:
                    self._advance()
                    expr = ast.FieldAccess(
                        base=expr,
                        fld=str(field_token.value),
                        span=expr.span.merge(field_token.span),
                    )
                else:
                    raise ParseError(
                        f"expected field name after '.', found {field_token.text!r}",
                        field_token.span,
                    )
            else:
                break
        return expr

    def _parse_primary(self, allow_struct: bool) -> ast.Expr:
        token = self._peek()

        if token.kind is TokenKind.INT:
            self._advance()
            return ast.Literal(value=int(token.value), span=token.span)
        if token.kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.Literal(value=True, span=token.span)
        if token.kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.Literal(value=False, span=token.span)
        if token.kind is TokenKind.KW_IF:
            return self._parse_if()
        if token.kind is TokenKind.LBRACE:
            block = self._parse_block()
            return ast.BlockExpr(block=block, span=block.span)
        if token.kind is TokenKind.LPAREN:
            return self._parse_paren_or_tuple()
        if token.kind is TokenKind.IDENT:
            return self._parse_ident_expr(allow_struct)

        raise ParseError(f"expected expression, found {token.text!r}", token.span)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.KW_IF, "'if'")
        cond = self._parse_expr(allow_struct=False)
        then_block = self._parse_block()
        else_block: Optional[ast.Block] = None
        if self._match(TokenKind.KW_ELSE):
            if self._check(TokenKind.KW_IF):
                nested = self._parse_if()
                else_block = ast.Block(stmts=[], tail=nested, span=nested.span)
            else:
                else_block = self._parse_block()
        end_span = else_block.span if else_block is not None else then_block.span
        return ast.If(
            cond=cond,
            then_block=then_block,
            else_block=else_block,
            span=start.span.merge(end_span),
        )

    def _parse_paren_or_tuple(self) -> ast.Expr:
        start = self._expect(TokenKind.LPAREN, "'('")
        if self._check(TokenKind.RPAREN):
            rparen = self._advance()
            return ast.Literal(value=None, span=start.span.merge(rparen.span))
        first = self._parse_expr()
        if self._match(TokenKind.RPAREN):
            return first
        elements = [first]
        while self._match(TokenKind.COMMA):
            if self._check(TokenKind.RPAREN):
                break
            elements.append(self._parse_expr())
        rparen = self._expect(TokenKind.RPAREN, "')'")
        return ast.TupleExpr(elements=elements, span=start.span.merge(rparen.span))

    def _parse_ident_expr(self, allow_struct: bool) -> ast.Expr:
        name_token = self._advance()
        name = str(name_token.value)

        if self._check(TokenKind.LPAREN):
            self._advance()
            args: List[ast.Expr] = []
            while not self._check(TokenKind.RPAREN):
                args.append(self._parse_expr())
                if not self._match(TokenKind.COMMA):
                    break
            rparen = self._expect(TokenKind.RPAREN, "')'")
            return ast.Call(func=name, args=args, span=name_token.span.merge(rparen.span))

        if allow_struct and self._check(TokenKind.LBRACE) and name[:1].isupper():
            self._advance()
            fields: List[Tuple[str, ast.Expr]] = []
            while not self._check(TokenKind.RBRACE):
                field_name = self._expect(TokenKind.IDENT, "field name")
                self._expect(TokenKind.COLON, "':'")
                value = self._parse_expr()
                fields.append((str(field_name.value), value))
                if not self._match(TokenKind.COMMA):
                    break
            rbrace = self._expect(TokenKind.RBRACE, "'}'")
            return ast.StructLit(
                struct_name=name, fields=fields, span=name_token.span.merge(rbrace.span)
            )

        return ast.Var(name=name, span=name_token.span)


def assemble_program(
    parts: Iterable[Union[ast.Item, ast.Crate]], local_crate: str = "main"
) -> ast.Program:
    """Assemble a program from its parts in source order: top-level items
    and parsed crates.

    Top-level items and the items of every implicit crate (those written
    outside a ``crate`` block) go, in order, into one new implicit ``main``
    crate, which comes first when it holds items or when there is no
    explicit crate; the explicit crates follow in order.  No part is
    modified, so parts that another program holds can be assembled again.
    ``local_crate`` falls back to the first crate when no crate has that
    name.
    """
    bare = ast.Crate(name="main", implicit=True)
    explicit: List[ast.Crate] = []
    for part in parts:
        if not isinstance(part, ast.Crate):
            bare.add(part)
        elif part.implicit:
            bare.items.extend(part.items)
        else:
            explicit.append(part)
    assembled = [bare] + explicit if bare.items or not explicit else explicit
    if not any(crate.name == local_crate for crate in assembled):
        local_crate = assembled[0].name
    return ast.Program(crates=assembled, local_crate=local_crate)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def parse_program(source: str, local_crate: str = "main", first_line: int = 1) -> ast.Program:
    """Parse source text into a :class:`repro.lang.ast.Program`.

    ``first_line`` numbers the source's first line (see :func:`tokenize`).
    """
    with obs_stage("parse") as sp:
        program = Parser(tokenize(source, first_line)).parse_program(local_crate=local_crate)
        if sp is not None:
            sp.set(bytes=len(source), crates=len(program.crates))
        return program


def parse_crate(source: str, name: str = "main") -> ast.Crate:
    """Parse source text that contains only items into a single crate."""
    return Parser(tokenize(source)).parse_crate(name=name)


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (used heavily in tests)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expr()
    if not parser._at_end():
        leftover = parser._peek()
        raise ParseError(f"unexpected trailing input {leftover.text!r}", leftover.span)
    return expr

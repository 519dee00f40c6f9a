"""Token definitions for the MiniRust lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple, Optional, Union

from repro.errors import Span


class TokenKind(Enum):
    """All token kinds produced by :func:`repro.lang.lexer.tokenize`."""

    # Literals and identifiers
    INT = auto()
    IDENT = auto()
    LIFETIME = auto()  # 'a, 'buf, ...

    # Keywords
    KW_FN = auto()
    KW_EXTERN = auto()
    KW_STRUCT = auto()
    KW_LET = auto()
    KW_MUT = auto()
    KW_IF = auto()
    KW_ELSE = auto()
    KW_WHILE = auto()
    KW_RETURN = auto()
    KW_TRUE = auto()
    KW_FALSE = auto()
    KW_BREAK = auto()
    KW_CONTINUE = auto()
    KW_U32 = auto()
    KW_BOOL = auto()
    KW_CRATE = auto()

    # Punctuation
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    COMMA = auto()
    SEMI = auto()
    COLON = auto()
    ARROW = auto()  # ->
    DOT = auto()
    AMP = auto()  # &
    STAR = auto()  # *
    PLUS = auto()
    MINUS = auto()
    SLASH = auto()
    PERCENT = auto()
    BANG = auto()
    LT = auto()
    GT = auto()
    LE = auto()
    GE = auto()
    EQ = auto()  # =
    EQEQ = auto()  # ==
    NE = auto()  # !=
    ANDAND = auto()  # &&
    OROR = auto()  # ||

    EOF = auto()


KEYWORDS = {
    "fn": TokenKind.KW_FN,
    "extern": TokenKind.KW_EXTERN,
    "struct": TokenKind.KW_STRUCT,
    "let": TokenKind.KW_LET,
    "mut": TokenKind.KW_MUT,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "return": TokenKind.KW_RETURN,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "u32": TokenKind.KW_U32,
    "bool": TokenKind.KW_BOOL,
    "crate": TokenKind.KW_CRATE,
}


class Token(NamedTuple):
    """A single lexed token: its kind, raw text, decoded value, and span."""

    kind: TokenKind
    text: str
    span: Span
    value: Optional[Union[int, str]] = None

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"{self.kind.name}({self.text!r})"

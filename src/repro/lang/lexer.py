"""The MiniRust lexer: one compiled master pattern, run line by line.

Every token class is one alternative of :data:`_TOKEN_RE`, tried in order at
each position.  Trivia (spaces, tabs, carriage returns and ``//`` comments)
matches without a group and is skipped.  The last alternative matches any
single character, so a character that starts no token is still matched, and
the lexer reports it with the exact one-column span of that character.

The source is split on ``\\n`` only, so a token's line is its line's index
(counted from ``first_line``) and its columns are character offsets within
that line: a ``\\t`` or ``\\r`` takes one column like any other character.
No token spans two lines.

In these ``str`` patterns ``\\w`` matches exactly the characters for which
``str.isalnum()`` holds, plus ``_``, and ``\\d`` exactly those for which
``str.isdecimal()`` holds, the digits ``int()`` accepts.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_TOKEN_RE = re.compile(
    r"[ \t\r]+|//.*"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<punct>->|==|!=|<=|>=|&&|\|\||[-&!<>=(){},;:.*+/%])"
    r"|(?P<int>\d[\d_]*)"
    r"|(?P<lifetime>'\w+)"
    # A word starting with a non-ASCII character: an identifier when that
    # character is a letter (``été``), else an error at that character
    # (``²`` is a digit to ``str.isdigit`` but not to ``int``).
    r"|(?P<word>\w+)"
    r"|(?P<other>.)"
)

_PUNCT = {
    "->": TokenKind.ARROW,
    "==": TokenKind.EQEQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.ANDAND,
    "||": TokenKind.OROR,
    "&": TokenKind.AMP,
    "-": TokenKind.MINUS,
    "!": TokenKind.BANG,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.EQ,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
}


def tokenize(source: str, first_line: int = 1) -> List[Token]:
    """Tokenize ``source`` and return the token list (ending in EOF).

    ``first_line`` is the line number of the source's first line: a unit
    lexed on its own gets the spans it has inside the joined workspace.
    """
    tokens: List[Token] = []
    append = tokens.append
    for lineno, line in enumerate(source.split("\n"), first_line):
        for match in _TOKEN_RE.finditer(line):
            group = match.lastgroup
            if group is None:
                continue
            text = match.group()
            start, end = match.span()
            span = Span(lineno, start + 1, lineno, end + 1)
            if group == "ident":
                append(Token(KEYWORDS.get(text, TokenKind.IDENT), text, span, text))
            elif group == "punct":
                append(Token(_PUNCT[text], text, span))
            elif group == "int":
                append(Token(TokenKind.INT, text, span, int(text.replace("_", ""))))
            elif group == "lifetime":
                append(Token(TokenKind.LIFETIME, text, span, text[1:]))
            elif group == "word" and text[0].isalpha():
                append(Token(TokenKind.IDENT, text, span, text))
            else:
                where = Span(lineno, start + 1, lineno, start + 2)
                if text == "'":
                    raise LexError("expected lifetime name after \"'\"", where)
                raise LexError(f"unexpected character {text[0]!r}", where)
    append(Token(TokenKind.EOF, "", Span.point(lineno, len(line) + 1)))
    return tokens

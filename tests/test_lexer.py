"""Tests for the MiniRust lexer."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import LexError, Span
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def outcome(source):
    """Every token as (kind, text, span, value), or the LexError's message and span."""
    try:
        return [(t.kind.name, t.text, t.span.to_tuple(), t.value) for t in tokenize(source)]
    except LexError as error:
        return ("LexError", str(error), error.span.to_tuple())


def test_empty_source_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_integer_literal_value():
    tokens = tokenize("42")
    assert tokens[0].kind is TokenKind.INT
    assert tokens[0].value == 42


def test_integer_with_underscores():
    tokens = tokenize("1_000_000")
    assert tokens[0].value == 1000000


def test_identifier_and_keywords():
    assert kinds("fn foo let mut while") == [
        TokenKind.KW_FN,
        TokenKind.IDENT,
        TokenKind.KW_LET,
        TokenKind.KW_MUT,
        TokenKind.KW_WHILE,
    ]


def test_keyword_prefix_is_identifier():
    tokens = tokenize("letter")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == "letter"


def test_lifetime_token():
    tokens = tokenize("&'a mut u32")
    assert tokens[0].kind is TokenKind.AMP
    assert tokens[1].kind is TokenKind.LIFETIME
    assert tokens[1].value == "a"
    assert tokens[2].kind is TokenKind.KW_MUT


def test_two_char_operators():
    assert kinds("-> == != <= >= && ||") == [
        TokenKind.ARROW,
        TokenKind.EQEQ,
        TokenKind.NE,
        TokenKind.LE,
        TokenKind.GE,
        TokenKind.ANDAND,
        TokenKind.OROR,
    ]


def test_single_char_operators():
    assert kinds("+ - * / % ! < > = & . , ; :") == [
        TokenKind.PLUS,
        TokenKind.MINUS,
        TokenKind.STAR,
        TokenKind.SLASH,
        TokenKind.PERCENT,
        TokenKind.BANG,
        TokenKind.LT,
        TokenKind.GT,
        TokenKind.EQ,
        TokenKind.AMP,
        TokenKind.DOT,
        TokenKind.COMMA,
        TokenKind.SEMI,
        TokenKind.COLON,
    ]


def test_delimiters():
    assert kinds("( ) { }") == [
        TokenKind.LPAREN,
        TokenKind.RPAREN,
        TokenKind.LBRACE,
        TokenKind.RBRACE,
    ]


def test_line_comments_are_skipped():
    tokens = tokenize("1 // a comment with symbols !@#\n2")
    values = [t.value for t in tokens if t.kind is TokenKind.INT]
    assert values == [1, 2]


def test_comment_at_end_of_file():
    tokens = tokenize("x // trailing")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[1].kind is TokenKind.EOF


def test_span_line_and_column_tracking():
    tokens = tokenize("let x\n  = 1")
    let_token, x_token, eq_token, one_token = tokens[:4]
    assert let_token.span.start_line == 1
    assert x_token.span.start_col == 5
    assert eq_token.span.start_line == 2
    assert eq_token.span.start_col == 3
    assert one_token.span.start_line == 2


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("let x = #")


def test_bare_quote_raises():
    with pytest.raises(LexError):
        tokenize("' ")


def test_booleans_are_keywords():
    assert kinds("true false") == [TokenKind.KW_TRUE, TokenKind.KW_FALSE]


def test_tokenizes_full_function():
    source = "fn add(a: u32, b: u32) -> u32 { a + b }"
    token_kinds = kinds(source)
    assert token_kinds[0] is TokenKind.KW_FN
    assert TokenKind.ARROW in token_kinds
    assert token_kinds.count(TokenKind.KW_U32) == 3


@pytest.mark.parametrize(
    "source, expected",
    [
        ("café", [("IDENT", "café", (1, 1, 1, 5), "café"), ("EOF", "", (1, 5, 1, 5), None)]),
        ("été", [("IDENT", "été", (1, 1, 1, 4), "été"), ("EOF", "", (1, 4, 1, 4), None)]),
        ("٣", [("INT", "٣", (1, 1, 1, 2), 3), ("EOF", "", (1, 2, 1, 2), None)]),
        (
            "x\r\ny",
            [
                ("IDENT", "x", (1, 1, 1, 2), "x"),
                ("IDENT", "y", (2, 1, 2, 2), "y"),
                ("EOF", "", (2, 2, 2, 2), None),
            ],
        ),
        (
            "a\tb",
            [
                ("IDENT", "a", (1, 1, 1, 2), "a"),
                ("IDENT", "b", (1, 3, 1, 4), "b"),
                ("EOF", "", (1, 4, 1, 4), None),
            ],
        ),
        (
            "&&&",
            [
                ("ANDAND", "&&", (1, 1, 1, 3), None),
                ("AMP", "&", (1, 3, 1, 4), None),
                ("EOF", "", (1, 4, 1, 4), None),
            ],
        ),
        (
            "->=",
            [
                ("ARROW", "->", (1, 1, 1, 3), None),
                ("EQ", "=", (1, 3, 1, 4), None),
                ("EOF", "", (1, 4, 1, 4), None),
            ],
        ),
        (
            "1_000 // c",
            [("INT", "1_000", (1, 1, 1, 6), 1000), ("EOF", "", (1, 11, 1, 11), None)],
        ),
        ("|", ("LexError", "unexpected character '|'", (1, 1, 1, 2))),
        ("'", ("LexError", "expected lifetime name after \"'\"", (1, 1, 1, 2))),
        # ``str.isdigit`` accepts a superscript digit, ``int`` does not.
        ("let x = ²;", ("LexError", "unexpected character '²'", (1, 9, 1, 10))),
        ("1²", ("LexError", "unexpected character '²'", (1, 2, 1, 3))),
    ],
)
def test_pinned_outcomes(source, expected):
    assert outcome(source) == expected


def test_token_is_an_immutable_value():
    token = Token(TokenKind.IDENT, "x", Span(1, 1, 1, 2), "x")
    with pytest.raises(AttributeError):
        token.text = "y"
    assert pickle.loads(pickle.dumps(token)) == token
    assert hash(token) == hash((TokenKind.IDENT, "x", Span(1, 1, 1, 2), "x"))


# The MiniRust alphabet, in pieces that often form tokens, plus a few
# non-ASCII letters and digits (``²`` is a digit ``int`` rejects).
PIECES = list("abxyz_019(){},;:.*+-/%!<>=&|' \t\r\n") + [
    "fn", "let", "mut", "u32", "//", "->", "'a", "1_000", "é", "ж", "٣", "²",
]


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_token_spans_slice_their_text(source):
    try:
        tokens = tokenize(source)
    except LexError:
        return
    lines = source.split("\n")
    assert tokens[-1].kind is TokenKind.EOF
    for token in tokens[:-1]:
        span = token.span
        assert token.kind is not TokenKind.EOF
        assert span.start_line == span.end_line
        assert lines[span.start_line - 1][span.start_col - 1:span.end_col - 1] == token.text
    spans = [token.span.to_tuple() for token in tokens]
    assert all(a < b for a, b in zip(spans, spans[1:]))
    relexed = tokenize(" ".join(token.text for token in tokens[:-1]))
    assert [(t.kind, t.value) for t in relexed] == [(t.kind, t.value) for t in tokens]

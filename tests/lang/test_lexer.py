"""Unit tests for the Qutes lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import QutesSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def types_of(source):
    return [t.type for t in tokenize(source)]


def lexemes_of(source):
    return [t.lexeme for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source(self):
        assert types_of("") == [TokenType.EOF]

    def test_symbols(self):
        assert types_of("( ) { } [ ] , ; + - * / %")[:-1] == [
            TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACE, TokenType.RBRACE,
            TokenType.LBRACKET, TokenType.RBRACKET, TokenType.COMMA, TokenType.SEMICOLON,
            TokenType.PLUS, TokenType.MINUS, TokenType.STAR, TokenType.SLASH, TokenType.PERCENT,
        ]

    def test_comparison_operators(self):
        assert types_of("== != > >= < <= =")[:-1] == [
            TokenType.EQUAL, TokenType.NOT_EQUAL, TokenType.GREATER, TokenType.GREATER_EQUAL,
            TokenType.LESS, TokenType.LESS_EQUAL, TokenType.ASSIGN,
        ]

    def test_shift_operators(self):
        assert types_of("<< >>")[:-1] == [TokenType.SHIFT_LEFT, TokenType.SHIFT_RIGHT]

    def test_keywords(self):
        assert types_of("if else while foreach in return print")[:-1] == [
            TokenType.IF, TokenType.ELSE, TokenType.WHILE, TokenType.FOREACH,
            TokenType.IN, TokenType.RETURN, TokenType.PRINT,
        ]

    def test_type_keywords(self):
        assert types_of("bool int float string qubit quint qustring void")[:-1] == [
            TokenType.BOOL, TokenType.INT, TokenType.FLOAT, TokenType.STRING,
            TokenType.QUBIT, TokenType.QUINT, TokenType.QUSTRING, TokenType.VOID,
        ]

    def test_gate_keywords(self):
        assert types_of("hadamard paulix pauliy pauliz phase measure")[:-1] == [
            TokenType.HADAMARD, TokenType.PAULIX, TokenType.PAULIY,
            TokenType.PAULIZ, TokenType.PHASE, TokenType.MEASURE,
        ]

    def test_identifiers_not_keywords(self):
        tokens = tokenize("ifx printed _under score2")
        assert all(t.type is TokenType.IDENTIFIER for t in tokens[:-1])


class TestLiterals:
    def test_int_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INT_LITERAL
        assert token.literal == 42

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.type is TokenType.FLOAT_LITERAL
        assert token.literal == 3.25

    def test_quantum_int_literal(self):
        token = tokenize("5q")[0]
        assert token.type is TokenType.QUANTUM_INT_LITERAL
        assert token.literal == 5

    def test_quantum_int_literal_not_identifier_prefix(self):
        tokens = tokenize("5qs")
        # `5qs` is not a quantum literal; it lexes as 5 then identifier qs
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[1].type is TokenType.IDENTIFIER

    def test_string_literal(self):
        token = tokenize('"hello world"')[0]
        assert token.type is TokenType.STRING_LITERAL
        assert token.literal == "hello world"

    def test_string_escapes(self):
        token = tokenize(r'"a\nb\t\"c\\"')[0]
        assert token.literal == 'a\nb\t"c\\'

    def test_quantum_string_literal(self):
        token = tokenize('"0101"q')[0]
        assert token.type is TokenType.QUANTUM_STRING_LITERAL
        assert token.literal == "0101"

    def test_quantum_string_literal_requires_bits(self):
        with pytest.raises(QutesSyntaxError):
            tokenize('"01a1"q')

    @pytest.mark.parametrize("ket,state", [("|0>", "0"), ("|1>", "1"), ("|+>", "+"), ("|->", "-")])
    def test_ket_literals(self, ket, state):
        token = tokenize(ket)[0]
        assert token.type is TokenType.KET_LITERAL
        assert token.literal == state

    def test_invalid_ket(self):
        with pytest.raises(QutesSyntaxError):
            tokenize("|2>")

    def test_bool_literals(self):
        tokens = tokenize("true false")
        assert tokens[0].type is TokenType.TRUE and tokens[0].literal is True
        assert tokens[1].type is TokenType.FALSE and tokens[1].literal is False


class TestCommentsAndErrors:
    def test_line_comment(self):
        assert types_of("1 // comment here\n2")[:-1] == [TokenType.INT_LITERAL, TokenType.INT_LITERAL]

    def test_block_comment(self):
        assert types_of("1 /* multi\nline */ 2")[:-1] == [TokenType.INT_LITERAL, TokenType.INT_LITERAL]

    def test_unterminated_block_comment(self):
        with pytest.raises(QutesSyntaxError):
            tokenize("/* never ends")

    def test_unterminated_string(self):
        with pytest.raises(QutesSyntaxError):
            tokenize('"abc')

    def test_unexpected_character(self):
        with pytest.raises(QutesSyntaxError):
            tokenize("a $ b")

    def test_backslash_at_end_of_source_is_an_unterminated_string(self):
        with pytest.raises(QutesSyntaxError, match="unterminated string literal") as info:
            tokenize('x = "ab\\')
        assert (info.value.line, info.value.column) == (1, 5)

    @pytest.mark.parametrize("source", ["²", "5²"])
    def test_non_decimal_digit_is_an_unexpected_character(self, source):
        with pytest.raises(QutesSyntaxError, match="unexpected character '²'"):
            tokenize(source)

    def test_bare_bang_rejected(self):
        with pytest.raises(QutesSyntaxError):
            tokenize("!a")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4


class TestProperties:
    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_int_roundtrip(self, value):
        token = tokenize(str(value))[0]
        assert token.type is TokenType.INT_LITERAL
        assert token.literal == value

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_identifier_roundtrip(self, name):
        from repro.lang.tokens import KEYWORDS

        tokens = tokenize(name)
        if name in KEYWORDS:
            assert tokens[0].type is KEYWORDS[name]
        else:
            assert tokens[0].type is TokenType.IDENTIFIER
            assert tokens[0].lexeme == name

    @given(st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_qustring_literal_roundtrip(self, bits):
        text = "".join(bits)
        token = tokenize(f'"{text}"q')[0]
        assert token.type is TokenType.QUANTUM_STRING_LITERAL
        assert token.literal == text

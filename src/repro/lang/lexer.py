"""Table-driven lexer for Qutes source text.

The original implementation generates its lexer with ANTLR; this module is a
functionally equivalent scanner producing the token stream consumed by
:mod:`repro.lang.parser`.  One compiled master pattern, :data:`_TOKEN`,
names a token class per alternative, so a source is lexed by one
``finditer`` pass with a dictionary lookup per token.  Besides the usual
C-family tokens it recognises the quantum literal forms of the language:

* ``5q`` -- a quantum integer literal (``quint`` value),
* ``"0101"q`` -- a quantum bitstring literal (``qustring`` value),
* ``|0>``, ``|1>``, ``|+>``, ``|->`` -- ket literals for single qubits.

Comments use ``//`` (to end of line) or ``/* ... */`` blocks.  Lines and
columns are 1-based and count characters (a tab is one column).  A syntax
error names the line the scan had reached and the column where the bad
token starts.
"""

from __future__ import annotations

import re
from typing import List, NoReturn

from .errors import QutesSyntaxError
from .tokens import KEYWORDS, Token, TokenType

__all__ = ["tokenize"]

#: operator and punctuation lexemes -> token type: every token type whose
#: value is its own spelling
_SYMBOLS = {t.value: t for t in TokenType if not t.value[0].isalnum()}

_KEYWORD_LITERALS = {"true": True, "false": False}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

_TOKEN = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)
    | (?P<word>[^\W\d]\w*)
    | (?P<symbol>==|!=|>>|>=|<<|<=|/(?!\*)|[(){}\[\],;:+\-*%=<>])
    | (?P<number>\d+(?:\.\d+|q(?!\w))?)
    | (?P<string>"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*"(?:q(?!\w))?)
    | (?P<ket>\|[01+\-]>)
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPE = re.compile(r"\\(.)")


def tokenize(source: str) -> List[Token]:
    """Scan the whole *source* and return its token list (ending in EOF).

    Raises :class:`QutesSyntaxError` at the first malformed token.
    """
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "word":
            token_type = KEYWORDS.get(text)
            if token_type is not None:
                append(Token(token_type, text, _KEYWORD_LITERALS.get(text), line, column))
            elif text[0].isalpha() or text[0] == "_":
                append(Token(TokenType.IDENTIFIER, text, None, line, column))
            else:  # a numeric character that is not a decimal digit
                raise QutesSyntaxError(f"unexpected character {text[0]!r}", line, column)
        elif kind == "symbol":
            append(Token(_SYMBOLS[text], text, None, line, column))
        elif kind == "number":
            if "." in text:
                append(Token(TokenType.FLOAT_LITERAL, text, float(text), line, column))
            elif text[-1] == "q":
                append(Token(TokenType.QUANTUM_INT_LITERAL, text, int(text[:-1]), line, column))
            else:
                append(Token(TokenType.INT_LITERAL, text, int(text), line, column))
        elif kind == "string":
            quantum = text[-1] == "q"
            body = text[1:-2] if quantum else text[1:-1]
            value = _ESCAPE.sub(_unescape, body) if "\\" in body else body
            if not quantum:
                append(Token(TokenType.STRING_LITERAL, text, value, line, column))
            elif value and not value.strip("01"):
                append(Token(TokenType.QUANTUM_STRING_LITERAL, text, value, line, column))
            else:
                raise QutesSyntaxError(
                    "quantum string literals must be non-empty bitstrings", line, column
                )
        elif kind == "ket":
            append(Token(TokenType.KET_LITERAL, text, text[1], line, column))
        else:
            _refuse(source, match.start(), line, column)
    append(Token(TokenType.EOF, "", None, line, len(source) - line_start + 1))
    return tokens


def _unescape(escape: re.Match) -> str:
    return _ESCAPES[escape.group(1)]


def _refuse(source: str, start: int, line: int, column: int) -> NoReturn:
    """Raise the syntax error for the malformed token at *start* (on *line*,
    at *column*): one that no alternative of :data:`_TOKEN` but ``error``
    matches.  The error names the line the scan reaches inside the token."""
    char = source[start]
    if source.startswith("/*", start):
        raise QutesSyntaxError(
            "unterminated block comment", line + source.count("\n", start), column
        )
    if char == '"':
        position = start + 1
        while position < len(source) and source[position] != '"':
            char = source[position]
            position += 1
            if char == "\n":
                raise QutesSyntaxError("unterminated string literal", line + 1, column)
            if char == "\\" and position < len(source):
                escape = source[position]
                position += 1
                if escape not in _ESCAPES:
                    line += escape == "\n"
                    raise QutesSyntaxError(f"invalid escape sequence '\\{escape}'", line, column)
        raise QutesSyntaxError("unterminated string literal", line, column)
    if char == "|":
        raise QutesSyntaxError(
            "invalid ket literal (expected |0>, |1>, |+> or |->)", line, column
        )
    if char == "!":
        raise QutesSyntaxError(
            "unexpected character '!' (did you mean '!=' or 'not'?)", line, column
        )
    raise QutesSyntaxError(f"unexpected character {char!r}", line, column)

"""Token-dump golden of the Qutes lexer.

Every standard-library program, every source that ``test_lexer.py`` lexes
and a set of edge cases (multi-line errors, escapes, literal suffixes,
non-ASCII identifiers and digits) are lexed; each token's type, lexeme,
literal, line and column, or the error's message, line and column, must
match ``tests/golden/qutes_lexer_tokens.txt`` line for line.  Run this file
as a script to print the current text.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.lang.errors import QutesSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.stdlib import get_program, list_programs

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "qutes_lexer_tokens.txt"

#: the sources of ``test_lexer.py``, then edge cases
CASES = [
    "",
    "( ) { } [ ] , ; + - * / %",
    "== != > >= < <= =",
    "<< >>",
    "if else while foreach in return print",
    "bool int float string qubit quint qustring void",
    "hadamard paulix pauliy pauliz phase measure",
    "ifx printed _under score2",
    "42",
    "3.25",
    "5q",
    "5qs",
    '"hello world"',
    r'"a\nb\t\"c\\"',
    '"0101"q',
    '"01a1"q',
    "|0>",
    "|1>",
    "|+>",
    "|->",
    "|2>",
    "true false",
    "1 // comment here\n2",
    "1 /* multi\nline */ 2",
    "/* never ends",
    '"abc',
    "a $ b",
    "!a",
    "a\nb\n  c",
    "ab cd",
    # edge cases
    "x=1;y==2!=3>=4<=5<<6>>7>8<9",
    "a\r\n\tb\r\n  c",
    "1.5q 7q_ 8q9 9q",
    "2.q",
    "0.5.5",
    "12.",
    '"01"q"10"q',
    '"01"qx',
    '""q',
    '""',
    '"a\\qb"',
    '"ab\ncd"',
    'x;\n  "a\\\nb"',
    "x;\n  /* one\n two",
    "x;\n  /*/ y",
    "/**/z",
    "a /* b */ c // d",
    "// only a comment",
    "x\n  |x>",
    "|0",
    "a\n  !",
    "a\n  #",
    "café = 1; ٣ + 2",
    "quint[4] a = 5q;\nhadamard a;\nprint a + 3;",
    "x\f",
    "a\n\n\n",
]


def dump(source: str) -> dict:
    """The tokens of *source* as ``[type, lexeme, literal, line, column]``
    lists, or its syntax error as ``[message, line, column]``."""
    try:
        tokens = tokenize(source)
    except QutesSyntaxError as exc:
        return {"source": source, "error": [exc.message, exc.line, exc.column]}
    return {
        "source": source,
        "tokens": [[t.type.name, t.lexeme, t.literal, t.line, t.column] for t in tokens],
    }


def render() -> str:
    """One JSON line per standard-library program, then per case."""
    sources = [get_program(name) for name in list_programs()] + CASES
    return "".join(json.dumps(dump(source), ensure_ascii=True) + "\n" for source in sources)


def test_token_dump_matches_the_golden():
    assert render().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    sys.stdout.write(render())

"""Tests for the AST dumper and the CLI ``--ast`` flag."""

from repro.lang.ast_printer import dump_ast
from repro.lang.parser import parse

SAMPLE = """
    function int add(int a, int b) { return a + b; }
    quint[3] x = 5q;
    qustring s = "010";
    int[] xs = [1, 2, 3];
    hadamard x;
    if (x > 2) { print "big"; } else { print "small"; }
    while (false) { xs[0] = xs[0] + 1; }
    do { barrier; } while (false);
    foreach v in xs { print v; }
    print "01" in s;
    print x << 1;
    print add(measure x, min_of(xs));
    print not (true and false) or 1 < 2;
    print -3 + 2 * 4;
    qubit k = |+>;
"""


class TestDump:
    def test_dump_contains_every_statement_kind(self):
        text = dump_ast(parse(SAMPLE))
        for expected in [
            "FunctionDeclaration",
            "VarDeclaration",
            "If",
            "While",
            "DoWhile",
            "Foreach",
            "Print",
            "InExpression",
            "ShiftExpression",
            "GateApplication hadamard",
            "Call",
            "KetLiteral |+>",
            "QuantumLiteral",
            "ArrayLiteral",
            "Barrier",
        ]:
            assert expected in text

    def test_dump_is_indented(self):
        text = dump_ast(parse("if (true) { print 1; }"))
        lines = text.splitlines()
        assert lines[0] == "Program"
        assert lines[1].startswith("  If")
        assert any(line.startswith("    ") for line in lines)

    def test_dump_assignment(self):
        text = dump_ast(parse("int x = 1; x = x + 1;"))
        assert "Assignment" in text


class TestCliAstFlag:
    def test_ast_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.qut"
        path.write_text("quint a = 1q; print a;")
        assert main([str(path), "--ast"]) == 0
        out = capsys.readouterr().out
        assert "Program" in out and "VarDeclaration" in out

    def test_ast_flag_syntax_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "broken.qut"
        path.write_text("int = ;")
        assert main([str(path), "--ast"]) == 1

"""AST inspection: :func:`dump_ast`, an indented, s-expression-like
rendering of the tree, used by the CLI ``--ast`` flag and handy when
debugging grammar changes."""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import QutesError

__all__ = ["dump_ast"]


def dump_ast(node: ast.Node, indent: int = 0) -> str:
    """Return an indented textual rendering of *node* and its children."""
    pad = "  " * indent
    if isinstance(node, ast.Program):
        lines = [f"{pad}Program"]
        lines += [dump_ast(s, indent + 1) for s in node.statements]
        return "\n".join(lines)
    if isinstance(node, ast.VarDeclaration):
        head = f"{pad}VarDeclaration {node.type} {node.name}"
        if node.initializer is None:
            return head
        return head + "\n" + dump_ast(node.initializer, indent + 1)
    if isinstance(node, ast.FunctionDeclaration):
        params = ", ".join(f"{p.type} {p.name}" for p in node.parameters)
        return (
            f"{pad}FunctionDeclaration {node.return_type} {node.name}({params})\n"
            + dump_ast(node.body, indent + 1)
        )
    if isinstance(node, ast.Block):
        lines = [f"{pad}Block"]
        lines += [dump_ast(s, indent + 1) for s in node.statements]
        return "\n".join(lines)
    if isinstance(node, ast.If):
        lines = [f"{pad}If", dump_ast(node.condition, indent + 1), dump_ast(node.then_branch, indent + 1)]
        if node.else_branch is not None:
            lines.append(f"{pad}Else")
            lines.append(dump_ast(node.else_branch, indent + 1))
        return "\n".join(lines)
    if isinstance(node, ast.While):
        return f"{pad}While\n" + dump_ast(node.condition, indent + 1) + "\n" + dump_ast(node.body, indent + 1)
    if isinstance(node, ast.DoWhile):
        return f"{pad}DoWhile\n" + dump_ast(node.body, indent + 1) + "\n" + dump_ast(node.condition, indent + 1)
    if isinstance(node, ast.Foreach):
        return f"{pad}Foreach {node.variable}\n" + dump_ast(node.iterable, indent + 1) + "\n" + dump_ast(node.body, indent + 1)
    if isinstance(node, ast.Return):
        if node.value is None:
            return f"{pad}Return"
        return f"{pad}Return\n" + dump_ast(node.value, indent + 1)
    if isinstance(node, ast.Print):
        return f"{pad}Print\n" + dump_ast(node.value, indent + 1)
    if isinstance(node, ast.BarrierStatement):
        return f"{pad}Barrier"
    if isinstance(node, ast.ExpressionStatement):
        return f"{pad}ExpressionStatement\n" + dump_ast(node.expression, indent + 1)
    if isinstance(node, ast.Assignment):
        return f"{pad}Assignment\n" + dump_ast(node.target, indent + 1) + "\n" + dump_ast(node.value, indent + 1)
    if isinstance(node, ast.Literal):
        return f"{pad}Literal {node.type} {node.value!r}"
    if isinstance(node, ast.QuantumLiteral):
        return f"{pad}QuantumLiteral {node.type} {node.value!r}"
    if isinstance(node, ast.KetLiteral):
        return f"{pad}KetLiteral |{node.state}>"
    if isinstance(node, ast.ArrayLiteral):
        lines = [f"{pad}ArrayLiteral"]
        lines += [dump_ast(e, indent + 1) for e in node.elements]
        return "\n".join(lines)
    if isinstance(node, ast.Identifier):
        return f"{pad}Identifier {node.name}"
    if isinstance(node, (ast.Binary, ast.Logical, ast.Comparison)):
        return (
            f"{pad}{type(node).__name__} {node.operator}\n"
            + dump_ast(node.left, indent + 1)
            + "\n"
            + dump_ast(node.right, indent + 1)
        )
    if isinstance(node, ast.Unary):
        return f"{pad}Unary {node.operator}\n" + dump_ast(node.operand, indent + 1)
    if isinstance(node, ast.GateApplication):
        return f"{pad}GateApplication {node.gate}\n" + dump_ast(node.operand, indent + 1)
    if isinstance(node, ast.InExpression):
        return f"{pad}InExpression\n" + dump_ast(node.needle, indent + 1) + "\n" + dump_ast(node.haystack, indent + 1)
    if isinstance(node, ast.ShiftExpression):
        return f"{pad}ShiftExpression {node.operator}\n" + dump_ast(node.value, indent + 1) + "\n" + dump_ast(node.amount, indent + 1)
    if isinstance(node, ast.IndexAccess):
        return f"{pad}IndexAccess\n" + dump_ast(node.collection, indent + 1) + "\n" + dump_ast(node.index, indent + 1)
    if isinstance(node, ast.Call):
        lines = [f"{pad}Call", dump_ast(node.callee, indent + 1)]
        lines += [dump_ast(a, indent + 1) for a in node.arguments]
        return "\n".join(lines)
    raise QutesError(f"cannot dump node {type(node).__name__}")

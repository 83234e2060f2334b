"""Static checks over ``src/vtcomp``: the engine raises two exception
classes, one per non-usage exit code, and every public top-level name it
defines is used by the package itself, so test-only code lives in tests/."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vtcomp"
ALLOWED = {"EngineError", "InternalInvariant"}


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


class _Raises(ast.NodeVisitor):
    """Every ``raise X`` outside the ``__main__`` block; bare re-raises are skipped."""

    def __init__(self):
        self.found: list[ast.Raise] = []

    def visit_If(self, node):
        if ast.unparse(node.test) != "__name__ == '__main__'":
            self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None:
            self.found.append(node)


def _is_exception(base: ast.expr) -> bool:
    name = ast.unparse(base)
    builtin = getattr(builtins, name, None)
    return name in ALLOWED or (isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_every_raise_names_an_engine_class():
    offenders = []
    for name, tree in _modules().items():
        visitor = _Raises()
        visitor.visit(tree)
        for node in visitor.found:
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in ALLOWED):
                offenders.append(f"{name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert offenders == []


def test_errors_module_defines_only_the_two_classes():
    defined = {}
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (name == "errors.py"
                                                   or any(map(_is_exception, node.bases))):
                defined.setdefault(name, set()).add(node.name)
    assert defined == {"errors.py": ALLOWED}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_every_public_definition_is_used_by_the_package():
    modules = _modules()
    loaded = {node.id for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{name}:{defined}" for name, tree in modules.items()
              for defined in _public_definitions(tree)
              if not defined.startswith("_") and defined not in loaded]
    assert unused == []

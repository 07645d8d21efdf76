"""Every module-level function in ``src/divsim`` has a reader.

A static check over the syntax trees; nothing is imported. A function is
held when ``src`` loads its name outside the function's own body, when
``divsim.__all__`` or ``divsim.domains.__all__`` exports it, when a file of
``perfbench/`` reads it (by name, or as a string such as a ``getattr``
argument), or when ``tests/test_acceptance.py`` imports it.
Names are matched by name alone, across modules.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divsim"
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _loads(tree: ast.AST) -> set:
    """The names ``tree`` loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _imports(tree: ast.AST) -> set:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _strings(tree: ast.AST) -> set:
    """The string constants in ``tree``: names read with ``getattr``, for one."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _src_loads(tree: ast.Module) -> set:
    """The names a module loads, leaving out a function's loads of itself."""
    names = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, FUNCTION) else None
        names |= _loads(stmt) - {own}
    return names


def _exported(tree: ast.Module) -> set:
    """The module's ``__all__``, evaluated over the literals assigned before it."""
    env = {}
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "__all__":
            code = compile(ast.Expression(stmt.value), "__all__", "eval")
            return set(eval(code, {"__builtins__": {"sorted": sorted}}, env))
        try:
            env[target.id] = ast.literal_eval(stmt.value)
        except ValueError:
            pass
    raise AssertionError("no __all__")


def test_every_module_function_has_a_reader():
    trees = {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}
    held = set().union(*map(_src_loads, trees.values()))
    for module in ("__init__.py", "domains/__init__.py"):
        held |= _exported(trees[SRC / module])
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        held |= _loads(tree) | _imports(tree) | _strings(tree)
    held |= _imports(_parse(ROOT / "tests" / "test_acceptance.py"))
    unheld = [
        f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}"
        for path, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, FUNCTION) and fn.name not in held
    ]
    assert unheld == []


def test_a_function_that_only_calls_itself_is_unheld():
    source = "def helper(n):\n    return helper(n - 1) if n else 0\n\n\ndef used():\n    helper(3)\n"
    assert "helper" in _src_loads(ast.parse(source))
    assert "helper" not in _src_loads(ast.parse(source.replace("helper(3)", "pass")))


def test_exported_reads_a_computed_all():
    tree = ast.parse('_SOURCES = {"b": "m", "a": "m"}\n__all__ = sorted([*_SOURCES, "c"])\n')
    assert _exported(tree) == {"a", "b", "c"}

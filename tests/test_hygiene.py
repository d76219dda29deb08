"""Source hygiene: every name a program module imports at module level is
used in that module. ``__init__.py`` is skipped, since it imports to
re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sarunet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each module-level import, with its line number."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_every_public_op_is_used_by_the_program():
    """Each name in ``ops.__all__`` is read by another program module: an op
    that only tests call is dead code (and the benchmark's tracer wraps
    every listed name as an op kind)."""
    from sarunet import ops
    used = set()
    for path in MODULES:
        if path.name == "ops.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in ops.__all__ if name not in used]
    assert not unused, f"ops.__all__ names no program module uses: {unused}"

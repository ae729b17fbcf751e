"""The chip model sits at the bottom of the stack.

``repro.core`` prices op streams on a machine; compilers, pods, servers,
workloads and the functional CKKS layer are built on top of it.  Every
import in ``src/repro/core/*.py`` - module level or inside a function -
is checked, so a lazy import cannot hide an upward dependency.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
FORBIDDEN = ("repro.compiler", "repro.pod", "repro.serve",
             "repro.workloads", "repro.fhe")


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) for every import statement in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                # Relative to repro.core: one dot is the package itself.
                parts = ["repro", "core"][:3 - node.level]
                found.append((node.lineno,
                              ".".join(parts + [node.module])))
            else:
                found.append((node.lineno, node.module))
    return found


def violations(source: str) -> list[str]:
    return [f"line {line}: {module}"
            for line, module in imported_modules(ast.parse(source))
            if any(module == f or module.startswith(f + ".")
                   for f in FORBIDDEN)]


@pytest.mark.parametrize("path", sorted(CORE.glob("*.py")),
                         ids=lambda p: p.name)
def test_core_imports_nothing_above_it(path):
    assert violations(path.read_text()) == []


def test_lazy_imports_are_caught():
    source = ("def simulate(program, cfg):\n"
              "    from repro.compiler.cache import compile_program\n"
              "    import repro.pod.simulator\n")
    assert violations(source) == ["line 2: repro.compiler.cache",
                                  "line 3: repro.pod.simulator"]

"""Source checks over src/mplab that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mplab"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads, in import order. `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from typing import Optional\n"
        "def f(x: np.ndarray) -> int:\n"
        "    return len(osp.sep)\n"
    )
    assert unused_imports(source) == ["os", "Optional"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []

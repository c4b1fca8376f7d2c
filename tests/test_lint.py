"""Source checks over src/mplab that need no linter installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mplab"
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


def unread_private_names(source: str, readers: list[str]) -> list[str]:
    """Top-level private names (`_x`, dunders aside) that `source` defines
    by def, class or assignment and that no source in `readers` reads, in
    definition order. A read is a loaded name, an attribute, an imported
    name or a string constant (for lookups by name)."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
    read = set()
    for text in readers:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return [
        name
        for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_unread_private_names_finds_what_is_never_read():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "_BY_NAME, (_PAIRED, _ALONE) = 3, (4, 5)\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    return _USED + _PAIRED\n"
        "def _imported(): pass\n"
        "def _by_attr(): pass\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "def f():\n"
        "    return _helper()\n"
    )
    reader = (
        "import m\n"
        "from m import _imported as alias\n"
        "m._by_attr()\n"
        "getattr(m, '_BY_NAME')\n"
    )
    want = ["_UNUSED", "_ALONE", "_dead", "_Gone"]
    assert unread_private_names(source, [source, reader]) == want


# perfbench/spans.py reaches into mplab by attribute and by name
READERS = [p.read_text() for p in [*SRC.glob("*.py"), *ROOT.glob("perfbench/**/*.py")]]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_private_names_are_read(module):
    assert unread_private_names((SRC / module).read_text(), READERS) == []


def environment_reads(source: str) -> list[str]:
    """The `os.environ` and `os.getenv` reads in source, as
    "line: expression", in line order. A module that reads the environment
    gives a second way to set what a config field sets."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {a.name}")
                for a in node.names if a.name in ("environ", "getenv")
            ]
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_environment_reads_finds_every_spelling():
    source = (
        "import os\n"
        "from os import getenv as g\n"
        "seed = os.environ.get('SEED')\n"
        "path = os.getenv('PATH')\n"
        "cores = os.sched_getaffinity(0)\n"
        "def f():\n"
        "    return os.environ['HOME']\n"
    )
    assert environment_reads(source) == [
        "2: from os import getenv",
        "3: os.environ",
        "4: os.getenv",
        "7: os.environ",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_no_environment_variable(module):
    assert environment_reads((SRC / module).read_text()) == []


def private_imports(source: str) -> list[str]:
    """The underscore names (dunders aside) that source imports from an
    mplab module, as "line: module.name", in line order. A private name
    is its module's own; another module reaches it only through the
    module's public functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "mplab" or module.startswith("mplab.")):
            continue
        origin = "." * node.level + module + ("." if module else "")
        found += [
            (a.lineno, origin + a.name)
            for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")
        ]
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_private_imports_finds_every_spelling():
    source = (
        "from . import __version__, _state\n"
        "from .operator import OperatorSpec, _template_for\n"
        "from .spectral import (\n"
        "    green,\n"
        "    _green_column as column,\n"
        ")\n"
        "from mplab.streams import _philox_word\n"
        "from numpy import _private\n"
        "def f():\n"
        "    from .harness import _KINDS\n"
    )
    assert private_imports(source) == [
        "1: ._state",
        "2: .operator._template_for",
        "5: .spectral._green_column",
        "7: mplab.streams._philox_word",
        "10: .harness._KINDS",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_no_private_name_of_another(module):
    assert private_imports((SRC / module).read_text()) == []


def config_readers(source: str) -> list[str]:
    """The functions and methods named `from_dict` or `to_dict` that
    source defines, as "line: name", in line order. The config's JSON form
    is read and written in harness.py alone; the model layer builds its
    specs through constructors and factories."""
    found = [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("from_dict", "to_dict")
    ]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_config_readers_finds_every_definition():
    source = (
        "class Spec:\n"
        "    def to_dict(self):\n"
        "        return {}\n"
        "    @classmethod\n"
        "    def from_dict(cls, obj):\n"
        "        return cls()\n"
        "    def as_dict(self):\n"
        "        return self.to_dict()\n"
        "def from_dict(obj):\n"
        "    return Spec.from_dict(obj)\n"
    )
    assert config_readers(source) == ["2: to_dict", "5: from_dict", "9: from_dict"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "harness.py")
)
def test_only_the_harness_reads_config_dicts(module):
    assert config_readers((SRC / module).read_text()) == []


def nodes_where(source: str, matches) -> list[str]:
    """The nodes of source for which matches(node) holds, as "line:
    enclosing function" ("<module>" at top level), in line order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((child.lineno, scope))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(source), "<module>")
    return [f"{line}: {scope}" for line, scope in sorted(found)]


def calls_named(source: str, name: str) -> list[str]:
    """The calls in source whose callee is `name` or ends in `.name`, as
    nodes_where gives them. A callee renamed on import is not followed."""

    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        return name in (attr, getattr(func, "id", None))

    return nodes_where(source, matches)


def test_calls_named_finds_every_call_site():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "w = np.linalg.eigh(a)\n"
        "class T:\n"
        "    def build(self):\n"
        "        return eigh(self.m)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return scipy.linalg.eigh(b)\n"
        "    return np.linalg.eigvalsh(c), eigh, inner()\n"
    )
    assert calls_named(source, "eigh") == ["3: <module>", "6: build", "9: inner"]


def sites(find) -> list[str]:
    """find(source) over every module of src/mplab, as "module:line: scope"."""
    return [
        f"{p.name}:{site}"
        for p in sorted(SRC.glob("*.py"))
        for site in find(p.read_text())
    ]


def call_sites(name: str) -> list[str]:
    return sites(lambda source: calls_named(source, name))


def test_eigh_is_called_once_in_spectral_data():
    # every dense eigendecomposition, a composite's included, is spectral_data:
    # numpy's eigh, or the same LAPACK dsyevd in place (its workspace query
    # and its solve), resolved by one module
    (site,) = call_sites("eigh")
    assert site.startswith("spectral.py:") and site.endswith(": spectral_data")
    sites = call_sites("_DSYEVD")
    assert len(sites) == 2
    assert all(
        s.startswith("spectral.py:") and s.endswith(": spectral_data") for s in sites
    )
    resolvers = [p.name for p in SRC.glob("*.py") if "dsyevd" in p.read_text()]
    assert resolvers == ["spectral.py"]


def energy_divisions(source: str) -> list[str]:
    """The divisions (`/` and `/=`) in source whose divisor holds a
    subtraction with an `.energies` attribute on either side, as
    nodes_where gives them. A name bound to `.energies` is not followed."""

    def reads_energies(node):
        return any(
            isinstance(n, ast.Attribute) and n.attr == "energies"
            for n in ast.walk(node)
        )

    def matches(node):
        if not isinstance(node, (ast.BinOp, ast.AugAssign)):
            return False
        divisor = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(node.op, ast.Div) and any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Sub)
            and (reads_energies(n.left) or reads_energies(n.right))
            for n in ast.walk(divisor)
        )

    return nodes_where(source, matches)


def test_energy_divisions_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "def entries(S, ix, iy, z):\n"
        "    w = S.vectors[ix, :] * S.vectors[iy, :]\n"
        "    return np.sum(w / (S.energies - z))\n"
        "def broadcast(S, w, zs):\n"
        "    d = w[None, :] / (S.energies[None, :] - zs[:, None])\n"
        "    d /= zs[:, None] - S.energies\n"
        "    return d, (S.energies - 1.0) / 2.0, S.energies / zs[0], 1.0 / (zs - 1.0)\n"
    )
    assert energy_divisions(source) == ["4: entries", "6: broadcast", "7: broadcast"]


def test_only_green_block_divides_by_an_energy_difference():
    # one eigen-sum formula: sum_k psi_k(x) psi_k(y) / (E_k - z) is formed
    # by spectral.green_block, which every eigen-sum Green entry reads
    (site,) = sites(energy_divisions)
    assert site.startswith("spectral.py:") and site.endswith(": green_block")


def test_sparse_hamiltonians_are_built_in_operator_py():
    # one operator form: assemble and kron_sum build it, nothing else does
    sites = call_sites("SparseHamiltonian")
    assert sites and all(site.startswith("operator.py:") for site in sites)


def names_read(source: str, name: str) -> list[str]:
    """The reads of `name` in source, a loaded name or a loaded attribute
    `.name`, as nodes_where gives them. Stores and imports are not reads."""

    def matches(node):
        if isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Attribute):
            found = node.attr
        else:
            return False
        return found == name and isinstance(node.ctx, ast.Load)

    return nodes_where(source, matches)


def test_names_read_finds_every_read():
    source = (
        "import spectral\n"
        "from spectral import CAP\n"
        "CAP = 256\n"
        "def green(H):\n"
        "    return H.dense() if H.dim <= CAP else H.matrix\n"
        "def other(H):\n"
        "    spectral.CAP = 3\n"
        "    return spectral.CAP, [CAP for _ in H]\n"
    )
    assert names_read(source, "CAP") == ["5: green", "8: other", "8: other"]


def test_green_alone_solves_and_picks_the_matrix_form():
    # one single-entry LU solve: spectral.green reads H.dim against
    # _DENSE_SOLVE_CAP and is the one caller of _green_column
    for found in (
        call_sites("_green_column"),
        sites(lambda source: names_read(source, "_DENSE_SOLVE_CAP")),
    ):
        (site,) = found
        assert site.startswith("spectral.py:") and site.endswith(": green")

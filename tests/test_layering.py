"""The generic kernel modules import no backend and no DSL."""

import ast
from pathlib import Path

import qlax

KERNEL = ("algebra", "qseries", "laxflow", "symops", "render")
BACKENDS = {"matrix", "psdo", "diffpoly", "expr"}


def imported_modules(name: str) -> set:
    """Every qlax module ``name`` imports, at the top level or inside a function."""
    tree = ast.parse((Path(qlax.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("qlax."):
                found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names if alias.name.startswith("qlax."))
    return found


def test_kernel_imports_no_backend():
    # psdo imports diffpoly at the top and expr inside a method: the scan sees both.
    assert {"diffpoly", "expr"} <= imported_modules("psdo")
    for name in KERNEL:
        assert not imported_modules(name) & BACKENDS, name

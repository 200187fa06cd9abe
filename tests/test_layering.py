"""The generic kernel modules import no backend and no DSL, symbols and
their coefficients import no DSL, every import is at module level, and
powers of t appear only at the rendering boundary."""

import ast
from pathlib import Path

import qlax

KERNEL = ("algebra", "qseries", "laxflow", "symops", "render")
BACKENDS = {"matrix", "psdo", "diffpoly", "expr"}


def source(name: str) -> str:
    return (Path(qlax.__file__).parent / f"{name}.py").read_text()


def imported_modules(text: str) -> set:
    """Every qlax module a source text imports, at the top level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("qlax."):
                found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names if alias.name.startswith("qlax."))
    return found


def function_level_imports(text: str) -> set:
    """Every import statement inside a function, method or lambda of a
    source text, as source."""
    return {
        ast.unparse(node)
        for scope in ast.walk(ast.parse(text))
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }


def test_scanners_see_imports_inside_methods():
    # the rules below could pass only because a scanner went blind
    text = "import os\n\nclass Symbol:\n    def __str__(self):\n        from . import expr\n        return expr.text(self)\n"
    assert function_level_imports(text) == {"from . import expr"}
    assert imported_modules(text) == {"expr"}


def test_kernel_imports_no_backend():
    # the scan sees a top-level import
    assert "diffpoly" in imported_modules(source("psdo"))
    for name in KERNEL:
        assert not imported_modules(source(name)) & BACKENDS, name


def test_no_module_imports_inside_a_function():
    # every import is at the top of its module, where the layering reads it
    for path in Path(qlax.__file__).parent.glob("*.py"):
        assert not function_level_imports(path.read_text()), path.stem


def test_symbols_and_their_coefficients_import_no_parser():
    # the DSL parser builds symbols; a symbol prints itself without it
    for name in ("psdo", "diffpoly"):
        assert "expr" not in imported_modules(source(name)), name


def test_kernel_series_hold_no_t_polynomials():
    # a kernel series stores one coefficient per q-order; TPoly is only the
    # input type of a path P
    for name in ("qseries", "symops", "matrix", "cli"):
        assert "TPoly" not in source(name), name


def test_t_coefficients_are_spelled_out_only_in_render():
    modules = [path.stem for path in Path(qlax.__file__).parent.glob("*.py")]
    assert [name for name in modules if "t_coeffs" in source(name)] == ["render"]


def test_descriptors_leave_arithmetic_to_elements():
    # a descriptor supplies zero, one and probes(); every element scales
    # and tests itself for zero, and every coefficient type sums products
    # with dot
    def subclasses(cls):
        return [cls] + [s for sub in cls.__subclasses__() for s in subclasses(sub)]

    descriptors = [c for c in subclasses(qlax.Algebra) if c.__module__.startswith("qlax")]
    assert {c.__name__ for c in descriptors} >= {"Algebra", "MatrixAlgebra", "PsdoAlgebra", "BiOpAlgebra"}
    for cls in descriptors:
        assert not {"is_zero", "scale"} & set(vars(cls)), cls.__name__
    for cls in (qlax.RatMatrix, qlax.PsdoSymbol, qlax.BiOp, qlax.QSeries, qlax.DiffPoly):
        assert {"is_zero", "scale"} <= set(vars(cls)), cls.__name__
    # only backend elements render themselves: render writes a series, and
    # no report renders a BiOp
    for cls in (qlax.RatMatrix, qlax.PsdoSymbol, qlax.DiffPoly):
        assert {"to_json", "max_abs"} <= set(vars(cls)), cls.__name__
    # every coefficient type carries its own multiply-accumulate kernel,
    # which the series layer finds through the type of the algebra's zero
    for cls in (qlax.RatMatrix, qlax.PsdoSymbol, qlax.BiOp):
        assert isinstance(vars(cls).get("dot"), staticmethod), cls.__name__
    # and a backend coefficient type measures how far such a sum is from a
    # multiple of a target, which is how laxflow.defects checks the flow
    # equations, and gives the coordinates of a bracket, which is how
    # symops.symmetry_defects checks the symmetry equation
    for cls in (qlax.RatMatrix, qlax.PsdoSymbol):
        for name in ("dot_defect", "bracket_coords"):
            assert isinstance(vars(cls).get(name), staticmethod), (cls.__name__, name)


def called_names(module: str, *path: str) -> set:
    """The names called inside a function or method of a qlax module,
    found by its path of class and function names."""
    node = ast.parse(source(module))
    for name in path:
        node = next(n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
    return {call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_matrix_comparison_never_calls_the_kernel():
    # the matrix checks must share no arithmetic with the kernel they check
    for method in ("dot_defect", "bracket_coords"):
        called = called_names("matrix", "RatMatrix", method)
        assert not called & {"dot", "_canonical", "RatMatrix", "gcd"}, (method, called)


def test_flow_defects_list_their_own_factors_and_call_no_kernel():
    # the flow checks list the path, the steps and the pairs themselves, so
    # a fault in the solver's listing helpers or its kernel cannot confirm
    # itself
    called = called_names("laxflow", "defects")
    assert not called & {"nonzero", "holes", "convolution", "dot"}, called


def test_symmetry_defects_build_no_biop_and_call_no_kernel():
    # the per-order symmetry check brackets through the backend's own
    # bracket_coords, never through dot, a bracket method or a BiOp
    called = called_names("symops", "symmetry_defects")
    assert not called & {"dot", "bracket", "BiOp", "of", "lax_residual", "symmetry3_residual", "lift_ad"}, called
    assert not called_names("psdo", "PsdoSymbol", "bracket_coords") & {"dot", "bracket", "_sum_of_products"}


def test_expr_parser_elaborates_without_a_syntax_tree():
    text = source("expr")
    classes = [node.name for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)]
    assert classes == ["Token", "_Parser"]
    assert "isinstance" not in text

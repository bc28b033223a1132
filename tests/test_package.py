"""Package layout: lazy submodules, the numpy-free modules behind the
integer and scalar subcommands, a dot layer that loads numpy only in its
array functions, no ``dataclasses`` anywhere, the names the
numerical modules re-export, no unused imports in the package sources, one
float conversion of real arrays, one refusal of inf and nan elements, one
constructor of spin records in ``hierarchy``, and Python 3.10 grammar in
every source."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import spinhier
from spinhier import angular_momentum, gates, hierarchy, quantum_dot, register, wavelet

# Run one subcommand through cli.main in a fresh interpreter, then report on
# stderr which of numpy, dataclasses and inspect (which dataclasses imports)
# were imported on the way.
_PROBE = """\
import sys
from spinhier.cli import main
code = main(sys.argv[1:])
print(*[m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


def _probe(argv):
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                         capture_output=True, text=True, check=True)
    assert run.stdout
    return run.stderr.split()


@pytest.mark.parametrize("argv", [
    ["decompose", "--qubits", "16"],
    ["ladder", "--levels", "12"],
    ["estimates", "--d", "0.6"],
    ["constants"],
])
def test_integer_and_scalar_subcommands_do_not_import_numpy(argv):
    assert _probe(argv) == []


@pytest.mark.parametrize("argv", [
    ["gate", "--name", "swap"],
    ["pulse", "--j0", "1", "--area", "pi"],
], ids=["gate", "pulse"])
def test_numerical_subcommand_still_imports_numpy(argv):
    loaded = _probe(argv)
    assert "numpy" in loaded
    assert "dataclasses" not in loaded


def test_dot_layer_loads_numpy_only_in_its_array_functions():
    probe = """\
import sys
from spinhier.quantum_dot import (DotParameters, bohr_radius, coulomb_parameter,
                                  physical_estimates, sweep_exchange)
p = DotParameters.gaas()
bohr_radius(p), coulomb_parameter(p), physical_estimates(p)
assert "numpy" not in sys.modules
assert [r.b for r in sweep_exchange(p, [0.0, 1.0])][0] == 1.0
assert "numpy" in sys.modules
"""
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_no_module_imports_dataclasses():
    importers = set()
    for path in Path(spinhier.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [])
            if "dataclasses" in names:
                importers.add(path.name)
    assert importers == set()


def test_package_resolves_every_listed_module():
    for name in spinhier.__all__:
        module = getattr(spinhier, name)
        assert module is importlib.import_module(f"spinhier.{name}")
    with pytest.raises(AttributeError, match="no attribute 'no_such_module'"):
        spinhier.no_such_module


@pytest.mark.parametrize("module,source,names", [
    (angular_momentum, register,
     ["MAX_TWICE_J", "InvalidLabelError", "MultipletLabel", "SpinLabel"]),
    (hierarchy, register,
     ["MAX_LADDER_LEVELS", "MAX_TREE_QUBITS", "MAX_TWICE_J", "CouplingTree",
      "LadderDimensions", "MultipletLabel", "SpinLabel", "TreeNode",
      "build_coupling_tree", "ladder_dimensions", "register_content"]),
], ids=["angular_momentum", "hierarchy"])
def test_numerical_modules_re_export_the_numpy_free_names(module, source, names):
    for name in names:
        assert getattr(module, name) is getattr(source, name), name


def test_element_and_matrix_checks_are_defined_once_in_register():
    assert quantum_dot._check_all is register._check_all
    assert gates._square is register._square
    assert wavelet._finite is register._finite
    checks = {"_check_all", "_square", "_finite"}
    for path in Path(spinhier.__file__).parent.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef)}
        assert path.name == "register.py" or not defined & checks, path.name


def test_register_finite_is_the_one_finiteness_check_of_arrays():
    # every numpy isfinite call of the package, by file and enclosing function;
    # the one besides register._finite folds "finite and non-negative" into one message
    calls = []
    for path in Path(spinhier.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "np.isfinite", "numpy.isfinite", "isfinite"):
                while not isinstance(node, (ast.FunctionDef, ast.Module)):
                    node = node.parent
                calls.append((path.name, getattr(node, "name", None)))
    calls.remove(("register.py", "_finite"))
    assert calls == [("quantum_dot.py", "_dimensionless_fields")]


def test_hierarchy_makes_spin_records_only_through_its_cached_constructor():
    # one constructor keeps one SpinLabel object per 2j across all label records
    assert hierarchy._spin_label.__wrapped__ is register.SpinLabel
    tree = ast.parse(Path(hierarchy.__file__).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "SpinLabel"]
    assert calls == []
    # the one read of the name is the argument of `_spin_label = cache(SpinLabel)`
    wraps = [node.value.args for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and [ast.unparse(target) for target in node.targets] == ["_spin_label"]]
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "SpinLabel"]
    assert len(wraps) == 1 and wraps[0] == reads


def _unused_imports(path):
    """Names bound by an import of ``path`` and never read; ``__future__``
    imports and statements whose first line says ``# noqa: F401`` (the
    deliberate re-exports) are skipped."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if future or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(Path(spinhier.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_sources_have_no_unused_imports(path):
    assert _unused_imports(path) == []


def _float_conversions(tree):
    """Lines of ``np.asarray``/``np.array`` calls with a ``float`` dtype,
    by keyword or position, and of ``.astype(float)`` calls in ``tree``."""
    def is_float(node):
        return isinstance(node, ast.Name) and node.id == "float"

    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
        if node.func.attr == "astype":
            dtypes += node.args[:1]
        elif node.func.attr in ("asarray", "array"):
            dtypes += node.args[1:2]
        else:
            continue
        if any(map(is_float, dtypes)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(Path(spinhier.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_real_arrays_are_converted_only_by_register_as_real(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    helpers = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_as_real"]
    if path.name == "register.py":
        # the helper holds the one conversion, which the search finds
        assert len(helpers) == 1 and len(_float_conversions(helpers[0])) == 1
        tree.body.remove(helpers[0])
    assert _float_conversions(tree) == []


def test_sources_parse_with_the_python_3_10_grammar():
    """requires-python is >= 3.10. A best-effort check of grammar only: the
    3.10 parser refuses newer syntax, but newer stdlib APIs are not seen."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted(path for folder in ("src", "tests", "perfbench")
                   for path in (root / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

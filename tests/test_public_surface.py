"""The public surface: every exported name, and every public method and
property of an exported class, has a caller, and the README library example
runs."""

import ast
import re
from collections import Counter
from pathlib import Path

import uotcone

PACKAGE = Path(uotcone.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# exports that no other module of the package references, and methods
# ("Class.name") that the package reads nowhere outside their own body, each
# with the reason it stays public
KEEP = {
    "AffineConnection": "the type connect_affine returns",
    "BBResult": "the type bb_action returns",
    "base_metric_eval": "the base metric; checks reach it through submersion_consistency",
    "group_metric_eval": "the group metric; checks reach it through submersion_consistency",
    "hamiltonian_wfr": "the only code form of the large-model Hamiltonian: the tests check "
                       "it, and it writes the H column of a wfr integrate_pde trace",
    "scaled_base": "the statement that the Gaussian model is the cone over spd/4",
    "solve_potential": "the elliptic solve the CLI reaches through the metric evaluations, "
                       "and the benchmark tracer spans by name",
    "integrate_geodesic": "the Gaussian RK4 flow that the benchmark tracer spans by name",
}


def exports():
    """{name: defining module} of every name ``uotcone/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def modules():
    """{module: syntax tree} of the package's modules, __init__ aside."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in PACKAGE.glob("*.py") if path.stem != "__init__"}


def reads(node):
    """How often each name, or attribute name, is read within node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def methods(trees):
    """{"Class.name": def node} of the public methods and properties of
    every exported class, in the module that defines it."""
    exported = exports()
    return {f"{cls.name}.{node.name}": node
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and exported.get(cls.name) == module
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_every_export_has_a_caller():
    # a public name stays when code outside its own module calls it (cli and
    # checks are such modules for every export) or when KEEP gives a reason;
    # a KEEP entry that gains a caller, or names no export, is stale
    refs = {module: reads(tree) for module, tree in modules().items()}
    uncalled = {name for name, module in exports().items()
                if not any(name in names for m, names in refs.items() if m != module)}
    assert uncalled == {name for name in KEEP if "." not in name}


def test_every_public_method_has_a_caller():
    # a public method or property of an exported class stays when the
    # package reads its name outside its own body, or when KEEP gives a
    # reason; names are matched, not types, so one read of "validate"
    # serves every class that defines it
    trees = modules()
    found = methods(trees)
    assert {"Grid1D.h", "GeodesicTrace.column"} <= set(found)  # properties, methods
    package = sum(map(reads, trees.values()), Counter())
    uncalled = {key for key, node in found.items()
                if package[node.name] == reads(node)[node.name]}
    assert uncalled == {name for name in KEEP if "." in name}


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md ## Library", "exec"), {})

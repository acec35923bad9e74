"""The public surface: every exported name has a caller, and the README
library example runs."""

import ast
import re
from pathlib import Path

import uotcone

PACKAGE = Path(uotcone.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# exports that no other module of the package references, each with the
# reason it stays public
KEEP = {
    "AffineConnection": "the type connect_affine returns",
    "BBResult": "the type bb_action returns",
    "base_metric_eval": "the base metric; checks reach it through submersion_consistency",
    "group_metric_eval": "the group metric; checks reach it through submersion_consistency",
    "hamiltonian_wfr": "the only code form of the large-model Hamiltonian the tests check",
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


def references():
    """{module: names it reads} over the package's modules, __init__ aside."""
    refs = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs[path.stem] = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                           | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})
    return refs


def test_every_export_has_a_caller():
    # a public name stays when code outside its own module calls it (cli and
    # checks are such modules for every export) or when KEEP gives a reason;
    # a KEEP entry that gains a caller, or names no export, is stale
    refs = references()
    uncalled = {name for name, module in exports().items()
                if not any(name in names for m, names in refs.items() if m != module)}
    assert uncalled == set(KEEP)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md ## Library", "exec"), {})

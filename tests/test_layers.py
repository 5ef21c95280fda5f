"""Each package module imports only the modules below it in one fixed layering."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fwconform"
# Lowest first: a module may import only the modules listed before it.
LAYERS = [
    "errors", "firewall", "formal", "optimizer", "testbench",
    "verdict", "report", "scenario", "campaign", "cli",
]


def _imports(name: str) -> set[str]:
    """The package modules `name` imports, "__init__" standing for the package itself."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["fwconform" * bool(node.level), node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            top, _, rest = path.partition(".")
            if top == "fwconform":
                module = rest.partition(".")[0]
                found.add(module if module in LAYERS else "__init__")
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == {*LAYERS, "__init__", "__main__"}


@pytest.mark.parametrize("name", LAYERS)
def test_a_module_imports_only_the_layers_below_it(name):
    allowed = set(LAYERS[: LAYERS.index(name)])
    if name == "campaign":
        allowed.add("__init__")  # for __version__
    assert _imports(name) <= allowed

"""Every public top-level function and class of the package has a caller in
the package: library code that only tests call is not kept."""

import ast
from pathlib import Path

import toruslab

PACKAGE = Path(toruslab.__file__).parent
# the node types that refer to a name, and the field that holds it
REFERENCES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def uncalled() -> list[str]:
    """module.name of each public top-level function or class of the package
    that no Name, Attribute or import alias in the package refers to outside
    its own definition."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((path.stem, own))
            used |= {getattr(sub, REFERENCES[type(sub)]) for sub in ast.walk(node)
                     if type(sub) in REFERENCES} - {own}
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_public_definition_has_a_caller_in_the_package():
    assert uncalled() == []

"""The package's public names and the rules its modules keep."""

import ast
from pathlib import Path

import stvar


def test_every_public_name_resolves():
    # a name removed from the package must leave __all__ with it
    assert [name for name in stvar.__all__ if not hasattr(stvar, name)] == []
    assert len(set(stvar.__all__)) == len(stvar.__all__)


def test_every_error_class_is_used():
    # each class of stvar.errors is a base of another one there, or some
    # other module names it: a class nothing raises is dead
    import inspect
    import re

    classes = [cls for _, cls in inspect.getmembers(stvar.errors, inspect.isclass)
               if cls.__module__ == stvar.errors.__name__]
    bases = {base for cls in classes for base in cls.__bases__}
    package = Path(stvar.__file__).parent
    others = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                       if path.name != "errors.py")
    unused = [cls.__name__ for cls in classes
              if cls not in bases and not re.search(rf"\b{cls.__name__}\b", others)]
    assert unused == []


def test_only_data_model_parses_dates():
    # data_model holds the one date parser: any other module that names
    # fromisoformat reads dates by a rule of its own
    package = Path(stvar.__file__).parent
    parsers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "data_model.py" and "fromisoformat" in path.read_text()]
    assert parsers == []


def test_no_constructor_converts_its_own_arrays():
    # an array a caller passes is converted and checked by stvar._doc.reals:
    # a container that converts a field itself takes it around that rule
    package = Path(stvar.__file__).parent
    converters = [path.name for path in sorted(package.glob("*.py"))
                  if "np.asarray(self." in path.read_text()]
    assert converters == []



def _doors(path: Path, barred: set[str]) -> list[str]:
    """What the module at `path` imports or names of the `barred` modules
    and names, or of anything inside them."""
    tree = ast.parse(path.read_text())
    doors = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            doors.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            doors.add(node.module)
        elif isinstance(node, ast.Name):
            doors.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            doors.add(f"{node.value.id}.{node.attr}")
    return sorted(name for name in doors
                  if any(name == bar or name.startswith(f"{bar}.") for bar in barred))


def test_only_lapack_reaches_scipy():
    # stvar._lapack is the one door to scipy: it alone imports scipy or
    # loads modules by importlib, and no module, _lapack included, reaches
    # scipy.spatial: _lapack.cdist is numpy
    package = Path(stvar.__file__).parent
    doors = {path.name: _doors(path, {"scipy.spatial"} if path.name == "_lapack.py"
                               else {"scipy", "importlib", "__import__"})
             for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in doors.items() if found} == {}

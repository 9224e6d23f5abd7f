"""The package's public names."""

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
    from pathlib import Path

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
    from pathlib import Path

    package = Path(stvar.__file__).parent
    parsers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "data_model.py" and "fromisoformat" in path.read_text()]
    assert parsers == []


def test_no_constructor_converts_its_own_arrays():
    # an array a caller passes is converted and checked by stvar._doc.reals:
    # a container that converts a field itself takes it around that rule
    from pathlib import Path

    package = Path(stvar.__file__).parent
    converters = [path.name for path in sorted(package.glob("*.py"))
                  if "np.asarray(self." in path.read_text()]
    assert converters == []

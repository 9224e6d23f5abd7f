"""The package's public names."""

import stvar


def test_every_public_name_resolves():
    # a name removed from the package must leave __all__ with it
    assert [name for name in stvar.__all__ if not hasattr(stvar, name)] == []
    assert len(set(stvar.__all__)) == len(stvar.__all__)

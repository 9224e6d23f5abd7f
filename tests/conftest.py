"""Hypothesis profiles.

``default`` keeps the suite deterministic and fast: derandomized, few
examples and no example database. ``deep`` runs many random examples;
select it with the hypothesis pytest plugin's flag::

    pytest --hypothesis-profile=deep tests/test_fail_closed.py

Hypothesis also caches the constants it finds in local source files; that
cache goes to pytest's temporary directory, so no run writes ``.hypothesis/``.
"""

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "default", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.register_profile("deep", database=None, deadline=None, max_examples=1500)


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_home(tmp_path_factory):
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))

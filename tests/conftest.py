"""Every test starts with no Murphy basis held from an earlier test, so a
test that expects a basis to be built (the tracer's, for one) does not
depend on which parameter set the test before it left in
``hecke.murphy_basis``."""

import pytest

from wenzl import hecke


@pytest.fixture(autouse=True)
def _no_held_murphy_basis():
    hecke.murphy_basis.cache_clear()

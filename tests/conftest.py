"""Every test starts with no parameter set held from an earlier test, so a
test that expects a parameter set or a Murphy basis to be built (the
tracer's, for one) does not depend on which parameter set the test before
it left behind ``ParamSet.from_u``; the basis hangs on the parameter set.
``murphy_builds`` records each Murphy basis a test builds."""

import pytest

from wenzl import hecke, params


@pytest.fixture(autouse=True)
def _no_held_parameter_set():
    params._param_set.cache_clear()


@pytest.fixture
def murphy_builds(monkeypatch):
    """The (u, n) of every Murphy basis built from here on, in order."""
    builds = []
    init = hecke.MurphyBasis.__init__

    def counted(self, H):
        builds.append((H.ps.u, H.n))
        init(self, H)

    monkeypatch.setattr(hecke.MurphyBasis, "__init__", counted)
    return builds

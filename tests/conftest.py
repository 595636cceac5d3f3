"""Every test starts cold: no parameter set held from an earlier test, and
none of the root-free tables that ``hecke`` and ``wcell`` hold per size,
shape and cell for the process.  So a test that expects a parameter
set, a Murphy basis or a shape's tableaux to be built (the tracer's, which
must see ``combinat.enumerate_updown`` entered, for one) does not depend on
what the test before it left behind; the basis hangs on the parameter set.
``murphy_builds`` records each Murphy basis a test builds, and
``drop_holds`` empties every hold again within a test."""

import pytest

from wenzl import cli, hecke


def _drop_holds():
    # the held parameter set and the root-free tables of hecke and wcell,
    # of the modules imported so far; combinat's lattice tables
    # (``cli.LATTICE``) lie below enumerate_updown and stay held
    for hold in cli.held(cli.HOLDS):
        hold.cache_clear()


@pytest.fixture(autouse=True)
def _no_held_parameter_set():
    _drop_holds()


@pytest.fixture
def drop_holds():
    """A function that empties every hold, as each test starts."""
    return _drop_holds


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

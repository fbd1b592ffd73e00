"""Fixtures shared by the test modules: a recorder of specfun's Taylor sums."""

import pytest

from exptwolevel import specfun


@pytest.fixture
def taylor_sums(monkeypatch):
    """Arguments of every Taylor sum of M, in call order."""
    calls = []
    taylor = specfun._kummer_taylor

    def counted(*args):
        calls.append(args)
        return taylor(*args)

    monkeypatch.setattr(specfun, "_kummer_taylor", counted)
    return calls

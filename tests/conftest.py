"""Fixtures shared by the test modules: recorders of specfun's Taylor sums."""

import pytest

from exptwolevel import specfun


def _recorded(monkeypatch, name):
    """Arguments of every call of specfun.<name>, in call order."""
    calls = []
    kernel = getattr(specfun, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(specfun, name, counted)
    return calls


@pytest.fixture
def taylor_sums(monkeypatch):
    """Arguments of every Taylor sum of M, in call order: summed in double,
    or again in decimal where the double sum fails its rounding bound."""
    return _recorded(monkeypatch, "_kummer_taylor")


@pytest.fixture
def decimal_sums(monkeypatch):
    """Arguments of every Taylor sum that falls back to decimal, in call order."""
    return _recorded(monkeypatch, "_kummer_taylor_decimal")

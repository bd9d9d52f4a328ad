"""Shared fixtures."""

import math

import numpy as np
import pytest


@pytest.fixture
def spectral_calls(monkeypatch):
    """Counts of the numpy.linalg.eigvalsh and matrix_rank calls made from
    the moment the fixture is requested, and under ``matrices`` the number of
    matrices those calls decomposed (a (k, n, n) stack counts k)."""
    counts = {"eigvalsh": 0, "matrix_rank": 0, "matrices": 0}
    for name in ("eigvalsh", "matrix_rank"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            counts["matrices"] += math.prod(np.shape(a)[:-2])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts

"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def spectral_calls(monkeypatch):
    """Counts of the numpy.linalg.eigvalsh and matrix_rank calls made from
    the moment the fixture is requested."""
    counts = {"eigvalsh": 0, "matrix_rank": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts

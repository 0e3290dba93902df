from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from coversketch import CoverageInstance
from coversketch import instance as instance_mod


def random_instance(seed, max_n=12, max_m=30):
    """Random instance where every element has degree >= 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    set_ids, elem_ids = [], []
    for v in range(m):
        deg = int(rng.integers(1, n + 1))
        for s in rng.choice(n, size=deg, replace=False):
            set_ids.append(int(s))
            elem_ids.append(v)
    return CoverageInstance.from_edges(n, m, set_ids, elem_ids)


def decimals(low, high):
    """Exact values with 1-3 decimals in ``[low, high)``, as Fractions."""
    return st.integers(1, 3).flatmap(lambda d: st.integers(
        low * 10**d, high * 10**d - 1).map(lambda i: Fraction(i, 10**d)))


@pytest.fixture
def transposes(monkeypatch):
    """(minor-id count, entry count) of every ``_transpose`` call from here
    on; only the instance module calls it."""
    calls = []

    def counted(indptr, minor, minor_count, _transpose=instance_mod._transpose):
        calls.append((minor_count, len(minor)))
        return _transpose(indptr, minor, minor_count)
    monkeypatch.setattr(instance_mod, "_transpose", counted)
    return calls

"""Fixtures shared by the test modules."""

import pytest
import scipy.sparse.linalg


@pytest.fixture
def orderings(monkeypatch):
    """SuperLU factorizations, counted by their column-ordering option."""
    counts = {}
    splu = scipy.sparse.linalg.splu

    def counting(A, permc_spec=None, **kwargs):
        counts[permc_spec] = counts.get(permc_spec, 0) + 1
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return counts


@pytest.fixture
def factor_fills(monkeypatch):
    """The fill (L plus U entries) of every SuperLU factorization, in order."""
    fills = []
    splu = scipy.sparse.linalg.splu

    def recording(A, **kwargs):
        lu = splu(A, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return fills

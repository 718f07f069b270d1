import os

import pytest

# The LMI oracle's eigh calls are on matrices of at most 56 x 56, where
# multithreaded BLAS costs more than it saves; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def gcds_taken(monkeypatch):
    """Records the polynomial a of each gcd(a, b) computed inside polynomials."""
    from midpredict import polynomials

    taken = []
    take = polynomials._gcd

    def recording(a, b):
        taken.append(list(a))
        return take(a, b)

    monkeypatch.setattr(polynomials, "_gcd", recording)
    return taken


@pytest.fixture
def squarefree_parts_taken(monkeypatch):
    """Records the polynomials squarefree_part is called on inside polynomials.

    rightmost_root takes one only when it refuses its companion seed, so an
    empty record means the root returned is the seed, bit for bit.
    """
    from midpredict import polynomials

    taken = []
    take = polynomials.squarefree_part

    def recording(p):
        taken.append(list(p))
        return take(p)

    monkeypatch.setattr(polynomials, "squarefree_part", recording)
    return taken

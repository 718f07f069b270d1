import os

import pytest

# The LMI oracle's eigh calls are on matrices of at most 56 x 56, where
# multithreaded BLAS costs more than it saves; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def chains_built(monkeypatch):
    """Records the polynomials a SturmChain is built for inside polynomials."""
    from midpredict import polynomials

    built = []

    class Recording(polynomials.SturmChain):
        def __init__(self, coeffs):
            built.append(list(coeffs))
            super().__init__(coeffs)

    monkeypatch.setattr(polynomials, "SturmChain", Recording)
    return built

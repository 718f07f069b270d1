"""Design and validation toolkit for high-gain sub-predictor chains on
input-delayed, uniformly observable nonlinear systems.

The pieces: an expression DSL and canonical-system model, gain synthesis
that assigns a dominant root of maximal multiplicity, a quasipolynomial
spectrum scanner, delay-axis stability partitions, LMI-certified gain
margins with cascade sizing, a fixed-step delay simulator, and evaluations
of competing sufficient conditions.
"""

import os

# The LMI oracle's eigh calls are on matrices of at most 56 x 56, where
# multithreaded BLAS costs more than it saves; set before numpy loads. A
# value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

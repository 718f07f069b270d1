import os

# The LMI oracle's eigh calls are on matrices of at most 56 x 56, where
# multithreaded BLAS costs more than it saves; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

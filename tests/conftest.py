"""Test-session set-up shared by every test module."""

import os

# Pin BLAS to one thread before numpy loads, as the CLI and the benchmark
# do: in-process runs then compute as the CLI runs they are compared with,
# and a threaded GEMM does not compete with the suite for the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

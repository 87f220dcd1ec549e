"""Test-session set-up shared by every test module."""

# Pin BLAS to one thread before numpy loads, as the CLI and the benchmark
# do: in-process runs then compute as the CLI runs they are compared with,
# and a threaded GEMM does not compete with the suite for the cores.
# Importing the CLI sets the thread variables and loads no numpy
# (test_cli checks both).
import denseil.cli  # noqa: F401

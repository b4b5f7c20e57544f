"""Pin BLAS to one thread for the test run, as the command line does.

The matrix products in these tests are small; with OpenBLAS's default
thread count a busy machine slows the suite several times over. Set before
any test module loads numpy; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

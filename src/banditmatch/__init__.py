"""Multi-action dialog policy learning from logged bandit feedback.

Subpackages: a small autodiff core (nncore), a synthetic dialog world
(dialogworld), corpus/feedback logging (datasets), the policy wrapper
(policy), feedback-enhanced thresholding (fet), loss terms (objectives),
training/evaluation loops (trainer), and the command-line front end (cli).
"""

import os

# One BLAS thread unless the caller sets these: the matrix products here are
# small, and a second thread mostly contends with other processes for a core.
# Set when any banditmatch module is first imported, before it loads numpy;
# OpenBLAS reads them when numpy first loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

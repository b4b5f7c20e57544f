"""Pin BLAS to one thread for the test run, as the command line does.

The matrix products in these tests are small; with OpenBLAS's default
thread count a busy machine slows the suite several times over. Set before
any test module loads numpy; a value already in the environment wins.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def row_checks(monkeypatch) -> list[str]:
    """The name of each row check (``datasets._corpus_fault`` or
    ``_log_fault``) run during the test, one entry per block of rows."""
    from banditmatch import datasets

    calls = []
    for name in ("_corpus_fault", "_log_fault"):
        real = getattr(datasets, name)
        monkeypatch.setattr(datasets, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    return calls

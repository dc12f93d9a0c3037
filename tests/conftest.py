"""Pin OpenBLAS to one thread before any test module imports numpy, as
importing wg_hp does, so tests see the rounding of the package's outputs;
and give every test share workers of its own."""

import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture(autouse=True)
def _fresh_share_workers():
    """Stop wg_hp.forking's share workers before and after every test, so
    that a test's workers are forked after its patches (of numpy or os, say)
    and none outlives the test."""
    from wg_hp import forking

    forking.shutdown()
    yield
    forking.shutdown()

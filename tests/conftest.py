"""Pin OpenBLAS to one thread before any test module imports numpy, as
importing wg_hp does, so tests see the rounding of the package's outputs."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

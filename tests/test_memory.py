"""What the sweep holds and allocates, measured by tracemalloc in a fresh
interpreter so that no other test's caches count."""

from cases import CRITERION_6_PAIRS
from test_package import _python

SET_UP = (
    "import os, tracemalloc\n"
    "import wg_hp\n"
    "import numpy as np\n"
    "from wg_hp import verify\n"
    "from wg_hp.problem import model_problem\n"
    "os.sched_getaffinity = lambda pid: {0}  # one share, in this process\n"
    f"problems = [model_problem(eps1, eps2) for eps1, eps2 in {CRITERION_6_PAIRS!r}]\n"
)


def test_a_sweep_to_p_40_leaves_at_most_5_mb_of_numpy_arrays():
    # the per-degree caches stay: basis and jump tables, no per-(N, p) index
    code = SET_UP + (
        "tracemalloc.start()\n"
        "verify.convergence_sweep(problems, range(1, 41))\n"
        "numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)\n"
        "snapshot = tracemalloc.take_snapshot().filter_traces([numpy_only])\n"
        "print(sum(stat.size for stat in snapshot.statistics('filename')))\n"
    )
    held = int(_python(code).stdout.split()[-1])
    assert held <= 5_000_000, f"{held / 1e6:.2f} MB held"


def test_one_degree_of_the_criterion_6_grid_at_p_20_peaks_below_0_6_mb():
    # warm: the caches of degrees 20 and 40 are filled by the first call
    code = SET_UP + (
        "for problem in problems:\n"
        "    problem.gamma_hat, problem.mu\n"
        "verify._degree_outcomes(problems, 20, 1.0, False)\n"
        "tracemalloc.start()\n"
        "verify._degree_outcomes(problems, 20, 1.0, False)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    peak = int(_python(code).stdout.split()[-1])
    assert peak <= 600_000, f"{peak / 1e6:.2f} MB peak"

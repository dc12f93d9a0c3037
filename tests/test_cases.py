"""The copies of the catalogue's data that the benchmark and the CI workflow
still hold, checked against tests/cases.py so that none drifts from it."""

import importlib.util
import re
import sys
from pathlib import Path

from cases import CRITERION_6_PAIRS, LAYER_CASES

ROOT = Path(__file__).resolve().parent.parent


def _pairs(grid):
    """The (eps1, eps2) pairs of an --eps-grid value such as 1e-8:1.0,1e-6:1e-2."""
    return [tuple(float(eps) for eps in pair.split(":")) for pair in grid.split(",")]


def test_benchmark_workloads_hold_the_catalogue_cases(monkeypatch):
    # perfbench/workloads.py imports nothing from wg_hp at module level; its
    # dataclasses look their module up in sys.modules while it loads
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.HIGHP_CASES == LAYER_CASES
    assert _pairs(workloads.SWEEP_GRID) == CRITERION_6_PAIRS


def test_ci_workflow_sweeps_the_criterion_6_pairs():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    grids = re.findall(r"^\s*grid=(\S+)", workflow, flags=re.MULTILINE)
    assert len(grids) == 2
    for grid in grids:
        assert _pairs(grid) == CRITERION_6_PAIRS

"""Smoke test of the benchmark; it gates on no time.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced, with ``--seconds 0``
(one pass of each kind), and must print every metric BENCHMARK.json
names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"# {name} = ") and line.split()[4] == unit for line in lines)
    assert any(line.startswith("# failed_frac = ") for line in lines)
    if workload == "highp":
        assert any(line.startswith("# p_to_tol = ") for line in lines)


def test_per_layer_metrics_name_traced_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from spans import TRACED

    traced = {f"{mod}.{entry if isinstance(entry, str) else entry[0]}"
              for mod, entries in TRACED.items() for entry in entries}
    for metric in SPEC["per_layer"]:
        layer = metric["name"].rsplit(".", 1)[0]
        assert layer == "trace" or layer in traced, metric["name"]


def test_missing_traced_function_fails(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import spans

    monkeypatch.setitem(spans.TRACED, "cli", ("main", "no_such_function"))
    with pytest.raises(spans.MissingFunctionError, match="no_such_function"):
        spans.Tracer()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()

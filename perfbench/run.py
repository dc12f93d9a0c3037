"""wg-hp benchmark: time the package end to end, or trace it per module.

    python3 perfbench/run.py --workload {sweep,highp,check} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a checkout.  Every measurement happens in a child
process that imports the checked-out ``src/wg_hp`` (``src/`` goes first on
its path; the package need not be installed), single-threaded, with
``OPENBLAS_NUM_THREADS=1``.  One caller drives the package in a closed
loop.

``--trace 0`` starts one process that runs warm passes for ``--seconds``
(``wall_p90_s`` is the 90th percentile of their times, ``peak_rss_mb`` its
peak resident set; their median is printed as ``wall_s``).  Between warm
passes it starts fresh interpreters that each time ``import wg_hp`` plus
one cold pass; ``setup_s`` is their median.  ``--trace 1`` starts one
process that traces a cold pass, then alternates untraced and traced warm
passes for ``--seconds``, and reports per-module metrics.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json; with ``--seconds 0`` a run
makes one pass of each kind.

Metric names and units come from BENCHMARK.json.  Human-readable lines
start with ``#``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every
sample, quartiles, the environment, failed operations) go to
``perfbench/_out/result-<workload>-s<seed>-t<trace>.json``, and the spans
of a traced run to ``perfbench/_out/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREADS = "1"
RUN_BUDGET_S = 170.0  # the whole invocation, every workload in it, ends within 180 s
COVERAGE_MIN = 0.95  # top-level spans must cover this share of a traced pass


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = THREADS
    return env


def _child(deadline: float, *args) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    # a session of its own, so that a timeout also stops the cold processes it started
    with subprocess.Popen(
        [sys.executable, str(CHILD), *map(str, args)], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {args[:2]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stats(values) -> dict:
    """Count, median, quartiles, 90th percentile and extremes."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2], p90=statistics.quantiles(values, n=10)[8])
    return out


def _environment(numpy_env: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to record
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), **numpy_env,
            "OPENBLAS_NUM_THREADS": THREADS, "commit": commit}


def measure(name: str, seed: int, seconds: float, deadline: float) -> dict:
    warm = _child(deadline, "warm", name, seed, OUT, seconds)
    setups = warm.pop("setups")
    wall = _stats(warm["times"])
    return {
        "metrics": {
            "wall_p90_s": wall.get("p90", wall["max"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": warm["peak_rss_mb"],
        },
        "wall_s": wall,
        "setup_s": _stats([s["setup_s"] for s in setups]),
        "import_s": _stats([s["import_s"] for s in setups]),
        "cold_pass_s": _stats([s["cold_pass_s"] for s in setups]),
        "correct": warm["reproducible"],
        "run": warm,
    }


def trace(name: str, seed: int, seconds: float, deadline: float) -> dict:
    run = _child(deadline, "trace", name, seed, OUT, seconds)
    metrics = {"trace.overhead_frac": run["overhead_frac"]}
    for layer, row in run["layers"].items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value
    ok = run["reproducible"] and run["counts_repeat"] and run["coverage_min"] >= COVERAGE_MIN
    return {"metrics": metrics, "correct": ok, "run": run}


def bench(args, spec: dict, deadline: float) -> dict:
    key = "per_layer" if args.trace else "end_to_end"
    fn = trace if args.trace else measure
    result = fn(args.workload, args.seed, args.seconds, deadline)
    run = result["run"]
    metrics = {}
    for m in spec[key]:
        # a traced function this workload never calls reports 0
        value = result["metrics"].get(m["name"], 0) if args.trace else result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    summary = {
        "correct": bool(result["correct"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": result.get("setup_s", {}).get("n", 0),
        "environment": _environment(run["env"]),
        "failed_frac": run["failed"] / run["attempted"],
        "failed_operations": run["failed_names"],
        "p_to_tol": run["p_to_tol"],
        **{k: v for k, v in result.items() if k not in ("metrics", "correct")},
        "summary": summary,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    _print_human(detail, path)
    return summary


def _print_human(detail: dict, path: Path):
    env = detail["environment"]
    run = detail["run"]
    print(f"# workload={detail['workload']} seed={detail['seed']} seconds={detail['seconds']:g} "
          f"trace={detail['trace']} setup_repeats={detail['setup_repeats']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in ("wall_s", "setup_s", "import_s", "cold_pass_s"):
        if name in detail:
            s = detail[name]
            print(f"# {name}: median {s['median']:.4g} s of {s['n']}; q1 {s.get('q1', s['min']):.4g} "
                  f"q3 {s.get('q3', s['max']):.4g} p90 {s.get('p90', s['max']):.4g}; "
                  f"min {s['min']:.4g} max {s['max']:.4g}")
    for name, m in detail["summary"]["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    failed = ", ".join(detail["failed_operations"][:10]) or "none"
    print(f"# failed_frac = {detail['failed_frac']:.6g} ratio ({run['failed']}/{run['attempted']} "
          f"operations; failed: {failed})")
    if detail["p_to_tol"] is not None:
        print(f"# p_to_tol = {detail['p_to_tol']} degree")
    if detail["trace"]:
        print(f"# trace: coverage_min={run['coverage_min']:.4f} counts_repeat={run['counts_repeat']} "
              f"traced_passes={run['traced_passes']} spans in {run['trace_file']}")
    print(f"# details in {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="warm passes run this long (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not (ROOT / "src" / "wg_hp" / "__init__.py").is_file():
            raise BenchError(f"no src/wg_hp under {ROOT}: run from a wg-hp checkout")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        OUT.mkdir(exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            args.workload = name
            summary = bench(args, spec, deadline)
            print(json.dumps(summary))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

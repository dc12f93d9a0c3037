"""One benchmark process; ``run.py`` starts it with ``src/`` first on the path.

    python3 perfbench/child.py cold  WORKLOAD SEED OUTDIR
    python3 perfbench/child.py warm  WORKLOAD SEED OUTDIR SECONDS
    python3 perfbench/child.py trace WORKLOAD SEED OUTDIR SECONDS

``cold`` times ``import wg_hp`` plus the first pass.  ``warm`` runs one
untimed warm-up pass, then, for SECONDS, timed warm passes interleaved
with ``cold`` processes that it starts itself, so that set-up and warm
passes see the same host speed.  ``trace`` runs a traced cold pass, then
alternates untraced and traced passes for SECONDS, and writes the spans
to a trace file in OUTDIR.  With SECONDS <= 0, each mode runs one pass
of each kind.  Each mode prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Outcome  # noqa: E402

BREAKDOWN_DEGREES = (4, 16, 32, 64)
SETUP_SHARE = 1 / 3  # share of a warm run's SECONDS spent in cold processes
COLD_TIMEOUT_S = 60.0


def _import_wg_hp():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wg_hp

    if Path(wg_hp.__file__).resolve().parent != src / "wg_hp":
        raise SystemExit(f"wg_hp imported from {wg_hp.__file__}, not from {src}")
    return wg_hp


class Tally:
    """Operations attempted and failed over the passes of a run, cold
    passes in other processes included; a pass whose output differs from
    the first pass's counts as wholly failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.first: Outcome | None = None
        self.reproducible = True

    def add(self, outcome: Outcome, count: bool = True):
        if self.first is None:
            self.first = outcome
        if outcome.fingerprint != self.first.fingerprint:
            self.reproducible = False
            outcome = Outcome(outcome.attempted, ["output differs from the first pass"]
                              * outcome.attempted, outcome.fingerprint, outcome.p_to_tol)
        if count:
            self.attempted += outcome.attempted
            self.failed.extend(outcome.failed)

    def report(self) -> dict:
        first = self.first
        return {
            "attempted": self.attempted,
            "failed": len(self.failed),
            "failed_names": sorted(set(self.failed)),
            "reproducible": self.reproducible,
            "fingerprint": first.fingerprint if first else None,
            "p_to_tol": first.p_to_tol if first else None,
        }


def _numpy_env() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _timed(workload, mark=lambda op: None):
    start = time.perf_counter()
    raw = workload.run(mark)
    return time.perf_counter() - start, raw


def cold(workload):
    start = time.perf_counter()
    _import_wg_hp()
    imported = time.perf_counter()
    wall, raw = _timed(workload)
    done = time.perf_counter()
    outcome = workload.check(raw)
    return {"setup_s": done - start, "import_s": imported - start, "cold_pass_s": wall,
            "outcome": vars(outcome)}


def _cold_process(workload, outdir) -> dict:
    """Run ``cold`` in a fresh interpreter, with this process's environment."""
    proc = subprocess.run(
        [sys.executable, __file__, "cold", workload.name, str(workload.seed), str(outdir)],
        capture_output=True, text=True, timeout=COLD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"cold process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm(workload, seconds, outdir):
    _import_wg_hp()
    tally = Tally()
    first_s, raw = _timed(workload)
    tally.add(workload.check(raw), count=False)
    times, setups = [], []
    cold_s = 0.0
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if times and setups and now - start >= seconds:
            break
        if not setups or (times and cold_s < SETUP_SHARE * (now - start)):
            setup = _cold_process(workload, outdir)
            cold_s += time.perf_counter() - now
            setups.append(setup)
            tally.add(Outcome(**setup.pop("outcome")))
        else:
            wall, raw = _timed(workload)
            times.append(wall)
            tally.add(workload.check(raw))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"times": times, "setups": setups, "first_pass_s": first_s,
            "peak_rss_mb": rss_kb / 1024.0, "env": _numpy_env(), **tally.report()}


def trace(workload, seconds, trace_file):
    _import_wg_hp()
    from spans import Tracer, by_degree, summarize

    tracer = Tracer()
    tally = Tally()

    def mark(op):
        tracer.op = op

    gauss = tracer.originals["polybasis.gauss_rule"]
    misses = gauss.cache_info().misses
    tracer.enable()
    cold_wall, raw = _timed(workload, mark)
    cold_spans, cold_counters = tracer.take()
    tally.add(workload.check(raw), count=False)
    cold = summarize(cold_spans, cold_counters, cold_wall)
    cold_gauss = cold["layers"].get("polybasis.gauss_rule", {})
    gauss_cold = {"misses": gauss.cache_info().misses - misses,
                  "cold_ms": cold_gauss.get("total_ms", 0.0)}

    plain, traced, passes = [], [], []
    kept_spans = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        tracer.disable()
        wall, raw = _timed(workload)
        plain.append(wall)
        tally.add(workload.check(raw))
        tracer.enable()
        wall, raw = _timed(workload, mark)
        traced.append(wall)
        spans, counters = tracer.take()
        tally.add(workload.check(raw))
        passes.append(summarize(spans, counters, wall))
        if kept_spans is None:
            kept_spans = spans
    tracer.disable()

    layers = _per_pass(passes)
    layers.setdefault("polybasis.gauss_rule", {}).update(gauss_cold)
    coverage = [p["coverage"] for p in passes]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name, "seed": workload.seed,
            "span_fields": ["name", "start", "end", "parent", "op", "p"],
            "cold_pass": {"wall_s": cold_wall, "spans": cold_spans, "layers": cold["layers"]},
            "warm_pass": {"wall_s": traced[0], "spans": kept_spans},
            "per_pass": layers,
            "by_degree": by_degree(kept_spans, BREAKDOWN_DEGREES),
            "untraced_s": plain, "traced_s": traced, "coverage": coverage,
        }, fh)
    return {"layers": layers, "overhead_frac": overhead, "coverage_min": min(coverage),
            "counts_repeat": all(_counts(p) == _counts(passes[0]) for p in passes),
            "trace_file": str(trace_file), "traced_passes": len(traced),
            "env": _numpy_env(), **tally.report()}


def _counts(summary) -> dict:
    return {name: {k: v for k, v in row.items() if not k.endswith("_ms")}
            for name, row in summary["layers"].items()}


def _per_pass(passes) -> dict:
    """Counts from the first traced pass (they repeat exactly); times as
    the median over the traced passes."""
    names = sorted({name for p in passes for name in p["layers"]})
    out = {}
    for name in names:
        rows = [p["layers"].get(name, {}) for p in passes]
        row = {k: v for k, v in rows[0].items() if not k.endswith("_ms")}
        for key in ("self_ms", "total_ms"):
            row[key] = statistics.median(r.get(key, 0.0) for r in rows)
        out[name] = row
    return out


def main(argv):
    mode, name, seed, outdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    scratch = outdir / f"{mode}-{os.getpid()}.csv"  # the sweep's CSV output
    workload = WORKLOADS[name](seed, str(scratch))
    try:
        if mode == "cold":
            result = cold(workload)
        elif mode == "warm":
            result = warm(workload, float(argv[4]), outdir)
        else:
            result = trace(workload, float(argv[4]), outdir / f"trace-{name}-s{seed}.json")
    finally:
        scratch.unlink(missing_ok=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

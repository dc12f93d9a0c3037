"""The benchmark's three workloads: ``sweep``, ``highp`` and ``check``.

A workload drives wg_hp only through its public functions.  ``run(mark)``
is the timed pass; ``check(raw)`` turns the pass's output into an
``Outcome`` outside the timed region.  ``mark(op)`` names the operation in
progress for the tracer; untraced passes ignore it.

Nothing here imports wg_hp at module level, so a child process can time
``import wg_hp`` itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# sweep: the criterion-6 grid through the CLI, p = 1..20


SWEEP_GRID = "1e-8:1.0,1e-8:1e-3,1e-6:1e-2,1e-6:1e-6,1e-4:1e-5"
SWEEP_P = range(1, 21)
SWEEP_HEADER = "regime,eps1,eps2,p,N,dof,err_rel_percent,err_abs,ref_degree,wall_ms"
SWEEP_FINAL_TOL = 1e-6  # err_rel at p = 20
SWEEP_RATIO_P = 6
SWEEP_RATIO_MAX = 100.0  # criterion-6 max/min err_rel over the grid at p = 6

# ---------------------------------------------------------------------------
# highp: time to a true relative energy error of 1e-8, raising p by 8

HIGHP_TOL = 1e-8
HIGHP_RUNGS = tuple(range(8, 65, 8))
HIGHP_MISS = 72  # counted in p_to_tol for a case that never meets the tolerance
_PI = "3.141592653589793"


def _outflow_layer(d: float) -> str:
    return f"x - (exp(-(1-x)/{d!r}) - exp(-1/{d!r}))/(1 - exp(-1/{d!r}))"


def _two_sided_layer(s: float) -> str:
    return f"1 - (exp(-x/{s!r}) + exp(-(1-x)/{s!r}))/(1 + exp(-1/{s!r}))"


_OSC = f"sin(20*{_PI}*x)"

# (name, eps1, eps2, exact solution) on the stock b = cos(x), r = 1 + x
HIGHP_CASES = (
    ("cd-layer", 1e-6, 1.0, _outflow_layer(1e-6)),
    ("rd-layer", 1e-8, 1e-4, _two_sided_layer(1e-4)),
    ("rcd-layer-a", 1e-8, 1e-3, _outflow_layer(1e-5)),
    ("rcd-layer-b", 1e-6, 1e-2, _outflow_layer(1e-4)),
    ("rcd-layer-c", 1e-5, 1e-2, _outflow_layer(1e-3)),
    ("rd-osc", 1e-8, 1e-4, _OSC),
    ("cd-osc", 1e-6, 1.0, _OSC),
)

# ---------------------------------------------------------------------------
# check: every property suite with doubled quadrature

_SUITE_LINE = re.compile(r"^\[(pass|FAIL)\] ([\w-]+): (\d+)/(\d+) checks")


@dataclass
class Outcome:
    """What one pass did: operations attempted, the names of those that
    failed, and a fingerprint of the output that must repeat on every pass
    of a run (and in every process, for the same seed)."""

    attempted: int
    failed: list[str] = field(default_factory=list)
    fingerprint: str = ""
    p_to_tol: int | None = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, scratch_csv: str):
        self.seed = seed
        self.csv = scratch_csv


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, scratch_csv: str):
        super().__init__(seed, scratch_csv)
        self.argv = ["convergence", "--eps-grid", SWEEP_GRID,
                     "--p-range", f"{SWEEP_P[0]}..{SWEEP_P[-1]}", "--out", scratch_csv]
        self.pairs = [tuple(float(v) for v in pair.split(":")) for pair in SWEEP_GRID.split(",")]

    def run(self, mark):
        from wg_hp.cli import main

        return main(self.argv)

    def check(self, code) -> Outcome:
        try:
            with open(self.csv, "rb") as fh:
                data = fh.read()
            os.remove(self.csv)  # so a pass that writes nothing cannot reuse this output
        except FileNotFoundError:
            data = b""
        keys = [(e1, e2, p) for e1, e2 in self.pairs for p in SWEEP_P]
        failed: set = set()
        lines = data.decode().split("\n")
        if code != 0 or not lines or lines[0] != SWEEP_HEADER:
            failed.update(keys)  # exit code or schema wrong: no row can be trusted
        err = {}
        for line in lines[1:]:
            if not line or line.startswith("#"):
                continue  # "# failed" lines leave their row missing
            cols = line.split(",")
            err[(float(cols[1]), float(cols[2]), int(cols[3]))] = float(cols[6]) / 100.0
        failed.update(k for k in keys if k not in err)
        for e1, e2 in self.pairs:
            prev = None
            for p in SWEEP_P:
                rel = err.get((e1, e2, p))
                if rel is None:
                    continue
                if prev is not None and not rel < prev:
                    failed.add((e1, e2, p))  # err_rel must fall strictly in p
                if p == SWEEP_P[-1] and not rel <= SWEEP_FINAL_TOL:
                    failed.add((e1, e2, p))
                prev = rel
        at_ratio = [err[(e1, e2, SWEEP_RATIO_P)] for e1, e2 in self.pairs
                    if (e1, e2, SWEEP_RATIO_P) in err]
        if at_ratio and not (min(at_ratio) > 0 and max(at_ratio) / min(at_ratio) <= SWEEP_RATIO_MAX):
            failed.update((e1, e2, SWEEP_RATIO_P) for e1, e2 in self.pairs)
        names = [f"eps1={e1:g} eps2={e2:g} p={p}" for e1, e2, p in sorted(failed)]
        return Outcome(len(keys), names, _digest(data.decode()))


class HighP(Workload):
    name = "highp"

    def run(self, mark):
        from wg_hp.problem import model_problem
        from wg_hp.verify import energy_error, exact_weakfunction, manufacture, solve_on_sbl_mesh

        reached = {}
        for name, eps1, eps2, u_text in HIGHP_CASES:
            mark(name)
            case = manufacture(u_text, model_problem(eps1, eps2))
            errors = []
            for p in HIGHP_RUNGS:
                _, mesh, u_p = solve_on_sbl_mesh(case.problem, p)
                u_star = exact_weakfunction(case, mesh, p)
                _, rel = energy_error(u_star, u_p, case.problem)
                errors.append(rel)
                if rel <= HIGHP_TOL:
                    break
            reached[name] = errors
        mark(None)
        return reached

    def check(self, reached) -> Outcome:
        failed = [name for name, errors in reached.items() if not errors[-1] <= HIGHP_TOL]
        p_to_tol = sum(
            HIGHP_MISS if name in failed else HIGHP_RUNGS[len(errors) - 1]
            for name, errors in reached.items()
        )
        text = repr(sorted(reached.items()))
        return Outcome(len(HIGHP_CASES), failed, _digest(text), p_to_tol)


class Check(Workload):
    name = "check"

    def __init__(self, seed: int, scratch_csv: str):
        super().__init__(seed, scratch_csv)
        self.argv = ["check", "--quad-double", "--seed", str(seed)]

    def run(self, mark):
        from wg_hp.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(self.argv)
        return code, buf.getvalue()

    def check(self, raw) -> Outcome:
        code, text = raw
        attempted = 0
        failed = []
        for line in text.splitlines():
            m = _SUITE_LINE.match(line)
            if m is None:
                failed.append(f"unparsed line {line!r}")
                continue
            n_ok, n = int(m.group(3)), int(m.group(4))
            attempted += n
            failed.extend(f"{m.group(2)} #{i}" for i in range(n - n_ok))
            if m.group(1) != "pass" and n_ok == n:
                failed.append(f"{m.group(2)} marked FAIL")
        if code != 0 and not failed:
            failed.append(f"exit code {code}")
        return Outcome(max(attempted, 1), failed, _digest(text))


WORKLOADS = {cls.name: cls for cls in (Sweep, HighP, Check)}

"""Span tracing of wg_hp's public functions, from outside the package.

``Tracer`` wraps each function named in ``TRACED`` and rebinds every
``wg_hp.*`` module attribute that holds that function object (including
entries of module-level tuples such as ``checks.SUITES``), so calls made
through ``from wg_hp.x import f`` are traced too.  ``enable()`` and
``disable()`` swap the bindings, so untraced passes run the original code.

A span is ``[name, start, end, parent, op, p]``: ``parent`` indexes the
enclosing span (-1 at top level), ``op`` is the operation in progress (a
highp case, a check suite, or the p of a convergence_study call) and ``p``
the degree, taken from a ``p`` argument or inherited from the parent.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, P = range(6)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _dof(args, kwargs, result):
    return {"dof": result.matrix.shape[0]}


def _points(args, kwargs, result):
    return {"points": getattr(_arg(args, kwargs, 1, "x"), "size", 1)}


def _fallback(args, kwargs, result):
    # the regime's mesh has 3 elements, or 2 for convection-diffusion
    regime = _arg(args, kwargs, 0, "regime")
    expected = 2 if regime.name == "CONVECTION_DIFFUSION" else 3
    return {"fallbacks": int(result.n_elements < expected)}


def _p_range_op(args, kwargs):
    return "p=" + ",".join(str(p) for p in _arg(args, kwargs, 1, "p_range"))


# module -> functions traced; a function may carry a counter hook or set
# the operation id for the spans beneath it
TRACED = {
    "coeffexpr": ("parse", "differentiate", ("evaluate", _points)),
    "problem": ("model_problem", "validate", "compute_mu", "classify_regime"),
    "slmesh": (("build_sbl_mesh", _fallback),),
    "polybasis": ("gauss_rule", "legendre_eval", "l2_project", "interpolate"),
    "weakspace": ("default_penalties", "weak_derivative", "weak_convection_derivative",
                  "stabilizer_S", "stabilizer_Sc", "jump_seminorm", "norm_p", "norm_broken"),
    "assembly": (("assemble", _dof), "solve", "bilinear_apply", "load_apply"),
    "verify": ("manufacture", "exact_weakfunction", "interpolant_weakfunction",
               "error_equation_terms", "reference_solution", "energy_error",
               "solve_on_sbl_mesh", ("convergence_study", None, _p_range_op)),
    "checks": ("run_check", "suite_definition_residuals", "suite_coercivity_solve",
               "suite_norm_equivalence", "suite_error_equation",
               "suite_polynomial_reproduction", "suite_quadrature_stability"),
    "cli": ("main",),
}


class MissingFunctionError(Exception):
    """A traced name no longer exists in wg_hp, so its layer would go
    unmeasured."""


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.op = None
        self._stack: list = []
        self.originals: dict = {}
        self._bindings: list = []  # (module, attr, original value, traced value)
        wrappers = {}  # id of an original (kept alive in self.originals) -> its wrapper
        for modname, entries in TRACED.items():
            module = importlib.import_module(f"wg_hp.{modname}")
            for entry in entries:
                spec = (entry,) if isinstance(entry, str) else entry
                fname, hook, op_of = (spec + (None, None))[:3]
                fn = getattr(module, fname, None)
                if not callable(fn):
                    raise MissingFunctionError(f"wg_hp.{modname}.{fname} not found")
                qual = f"{modname}.{fname}"
                if fname.startswith("suite_"):
                    op_of = functools.partial(lambda suite, args, kwargs: suite, fname[6:])
                self.originals[qual] = fn
                wrappers[id(fn)] = self._wrap(fn, qual, hook, op_of)
        self._rebind_all(wrappers)

    def _rebind_all(self, wrappers):
        for modname, module in list(sys.modules.items()):
            if modname != "wg_hp" and not modname.startswith("wg_hp."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    new = wrappers[id(value)]
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    new = tuple(wrappers.get(id(v), v) for v in value)
                else:
                    continue
                self._bindings.append((module, attr, value, new))

    def _wrap(self, fn, qual, hook, op_of):
        params = list(inspect.signature(fn).parameters)
        p_index = params.index("p") if "p" in params else None
        spans, stack, counters = self.spans, self._stack, self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            p = _arg(args, kwargs, p_index, "p") if p_index is not None else None
            if p is None and parent >= 0:
                p = spans[parent][P]
            saved_op = tracer.op
            if op_of is not None:
                tracer.op = op_of(args, kwargs)
            span = [qual, 0.0, 0.0, parent, tracer.op, p]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                tracer.op = saved_op
            if hook is not None:
                extra = counters.setdefault(qual, {})
                for key, value in hook(args, kwargs, result).items():
                    extra[key] = extra.get(key, 0) + value
            return result

        return traced

    def enable(self):
        for module, attr, _, new in self._bindings:
            setattr(module, attr, new)

    def disable(self):
        for module, attr, old, _ in self._bindings:
            setattr(module, attr, old)

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def _child_time(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return child


def summarize(spans, counters, wall: float) -> dict:
    """Per-name calls, self and total milliseconds, plus counters, for one
    pass; ``coverage`` is the share of ``wall`` the top-level spans cover."""
    child = _child_time(spans)
    out: dict = {}
    top = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        row = out.setdefault(s[NAME], {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += (dur - child[i]) * 1e3
        row["total_ms"] += dur * 1e3
        if s[PARENT] < 0:
            top += dur
    for name, extra in counters.items():
        out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}).update(extra)
    return {"layers": out, "coverage": top / wall if wall > 0 else 0.0}


def by_degree(spans, degrees) -> dict:
    """Per-call breakdown at the given degrees: calls and self time per
    traced name, over spans whose degree is one of ``degrees``."""
    child = _child_time(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        if s[P] not in degrees:
            continue
        row = out.setdefault(str(s[P]), {}).setdefault(s[NAME], {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += (s[END] - s[START] - child[i]) * 1e3
    for rows in out.values():
        for row in rows.values():
            row["ms_per_call"] = row["self_ms"] / row["calls"]
    return out

"""Command-line front end: solve, convergence study, and property checks.

Configuration comes from flags; an optional line-oriented key=value
config file only fills in their defaults, so flags override it.  Each
option is declared once, in ``_OPTIONS``.  CSV output uses a fixed schema
with 17-significant-digit floats and LF line endings; the wall-clock
column is written as 0 so identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 check-suite failure, 2 usage or config
error (including an output file that cannot be written), 3 expression
syntax error, 4 assumption or validation failure (including a layer too
thin for the mesh to resolve, a coefficient undefined at a point the
solver samples, a b or manufactured u that cannot be differentiated and
a solution that is not finite), 5 partial completion of a parameter
sweep.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from wg_hp.assembly import SingularSystemError
from wg_hp.coeffexpr import EvalDomainError, ExprSyntaxError, UnsupportedDerivativeError, parse
from wg_hp.problem import AssumptionError, ProblemSpec
from wg_hp.slmesh import MeshDegeneracyError
from wg_hp.verify import (
    BoundaryValueError,
    case_nquad,
    convergence_sweep,
    manufacture,
    solve_on_sbl_mesh,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SYNTAX = 3
EXIT_VALIDATION = 4
EXIT_PARTIAL = 5

CSV_HEADER = "regime,eps1,eps2,p,N,dof,err_rel_percent,err_abs,ref_degree,wall_ms"
SAMPLES_PER_ELEMENT = 200


class ConfigError(Exception):
    pass


def _g(v: float) -> str:
    return f"{v:.17g}"


def load_config(path: str, actions: dict[str, argparse.Action]) -> dict:
    """key=value per line; blank lines and # comments ignored.  Each key
    names an option in ``actions``, and its value is converted by that
    option's type (a flag's by ``_parse_bool``); returns the values by
    argparse dest.  An unknown key or a malformed value is an error, not
    silently unused."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                action = actions.get(key)
                if action is None:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                cast = _parse_bool if action.nargs == 0 else action.type or str
                try:
                    out[action.dest] = cast(value.strip())
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"{path}:{lineno}: config key {key}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


def parse_p_range(text: str) -> list[int]:
    """'a..b' inclusive, or a single integer; every degree must be >= 1."""
    lo_s, sep, hi_s = text.partition("..")
    lo = int(lo_s)
    hi = int(hi_s) if sep else lo
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad p range {text!r}")
    return list(range(lo, hi + 1))


def parse_eps_grid(text: str) -> list[tuple[float, float]]:
    """Comma-separated 'eps1:eps2' pairs."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        e1_s, sep, e2_s = chunk.partition(":")
        if not sep:
            raise ConfigError(f"bad eps pair {chunk!r}, expected eps1:eps2")
        pairs.append((float(e1_s), float(e2_s)))
    if not pairs:
        raise ConfigError("empty eps grid")
    return pairs


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(text: str) -> bool:
    """Config-file boolean: true/yes/on/1 or false/no/off/0, any case."""
    word = text.strip().lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ConfigError(f"expected one of {', '.join(_TRUE + _FALSE)}, got {text!r}")


def non_negative_int(text: str) -> int:
    """An integer >= 0, such as check's --seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """A finite number >= 0, such as check's --sigma."""
    if not 0 <= float(text) < np.inf:
        raise ValueError(f"expected a finite non-negative number, got {text!r}")
    return float(text)


def positive_float(text: str) -> float:
    """A finite number > 0, such as --kappa."""
    if not 0 < float(text) < np.inf:
        raise ValueError(f"expected a finite positive number, got {text!r}")
    return float(text)


_PROBLEM = ("solve", "convergence")
# every option once: its add_argument keywords and the subcommands that read it
_OPTIONS = (
    ("eps1", dict(type=float, default=1e-5), _PROBLEM),
    ("eps2", dict(type=float, default=1e-2), _PROBLEM),
    ("p", dict(type=int, default=4), _PROBLEM),
    ("kappa", dict(type=positive_float, default=1.0), _PROBLEM),
    ("b", dict(default="cos(x)"), _PROBLEM),
    ("r", dict(default="1+x"), _PROBLEM),
    ("f", dict(default="exp(x)"), _PROBLEM),
    ("manufactured-u", {}, _PROBLEM),
    ("out", {}, _PROBLEM),
    ("svg", {}, _PROBLEM),
    ("p-range", {}, ("convergence",)),
    ("eps-grid", {}, ("convergence",)),
    ("quad-double", dict(action="store_true"), ("solve", "convergence", "check")),
    ("seed", dict(type=non_negative_int, default=0, help="accepted; has no effect"), ("check",)),
    ("sigma", dict(type=non_negative_float, help="constant penalty override"), ("check",)),
)


def _build_parser():
    """(parser, subcommand parsers by name, option actions by config key)."""
    top = argparse.ArgumentParser(
        prog="wg-hp",
        description="hp weak Galerkin solver for the two-parameter "
        "singularly perturbed problem -eps1*u'' + eps2*b*u' + r*u = f on (0,1)",
    )
    top.add_argument("--config", help="key=value config file; flags override it")
    sub = top.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name) for name in ("solve", "convergence", "check")}
    for sp in subs.values():
        # SUPPRESS: without the flag here, keep a top-level --config value
        sp.add_argument(
            "--config", default=argparse.SUPPRESS,
            help="key=value config file; flags override it",
        )
    actions = {}
    for key, kwargs, names in _OPTIONS:
        for name in names:
            actions[key] = subs[name].add_argument(f"--{key}", **kwargs)
    return top, subs, actions


def _problems(args, eps_pairs) -> list:
    """(case, spec) for each eps pair; case is the manufactured case, or
    None without --manufactured-u.  The pairs share one parse of each
    expression and one b', so a stack sees the same objects."""
    b, r, f, u = parse(args.b), parse(args.r), parse(args.f), args.manufactured_u
    b_prime, out = None, []
    for eps1, eps2 in eps_pairs:
        spec = ProblemSpec(eps1, eps2, b, r, f, b_prime)
        b_prime = spec.b_prime
        if u is None:
            out.append((None, spec))
        else:
            # a manufactured f depends on eps, so it is built per pair
            case = manufacture(u, spec)
            u = case.u_exact
            out.append((case, case.problem))
    return out


def _write(path: str, text: str):
    """Write text to the file at path; an OSError from opening or writing
    it is a ConfigError that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_outputs(args):
    """Raise, before any solving, the ConfigError that writing --out or
    --svg would: each path must be a writable file or a new name in a
    writable directory.  Nothing is created or truncated."""
    for path in (args.out, args.svg):
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(directory):
            code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _write_out(args, text: str):
    """Write text to --out if given, else to stdout."""
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def run_solve(args) -> int:
    p = args.p
    nquad = case_nquad(p, args.quad_double)
    ((case, prob),) = _problems(args, [(args.eps1, args.eps2)])
    _check_outputs(args)
    regime, mesh, u_p = solve_on_sbl_mesh(prob, p, args.kappa, nquad=nquad)

    lines = ["kind,x,value"]
    segments = []
    for j in range(mesh.n_elements):
        a, b = mesh.element(j)
        xs = np.linspace(a, b, SAMPLES_PER_ELEMENT)
        ys = u_p.element_poly(j)(xs)
        segments.append((xs, ys))
        lines.extend(f"interior,{_g(x)},{_g(y)}" for x, y in zip(xs, ys))
    nodes = list(zip(mesh.nodes, u_p.vb))
    lines.extend(f"node,{_g(x)},{_g(v)}" for x, v in nodes)
    _write_out(args, "\n".join(lines) + "\n")
    if args.svg:
        from wg_hp import svgplot

        title = f"regime {regime.value}, eps1={args.eps1:g}, eps2={args.eps2:g}, p={p}"
        _write(args.svg, svgplot.solution_plot(segments, nodes, title))
    if case is not None:
        from wg_hp.verify import energy_error, exact_weakfunction

        u_star = exact_weakfunction(case, mesh, p, nquad=nquad)
        _, rel = energy_error(u_star, u_p, prob)
        print(f"# exact relative energy error: {rel:.6e}", file=sys.stderr)
    return EXIT_OK


def run_convergence(args) -> int:
    if args.eps_grid is not None:
        eps_grid = parse_eps_grid(args.eps_grid)
    else:
        eps_grid = [(args.eps1, args.eps2)]
    p_range = parse_p_range(args.p_range if args.p_range is not None else str(args.p))

    problems = [spec for _, spec in _problems(args, eps_grid)]
    _check_outputs(args)
    records, failures = convergence_sweep(
        problems, p_range, kappa=args.kappa, quad_double=args.quad_double
    )
    records.sort(key=lambda rec: (rec.eps1, rec.eps2, rec.p))
    failures.sort(key=lambda rec: (rec.eps1, rec.eps2, rec.p))

    lines = [CSV_HEADER]
    for rec in records:
        # wall_ms written as 0: byte-identical reruns outrank timing data
        lines.append(
            f"{rec.regime},{_g(rec.eps1)},{_g(rec.eps2)},{rec.p},{rec.n_elements},"
            f"{rec.dof},{_g(rec.err_rel * 100.0)},{_g(rec.err_abs)},{rec.ref_degree},0"
        )
    for fail in failures:
        lines.append(
            f"# failed eps1={_g(fail.eps1)} eps2={_g(fail.eps2)} p={fail.p}: {fail.message}"
        )
    _write_out(args, "\n".join(lines) + "\n")

    if args.svg:
        curves = []
        for eps1, eps2 in eps_grid:
            pts = [(r.p, r.err_rel * 100.0) for r in records
                   if r.eps1 == eps1 and r.eps2 == eps2 and r.err_rel > 0]
            if pts:
                label = f"eps1={eps1:g} eps2={eps2:g}"
                curves.append((label, [q for q, _ in pts], [e for _, e in pts]))
        from wg_hp import svgplot

        title = "relative energy error vs degree"
        _write(args.svg, svgplot.semilog_plot(curves, title, "p", "error (%)"))
    return EXIT_PARTIAL if failures else EXIT_OK


def run_checks(args) -> int:
    from wg_hp.checks import run_check

    results = run_check(quad_double=args.quad_double, sigma_override=args.sigma)
    for res in results:
        print(res.line())
    return EXIT_OK if all(res.passed for res in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser, subs, actions = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file only fills in defaults: parse again so flags override it
            subs[args.command].set_defaults(**load_config(args.config, actions))
            args = parser.parse_args(argv)
        if args.command == "solve":
            return run_solve(args)
        if args.command == "convergence":
            return run_convergence(args)
        return run_checks(args)
    except ExprSyntaxError as exc:
        print(f"wg-hp: expression error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (AssumptionError, BoundaryValueError, EvalDomainError, MeshDegeneracyError,
            SingularSystemError, UnsupportedDerivativeError) as exc:
        print(f"wg-hp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, ValueError) as exc:
        print(f"wg-hp: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: solve, convergence study, and property checks.

Configuration comes from flags plus an optional line-oriented key=value
config file (flags override the file).  CSV output uses a fixed schema
with 17-significant-digit floats and LF line endings; the wall-clock
column is written as 0 so identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 check-suite failure, 2 usage or config
error, 3 expression syntax error, 4 assumption or validation failure,
5 partial completion of a parameter sweep.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from wg_hp import svgplot
from wg_hp.assembly import SingularSystemError
from wg_hp.checks import run_check
from wg_hp.coeffexpr import ExprSyntaxError, parse
from wg_hp.polybasis import quad_order
from wg_hp.problem import AssumptionError, ProblemSpec
from wg_hp.verify import BoundaryValueError, convergence_study, manufacture, solve_on_sbl_mesh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SYNTAX = 3
EXIT_VALIDATION = 4
EXIT_PARTIAL = 5

CSV_HEADER = "regime,eps1,eps2,p,N,dof,err_rel_percent,err_abs,ref_degree,wall_ms"
SAMPLES_PER_ELEMENT = 200

DEFAULT_B = "cos(x)"
DEFAULT_R = "1+x"
DEFAULT_F = "exp(x)"


class ConfigError(Exception):
    pass


def _g(v: float) -> str:
    return f"{v:.17g}"


def load_config(path: str, keys: set[str]) -> dict:
    """key=value per line; blank lines and # comments ignored.  A key
    outside ``keys`` is an error, not silently unused."""
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
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = value.strip()
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


def _resolve(args, config: dict, name: str, cast, default):
    """Flag value if given, else config-file value, else the default."""
    cli_val = getattr(args, name.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    if name in config:
        try:
            return cast(config[name])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"config key {name}: {exc}") from exc
    return default


def _build_parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and every option name some subcommand accepts, spelled
    as a config key."""
    top = argparse.ArgumentParser(
        prog="wg-hp",
        description="hp weak Galerkin solver for the two-parameter "
        "singularly perturbed problem -eps1*u'' + eps2*b*u' + r*u = f on (0,1)",
    )
    top.add_argument("--config", help="key=value config file; flags override it")
    sub = top.add_subparsers(dest="command", required=True)

    common = dict(type=str)
    for name in ("solve", "convergence", "check"):
        sp = sub.add_parser(name)
        # SUPPRESS: without the flag here, keep a top-level --config value
        sp.add_argument(
            "--config", default=argparse.SUPPRESS,
            help="key=value config file; flags override it",
        )
        sp.add_argument("--seed", type=int)
        sp.add_argument("--quad-double", action="store_true", default=None)
        if name in ("solve", "convergence"):
            sp.add_argument("--eps1", type=float)
            sp.add_argument("--eps2", type=float)
            sp.add_argument("--kappa", type=float)
            sp.add_argument("--b", **common)
            sp.add_argument("--r", **common)
            sp.add_argument("--f", **common)
            sp.add_argument("--manufactured-u", **common)
            sp.add_argument("--out", **common)
            sp.add_argument("--svg", **common)
        if name == "solve":
            sp.add_argument("--p", type=int)
        if name == "convergence":
            sp.add_argument("--p", type=int)
            sp.add_argument("--p-range", **common)
            sp.add_argument("--eps-grid", **common)
        if name == "check":
            sp.add_argument("--sigma", type=float, help="constant penalty override")
    dests = {dest for sp in sub.choices.values() for dest in vars(sp.parse_args([]))}
    keys = {dest.replace("_", "-") for dest in dests}
    return top, keys


def _problem(args, config, eps1, eps2):
    """(case, spec) for one eps pair; case is the manufactured case, or None
    without --manufactured-u."""
    b = _resolve(args, config, "b", str, DEFAULT_B)
    r = _resolve(args, config, "r", str, DEFAULT_R)
    f = _resolve(args, config, "f", str, DEFAULT_F)
    spec = ProblemSpec(eps1, eps2, parse(b), parse(r), parse(f))
    u_text = _resolve(args, config, "manufactured-u", str, None)
    if u_text is None:
        return None, spec
    case = manufacture(u_text, spec)
    return case, case.problem


def _write_out(args, config, text: str):
    """Write text to --out if given, else to stdout."""
    out = _resolve(args, config, "out", str, None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_solve(args, config) -> int:
    eps1 = _resolve(args, config, "eps1", float, 1e-5)
    eps2 = _resolve(args, config, "eps2", float, 1e-2)
    p = _resolve(args, config, "p", int, 4)
    kappa = _resolve(args, config, "kappa", float, 1.0)
    quad_double = _resolve(args, config, "quad-double", _parse_bool, False)
    nquad = 2 * quad_order(p) if quad_double else None
    case, prob = _problem(args, config, eps1, eps2)
    regime, mesh, u_p = solve_on_sbl_mesh(prob, p, kappa, nquad=nquad)

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
    _write_out(args, config, "\n".join(lines) + "\n")
    svg_path = _resolve(args, config, "svg", str, None)
    if svg_path:
        title = f"regime {regime.value}, eps1={eps1:g}, eps2={eps2:g}, p={p}"
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svgplot.solution_plot(segments, nodes, title))
    if case is not None:
        from wg_hp.verify import energy_error, exact_weakfunction

        u_star = exact_weakfunction(case, mesh, p, nquad=nquad)
        _, rel = energy_error(u_star, u_p, prob)
        print(f"# exact relative energy error: {rel:.6e}", file=sys.stderr)
    return EXIT_OK


def run_convergence(args, config) -> int:
    eps_text = _resolve(args, config, "eps-grid", str, None)
    if eps_text is not None:
        eps_grid = parse_eps_grid(eps_text)
    else:
        eps1 = _resolve(args, config, "eps1", float, 1e-5)
        eps2 = _resolve(args, config, "eps2", float, 1e-2)
        eps_grid = [(eps1, eps2)]
    p_text = _resolve(args, config, "p-range", str, None)
    if p_text is None:
        p_text = str(_resolve(args, config, "p", int, 4))
    p_range = parse_p_range(p_text)
    kappa = _resolve(args, config, "kappa", float, 1.0)
    quad_double = _resolve(args, config, "quad-double", _parse_bool, False)

    records, failures = [], []
    for eps1, eps2 in eps_grid:
        # the problem is rebuilt per pair: a manufactured f depends on eps
        _, prob = _problem(args, config, eps1, eps2)
        recs, fails = convergence_study(prob, p_range, kappa=kappa, quad_double=quad_double)
        records.extend(recs)
        failures.extend(fails)
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
    _write_out(args, config, "\n".join(lines) + "\n")

    svg_path = _resolve(args, config, "svg", str, None)
    if svg_path:
        curves = []
        for eps1, eps2 in eps_grid:
            pts = [(r.p, r.err_rel * 100.0) for r in records
                   if r.eps1 == eps1 and r.eps2 == eps2 and r.err_rel > 0]
            if pts:
                label = f"eps1={eps1:g} eps2={eps2:g}"
                curves.append((label, [q for q, _ in pts], [e for _, e in pts]))
        svg = svgplot.semilog_plot(
            curves, "relative energy error vs degree", "p", "error (%)"
        )
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    return EXIT_PARTIAL if failures else EXIT_OK


def run_checks(args, config) -> int:
    seed = _resolve(args, config, "seed", int, 0)
    quad_double = _resolve(args, config, "quad-double", _parse_bool, False)
    sigma = _resolve(args, config, "sigma", float, None)
    results = run_check(seed=seed, quad_double=quad_double, sigma_override=sigma)
    for res in results:
        print(res.line())
    return EXIT_OK if all(res.passed for res in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser, keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, keys) if args.config else {}
        if args.command == "solve":
            return run_solve(args, config)
        if args.command == "convergence":
            return run_convergence(args, config)
        return run_checks(args, config)
    except ExprSyntaxError as exc:
        print(f"wg-hp: expression error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (AssumptionError, BoundaryValueError, SingularSystemError) as exc:
        print(f"wg-hp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, ValueError) as exc:
        print(f"wg-hp: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: CSV schema, determinism, exit codes, SVG output."""

from pathlib import Path

import numpy as np
import pytest

from wg_hp import cli
from wg_hp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_SYNTAX,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ConfigError,
    main,
    parse_eps_grid,
    parse_p_range,
)

from cases import CRITERION_6_PAIRS

CSV_HEADER = "regime,eps1,eps2,p,N,dof,err_rel_percent,err_abs,ref_degree,wall_ms"


def test_parse_p_range():
    assert parse_p_range("2..5") == [2, 3, 4, 5]
    assert parse_p_range("7") == [7]
    for bad in ("5..2", "0..2", "0", "-3"):
        with pytest.raises(ConfigError):
            parse_p_range(bad)


def test_parse_eps_grid():
    assert parse_eps_grid("1e-5:1e-2,1e-8:1e-4") == [(1e-5, 1e-2), (1e-8, 1e-4)]
    with pytest.raises(Exception):
        parse_eps_grid("1e-5")


def test_solve_writes_samples_and_nodes(tmp_path):
    out = tmp_path / "sol.csv"
    code = main([
        "solve", "--eps1", "1e-5", "--eps2", "1e-2", "--p", "4", "--kappa", "1",
        "--b", "cos(x)", "--r", "1+x", "--f", "exp(x)", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,x,value"
    interior = [l for l in lines if l.startswith("interior,")]
    nodes = [l for l in lines if l.startswith("node,")]
    assert len(interior) == 200 * 3  # 200 samples per element, 3 elements
    assert len(nodes) == 4
    # boundary node values are exactly zero
    first = nodes[0].split(",")
    last = nodes[-1].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert float(last[1]) == 1.0 and float(last[2]) == 0.0


def test_solve_zero_load(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["solve", "--f", "0", "--p", "2", "--out", str(out)]) == EXIT_OK
    vals = [float(l.split(",")[2]) for l in out.read_text().splitlines()[1:]]
    assert max(abs(v) for v in vals) <= 1e-12


def test_solve_svg_deterministic(tmp_path):
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for svg in (svg1, svg2):
        code = main(["solve", "--p", "3", "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        assert code == EXIT_OK
    text = svg1.read_text()
    assert text.startswith("<svg")
    assert text == svg2.read_text()


def test_syntax_error_exit_code(capsys):
    assert main(["solve", "--f", "exp("]) == EXIT_SYNTAX
    assert "offset" in capsys.readouterr().err


def test_validation_error_exit_code(capsys):
    assert main(["solve", "--b", "-1"]) == EXIT_VALIDATION
    assert "assumption" in capsys.readouterr().err


def test_layer_too_thin_to_resolve_exit_code(capsys):
    # convection-diffusion layer width p*eps1 = 8e-13, below 1e-12
    assert main(["solve", "--eps1", "1e-13", "--eps2", "1.0", "--p", "8"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "wg-hp: convection-diffusion mesh: layer element width 8e-13 is below 1e-12, "
        "too thin to resolve the layer\n"
    )


@pytest.mark.filterwarnings("error")
def test_solve_non_finite_solution_exit_code(capsys):
    # f = exp(1000*x) is inf beyond x = 0.7098, which would make the
    # solution NaN; validation names f first, with no numpy warning
    assert main(["solve", "--f", "exp(1000*x)", "--p", "4"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "wg-hp: coefficient f(x) is not finite at x = 0.710938 (value inf)\n"


@pytest.mark.filterwarnings("error")
def test_convergence_non_finite_solutions_are_failed_rows(tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--f", "exp(1000*x)", "--p-range", "2..3", "--out", str(out)]
    assert main(argv) == EXIT_PARTIAL
    header, *rows = out.read_text().splitlines()
    assert header == CSV_HEADER
    assert rows == [
        f"# failed eps1=1.0000000000000001e-05 eps2=0.01 p={p}: "
        "coefficient f(x) is not finite at x = 0.710938 (value inf)"
        for p in (2, 3)
    ]


def _nan_solve(monkeypatch):
    # data that pass validation, with a linear solve that returns NaN, reach
    # the solve's own finiteness check
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))


def test_solve_non_finite_solve_result_exit_code(monkeypatch, capsys):
    _nan_solve(monkeypatch)
    assert main(["solve", "--p", "4"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "wg-hp: the solution is not finite; the data may overflow\n"


def test_convergence_non_finite_solve_results_are_failed_rows(monkeypatch, tmp_path):
    _nan_solve(monkeypatch)
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--p-range", "2..3", "--out", str(out)]
    assert main(argv) == EXIT_PARTIAL
    header, *rows = out.read_text().splitlines()
    assert header == CSV_HEADER
    assert rows == [
        f"# failed eps1=1.0000000000000001e-05 eps2=0.01 p={p}: "
        "the solution is not finite; the data may overflow"
        for p in (2, 3)
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", ["x*(1-x)*sqrt(x)", "x^1.5*(1-x)"])
def test_solve_accepts_an_f_singular_only_at_an_end_point(u, tmp_path, capsys):
    # u'' ~ x^-1/2 makes f undefined at x = 0, which no Gauss point reaches
    out = tmp_path / "sol.csv"
    assert main(["solve", "--manufactured-u", u, "--p", "4", "--out", str(out)]) == EXIT_OK
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("# exact relative energy error: ")


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_manufactured_u_undefined_at_an_end_point_is_a_validation_error(command, capsys):
    # log(x) is undefined at x = 0, where u must vanish
    argv = [command, "--manufactured-u", "x*(1-x)*log(x)", "--p", "4"]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "wg-hp: manufactured solution u cannot be evaluated at x=0: "
        "log of non-positive value in subexpression log(x)\n"
    )


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("option, expr, name", [
    ("--b", "abs(x)+1", "coefficient b(x)"),
    ("--manufactured-u", "x*(1-x)*abs(x-0.5)", "manufactured solution u"),
], ids=["b", "u"])
def test_an_expression_that_cannot_be_differentiated_is_a_validation_error(
    command, option, expr, name, capsys
):
    assert main([command, option, expr, "--p", "4"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"wg-hp: {name} cannot be differentiated: abs is not differentiable\n"


def test_the_eps_pairs_share_one_parse_of_each_expression():
    parser, _, _ = cli._build_parser()
    pairs = [(1e-6, 1e-2), (1e-4, 1e-2)]
    (_, one), (_, two) = cli._problems(parser.parse_args(["convergence"]), pairs)
    assert all(getattr(one, k) is getattr(two, k) for k in ("b", "r", "f", "b_prime"))
    args = parser.parse_args(["convergence", "--manufactured-u", "x*(1-x)"])
    (case1, one), (case2, two) = cli._problems(args, pairs)
    assert case1.u_exact is case2.u_exact
    assert all(getattr(one, k) is getattr(two, k) for k in ("b", "r", "b_prime"))
    assert one.f != two.f  # a manufactured f depends on eps


@pytest.mark.parametrize("option, expr, message", [
    # undefined at a Gauss point of the last element, past the last
    # interior validation sample
    ("--f", "sqrt(0.999-x)", "sqrt of negative value in subexpression sqrt((0.999-x))"),
    # undefined at a point of compute_mu's grid, not of validation's
    ("--r", "1+0/(x-0.00048828125)",
     "division by zero in subexpression (0.0/(x-0.00048828125))"),
], ids=["f", "r"])
def test_solve_rejects_a_coefficient_undefined_past_validation(option, expr, message, capsys):
    assert main(["solve", option, expr, "--p", "4"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"wg-hp: {message}\n"


@pytest.mark.filterwarnings("error")
def test_solve_rejects_an_overflowing_coefficient_by_name(capsys):
    # r = exp(800*x) is inf from x = 0.888; validation names r, with no
    # numpy warning
    assert main(["solve", "--r", "exp(800*x)", "--p", "4"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "wg-hp: coefficient r(x) is not finite at x = 0.890625 (value inf)\n"


@pytest.mark.filterwarnings("error")
def test_convergence_fails_every_p_of_an_overflowing_coefficient_by_name(tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--r", "exp(800*x)", "--p-range", "2..3", "--out", str(out)]
    assert main(argv) == EXIT_PARTIAL
    header, *rows = out.read_text().splitlines()
    assert header == CSV_HEADER
    assert rows == [
        f"# failed eps1=1.0000000000000001e-05 eps2=0.01 p={p}: "
        "coefficient r(x) is not finite at x = 0.890625 (value inf)"
        for p in (2, 3)
    ]


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_kappa_is_usage_error(tmp_path, capsys, command, value):
    # as a flag and as a config line, before anything is solved
    with pytest.raises(SystemExit) as exc:
        main([command, f"--kappa={value}", "--p", "2"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "--kappa" in err and value in err and out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kappa={value}\n")
    assert main([command, "--config", str(cfg), "--p", "2"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert f"{cfg}:1:" in err and "kappa" in err and value in err and out == ""


def test_usage_error_exit_code(capsys):
    assert main(["convergence", "--eps-grid", "1e-5", "--out", "/dev/null"]) == EXIT_USAGE
    # an eps pair out of range is a usage error wherever it sits in the grid
    for grid in ("2:1e-2,1e-5:1e-2", "1e-5:1e-2,2:1e-2"):
        assert main(["convergence", "--eps-grid", grid, "--out", "/dev/null"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "eps1 must lie in (0,1]" in err
        assert "got 2.0" in err  # the message names the bad value
    # a non-positive degree is a usage error, given alone as well as in a range
    for args in (["--p-range", "0"], ["--p-range=-3"], ["--p", "0"]):
        assert main(["convergence", *args, "--out", "/dev/null"]) == EXIT_USAGE
        assert "bad p range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--p", "2"], ["convergence", "--p-range", "1..2"]])
@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    # one stderr line and exit code 2, not a traceback and the check-failure code,
    # before any solve, and with no output file created or truncated
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the output paths")

    monkeypatch.setattr(cli, "convergence_sweep", no_solve)
    monkeypatch.setattr(cli, "solve_on_sbl_mesh", no_solve)
    path = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(command + [flag, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"wg-hp: cannot write {path}: No such file or directory\n"
    assert main(command + [flag, str(tmp_path)]) == EXIT_USAGE  # a directory
    assert capsys.readouterr().err == f"wg-hp: cannot write {tmp_path}: Is a directory\n"
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    other = "--svg" if flag == "--out" else "--out"
    assert main(command + [other, str(kept), flag, str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == err
    assert kept.read_text() == "earlier output\n"
    assert main(command + [flag, str(kept / "x.csv")]) == EXIT_USAGE  # under a file
    assert capsys.readouterr().err.endswith(": Not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]


def test_convergence_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    argv = ["convergence", "--eps-grid", "1e-5:1e-2,1e-4:1e-4", "--p-range", "1..3"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    text = out1.read_text()
    assert text == out2.read_text()  # byte-identical rerun
    # rows are sorted by (eps1, eps2, p), whatever the order of the grid
    out3 = tmp_path / "c3.csv"
    argv_reversed = ["convergence", "--eps-grid", "1e-4:1e-4,1e-5:1e-2", "--p-range", "1..3"]
    assert main(argv_reversed + ["--out", str(out3)]) == EXIT_OK
    assert out3.read_text() == text
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 6  # 2 eps pairs x 3 degrees
    for row in rows:
        assert len(row) == 10
        assert row[9] == "0"  # wall_ms pinned for determinism
        assert int(row[8]) == 2 * int(row[3])
    keys = [(float(row[1]), float(row[2]), int(row[3])) for row in rows]
    assert keys == sorted(keys)


def test_criterion_6_sweep_matches_the_pinned_csv(tmp_path):
    # the criterion-6 sweep at p = 1..20, byte for byte as committed
    out = tmp_path / "sweep.csv"
    grid = ",".join(f"{eps1!r}:{eps2!r}" for eps1, eps2 in CRITERION_6_PAIRS)
    argv = ["convergence", "--eps-grid", grid, "--p-range", "1..20", "--out", str(out)]
    assert main(argv) == EXIT_OK
    pinned = Path(__file__).parent / "data" / "criterion6_sweep.csv"
    assert out.read_bytes() == pinned.read_bytes()


OUTFLOW_LAYER = "x - (exp(-(1-x)/0.001) - exp(-1/0.001))/(1 - exp(-1/0.001))"


def test_convergence_manufactured_f_follows_each_eps_pair(tmp_path):
    # f = -eps1*u'' + eps2*b*u' + r*u depends on the pair, so the (1e-4, 1e-4)
    # rows of a two-pair grid must equal those of that pair run alone
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    argv = ["convergence", "--manufactured-u", OUTFLOW_LAYER, "--p-range", "4..5"]
    assert main(argv + ["--eps-grid", "1e-5:1e-2,1e-4:1e-4", "--out", str(both)]) == EXIT_OK
    assert main(argv + ["--eps-grid", "1e-4:1e-4", "--out", str(alone)]) == EXIT_OK
    rows_alone = alone.read_text().splitlines()[1:]
    rows_both = [l for l in both.read_text().splitlines()[1:] if ",0.0001,0.0001," in l]
    assert len(rows_alone) == 2
    assert rows_both == rows_alone


def test_convergence_quad_double_matches_default(tmp_path):
    plain, doubled = tmp_path / "plain.csv", tmp_path / "doubled.csv"
    argv = ["convergence", "--eps-grid", "1e-5:1e-2,1e-6:1.0", "--p-range", "1..4"]
    assert main(argv + ["--out", str(plain)]) == EXIT_OK
    assert main(argv + ["--quad-double", "--out", str(doubled)]) == EXIT_OK
    rows_p = [l.split(",") for l in plain.read_text().splitlines()[1:]]
    rows_d = [l.split(",") for l in doubled.read_text().splitlines()[1:]]
    assert len(rows_p) == len(rows_d) == 8
    for rp, rd in zip(rows_p, rows_d):
        assert rp[:6] == rd[:6] and rp[8:] == rd[8:]
        assert float(rd[6]) == pytest.approx(float(rp[6]), rel=1e-8)


def test_convergence_slope_negative(tmp_path):
    out = tmp_path / "model.csv"
    assert main([
        "convergence", "--eps1", "1e-5", "--eps2", "1e-2", "--p-range", "1..6",
        "--out", str(out),
    ]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    ps = np.array([int(r[3]) for r in rows], dtype=float)
    errs = np.array([float(r[6]) for r in rows])
    slope = np.polyfit(ps, np.log10(errs), 1)[0]
    assert slope < 0


def test_convergence_svg(tmp_path):
    svg = tmp_path / "c.svg"
    assert main([
        "convergence", "--eps1", "1e-4", "--eps2", "1e-4", "--p-range", "1..3",
        "--out", str(tmp_path / "c.csv"), "--svg", str(svg),
    ]) == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps1=1e-4\neps2=1e-4\np-range=1..2\n# a comment\n")
    out = tmp_path / "cfg.csv"
    # flag overrides the config's eps2
    assert main([
        "convergence", "--config", str(cfg), "--eps2", "1e-3", "--out", str(out),
    ]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(float(r[2]) == 1e-3 for r in rows)


def test_top_level_config_reaches_subcommand(tmp_path):
    out = tmp_path / "sol.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p=2\nout={out}\n")
    assert main(["--config", str(cfg), "solve"]) == EXIT_OK
    assert out.read_text().startswith("kind,x,value\n")


@pytest.mark.parametrize("value, suites", [("false", 5), ("YES", 6)])
def test_config_quad_double_is_parsed_as_boolean(tmp_path, capsys, value, suites):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"quad-double={value}\n")
    assert main(["check", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.count("[pass]") == suites


def test_config_bad_boolean_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quad-double=maybe\n")
    assert main(["check", "--config", str(cfg)]) == EXIT_USAGE
    assert "quad-double" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["eps_1=1e-3", "ref-mesh=rebuilt"])
def test_config_unknown_key_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p-range=1..2\n{line}\n")
    argv = ["convergence", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]
    assert main(argv) == EXIT_USAGE
    assert repr(line.partition("=")[0]) in capsys.readouterr().err


def test_config_shared_across_subcommands(tmp_path):
    # sigma and seed are read only by check; solve accepts the shared file
    # and ignores them
    out = tmp_path / "sol.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sigma=0\nseed=3\np=2\nout={out}\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_OK
    assert out.read_text().startswith("kind,x,value\n")


@pytest.mark.parametrize("command", ["solve", "check"])
def test_config_malformed_value_is_usage_error(tmp_path, capsys, command):
    # converted by the option's own type, whether or not the command reads it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps1=abc\n")
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{cfg}:1:" in err and "eps1" in err


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_seed_is_a_check_option_only(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3", "--p", "2", "--out", "/dev/null"])
    assert exc.value.code == EXIT_USAGE


BAD_CHECK_VALUES = [
    pytest.param("seed", "-1", id="seed-negative"),
    pytest.param("sigma", "-1", id="sigma-negative"),
    pytest.param("sigma", "nan", id="sigma-nan"),
    pytest.param("sigma", "inf", id="sigma-inf"),
]


@pytest.mark.parametrize("key, value", BAD_CHECK_VALUES)
def test_negative_seed_is_usage_error(capsys, key, value):
    # a negative seed, or a negative or non-finite penalty
    with pytest.raises(SystemExit) as exc:
        main(["check", f"--{key}", value])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert f"--{key}" in err and value in err and out == ""


@pytest.mark.parametrize("key, value", BAD_CHECK_VALUES)
def test_config_negative_seed_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main(["check", "--config", str(cfg)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert f"{cfg}:1:" in err and key in err and value in err and out == ""


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_USAGE


def test_check_command(capsys):
    # check accepts --seed and ignores it
    outs = []
    for seed in ([], ["--seed", "2"]):
        assert main(["check", *seed]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0].count("[pass]") == 5 and outs[0] == outs[1]


def test_check_command_zero_penalty_fails(capsys):
    assert main(["check", "--sigma", "0"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "[FAIL] coercivity-solve: " in out and "[FAIL] norm-equivalence: " in out

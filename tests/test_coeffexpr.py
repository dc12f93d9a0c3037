"""Parser, evaluator and symbolic derivative for coefficient expressions."""

import numpy as np
import pytest

from wg_hp import coeffexpr
from wg_hp.coeffexpr import (
    BinOp,
    Call,
    EvalDomainError,
    Expr,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    UnsupportedDerivativeError,
    Var,
    differentiate,
    evaluate,
    parse,
    to_string,
)
from wg_hp.polybasis import gauss_rule, quad_order
from wg_hp.problem import model_problem
from wg_hp.verify import manufacture, sbl_mesh

from cases import LAYER_CASES


def test_parse_model_convection_coefficient():
    e = parse("cos(x)")
    assert evaluate(e, 0.5) == pytest.approx(np.cos(0.5), abs=1e-15)


def test_parse_constant():
    e = parse("1")
    for x in (0.0, 0.3, 1.0):
        assert evaluate(e, x) == 1.0


def test_power_right_associative():
    # 2^3^2 = 2^(3^2) = 512, not (2^3)^2 = 64
    assert evaluate(parse("2^3^2"), 0.7) == 512.0


def test_precedence_and_unary_minus():
    assert evaluate(parse("1+2*3^2"), 0.0) == 19.0
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert evaluate(parse("(-x)^2"), 3.0) == 9.0
    assert evaluate(parse("2-1-1"), 0.0) == 0.0  # left-assoc subtraction


def test_evaluate_examples():
    assert evaluate(parse("exp(x)"), 0.0) == 1.0
    assert evaluate(parse("1+x"), 1.0) == 2.0


def test_evaluate_array_matches_pointwise():
    e = parse("sin(x)*exp(x)+x^2")
    xs = np.linspace(0.1, 0.9, 17)
    vals = evaluate(e, xs)
    assert vals.shape == xs.shape
    for xi, vi in zip(xs, vals):
        assert vi == pytest.approx(evaluate(e, float(xi)), rel=1e-15)


@pytest.mark.parametrize("text", ["x", "2.5", "1+x", "cos(x)"])
def test_evaluate_returns_a_fresh_writable_array(text):
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    x_before = x.copy()
    vals = evaluate(parse(text), x)
    assert isinstance(vals, np.ndarray) and vals.dtype == float and vals.shape == x.shape
    assert vals.flags.writeable and vals.flags.c_contiguous
    assert not np.shares_memory(vals, x)
    vals[...] = -7.0
    np.testing.assert_array_equal(x, x_before)
    # the same holds for read-only points, such as a mesh's nodes
    x.setflags(write=False)
    assert evaluate(parse(text), x).flags.writeable
    assert type(evaluate(parse(text), 0.5)) is float


def test_division_by_zero_raises():
    with pytest.raises(EvalDomainError):
        evaluate(parse("sin(x)/x"), 0.0)


def test_log_and_sqrt_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x-1)"), 0.5)


def test_unknown_identifier_reports_offset():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("1 + foo(x)")
    assert exc.value.offset == 4


def test_syntax_errors():
    for bad in ("", "1+", "sin(x", "2**3", "1..2", "x y"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_derivative_of_cos_is_minus_sin():
    d = differentiate(parse("cos(x)"))
    xs = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(evaluate(d, xs), -np.sin(xs), atol=1e-15)


def test_derivative_power_rule():
    d = differentiate(parse("x^2"))
    xs = np.linspace(-3.0, 3.0, 100)
    np.testing.assert_allclose(evaluate(d, xs), 2.0 * xs, atol=1e-14)


def test_derivative_product_vs_finite_differences():
    e = parse("exp(x)*x")
    d = differentiate(e)
    h = 1e-5
    for x in np.linspace(0.1, 2.0, 25):
        fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
        assert evaluate(d, float(x)) == pytest.approx(fd, abs=1e-6)


def test_derivative_general_exponent():
    e = parse("x^x")
    d = differentiate(e)
    xs = np.linspace(0.5, 2.0, 20)
    expect = xs**xs * (np.log(xs) + 1.0)
    np.testing.assert_allclose(evaluate(d, xs), expect, rtol=1e-13)


def test_abs_derivative_rejected():
    with pytest.raises(UnsupportedDerivativeError):
        differentiate(parse("abs(x)"))


def _random_expr(rng, depth, checked=False):
    """Random AST over a domain-safe vocabulary (positive shifts, no division);
    checked=True also draws /, log, sqrt, tan and ^ with fractional and
    x-dependent exponents, which can fail their domain checks."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0.1, 3.0), 3)))
        return Var()
    kind = rng.integers(0, 6 if checked else 4)
    if kind == 0:
        return BinOp(rng.choice(["+", "-", "*"]), _random_expr(rng, depth - 1, checked),
                     _random_expr(rng, depth - 1, checked))
    if kind == 1:
        return Neg(_random_expr(rng, depth - 1, checked))
    if kind == 2:
        return BinOp("^", BinOp("+", Num(1.1), Call("abs", _random_expr(rng, depth - 1, checked))),
                     Num(float(rng.integers(1, 4))))
    if kind == 3:
        return Call(rng.choice(["sin", "cos", "exp"]), _random_expr(rng, depth - 1, checked))
    if kind == 4:
        return Call(rng.choice(["log", "sqrt", "tan"]), _random_expr(rng, depth - 1, checked))
    exponent = rng.choice([Num(0.5), Num(2.0), Num(-1.0), Num(1.5), _random_expr(rng, 1, checked)])
    return BinOp(rng.choice(["/", "^"]), _random_expr(rng, depth - 1, checked), exponent)


def test_to_string_round_trips_500_random_expressions():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.1, 0.9, 7)
    for _ in range(500):
        e = _random_expr(rng, 3)
        back = parse(to_string(e))
        np.testing.assert_allclose(evaluate(back, xs), evaluate(e, xs), rtol=1e-14)


def test_evaluation_is_linear_in_sums():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.1, 0.9, 9)
    for _ in range(20):
        a = _random_expr(rng, 2)
        b = _random_expr(rng, 2)
        both = BinOp("+", a, b)
        np.testing.assert_allclose(
            evaluate(both, xs), evaluate(a, xs) + evaluate(b, xs), rtol=1e-13, atol=1e-13
        )


# ---------------------------------------------------------------------------
# The compiled program against the tree walk it replaced


def _tree_walk(e, x):
    """The recursive evaluator evaluate used before expressions were
    compiled, kept as the oracle: every constant becomes an array of x's
    shape when x is an array."""
    if isinstance(e, Num):
        return np.full_like(x, e.value) if np.ndim(x) else e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_tree_walk(e.arg, x)
    if isinstance(e, BinOp):
        a = _tree_walk(e.left, x)
        b = _tree_walk(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(b == 0):
                raise EvalDomainError("division by zero", e)
            return a / b
        if e.op == "^":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.power(a, b)
            if not np.all(np.isfinite(out)):
                raise EvalDomainError("invalid power", e)
            return out
        raise ValueError(f"bad operator {e.op!r}")
    if isinstance(e, Call):
        a = _tree_walk(e.arg, x)
        if e.func == "log":
            if np.any(a <= 0):
                raise EvalDomainError("log of non-positive value", e)
            return np.log(a)
        if e.func == "sqrt":
            if np.any(a < 0):
                raise EvalDomainError("sqrt of negative value", e)
            return np.sqrt(a)
        return getattr(np, e.func)(a)
    raise TypeError(f"not an Expr: {e!r}")


def _walk_evaluate(e, x):
    """evaluate as it was, on top of the tree walk."""
    if np.ndim(x) == 0:
        return float(_tree_walk(e, float(x)))
    xv = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(_tree_walk(e, xv), dtype=float), xv.shape).copy()


def _outcome(e, x):
    """The bytes of evaluate's result, or the text and subexpression of the
    domain error it raised."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            out = e(x)
        except EvalDomainError as exc:
            return "raised", str(exc), exc.subexpr
    if isinstance(out, float):
        return "float", np.float64(out).tobytes()
    return "array", out.dtype, out.shape, out.tobytes()


def _assert_same_as_tree_walk(e, points):
    for x in points:
        new = _outcome(lambda x: evaluate(e, x), x)
        assert new == _outcome(lambda x: _walk_evaluate(e, x), x), (to_string(e), x)


_POINTS = (
    0.37,
    0.0,
    -0.6,
    np.linspace(0.05, 0.95, 13),
    np.linspace(-0.5, 1.5, 9),
    gauss_rule(12).mapped(np.array([0.0, 0.2, 0.75])[:, None], np.array([0.2, 0.75, 1.0])[:, None])[0],
    np.empty(0),
    np.empty((2, 0)),
)


def test_random_expressions_match_the_tree_walk_bit_for_bit():
    rng = np.random.default_rng(2024)
    raised = 0
    for _ in range(400):
        e = _random_expr(rng, 4, checked=True)
        _assert_same_as_tree_walk(e, _POINTS)
        raised += _outcome(lambda x: evaluate(e, x), _POINTS[4])[0] == "raised"
    # the draw exercises the domain checks as well as the arithmetic
    assert 40 <= raised <= 360


@pytest.mark.parametrize("eps1, eps2, u_text", [case[1:] for case in LAYER_CASES])
def test_manufactured_layer_cases_match_the_tree_walk_bit_for_bit(eps1, eps2, u_text):
    case = manufacture(u_text, model_problem(eps1, eps2))
    points = list(_POINTS)
    for p in (8, 32, 64):
        mesh = sbl_mesh(case.problem, p)
        rule = gauss_rule(quad_order(p))
        points += [rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])[0], mesh.nodes]
    for e in (case.problem.f, case.u_exact, case.u_prime):
        _assert_same_as_tree_walk(e, points)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/(x-x)", "division by zero in subexpression (1.0/(x-x))"),
        ("log(x-1)+sqrt(x)", "log of non-positive value in subexpression log((x-1.0))"),
        ("sqrt(x)+log(x-1)", "sqrt of negative value in subexpression sqrt(x)"),
        ("x^0.5 + 1/0", "invalid power in subexpression (x^0.5)"),
        ("2/0 + sqrt(x)", "division by zero in subexpression (2.0/0.0)"),
    ],
)
def test_domain_errors_name_the_first_failing_subexpression(text, message):
    # the checks run in the tree walk's left-to-right order
    x = np.linspace(-1.0, 0.5, 7)
    with pytest.raises(EvalDomainError) as exc:
        evaluate(parse(text), x)
    assert str(exc.value) == message
    # the same at a single point, and no check fails on an empty x
    _assert_same_as_tree_walk(parse(text), (x, -1.0, np.empty(0), np.empty((2, 0))))
    assert evaluate(parse(text), np.empty((2, 0))).shape == (2, 0)


def test_an_expression_compiles_once_and_shares_repeated_subexpressions(monkeypatch):
    compiled = []
    real = coeffexpr._compile

    def counting_compile(e):
        compiled.append(e)
        return real(e)

    monkeypatch.setattr(coeffexpr, "_compile", counting_compile)
    e = parse("sin(x)*sin(x) + sin(x)")
    for x in (0.3, np.linspace(0.0, 1.0, 5), np.ones((2, 3)), 0.9):
        evaluate(e, x)
    assert compiled == [e]
    # x, sin(x), the product and the sum: the three sin(x) are one step
    assert len(e._program) == 4
    # the cache lives on the instance: an equal tree compiles on its own
    evaluate(parse("sin(x)*sin(x) + sin(x)"), 0.3)
    assert len(compiled) == 2


def test_constant_exponents_are_filled_like_the_tree_walk():
    # np.power(array, 2.0) and np.power(array, array of 2.0) round apart, so
    # every constant feeding ^, folded or not, is filled to x's shape
    x = np.linspace(0.01, 3.0, 400)
    assert np.any(np.power(x, 2.0) != np.power(x, np.full_like(x, 2.0)))
    for text in ("x^2", "x^0.5", "x^(1+1)", "x^sqrt(4)", "x^abs(-2)", "(1+x)^(-1)", "2^x"):
        _assert_same_as_tree_walk(parse(text), (x, x.reshape(20, 20), 0.7))


def test_negative_zero_is_its_own_constant():
    # 0.0*x and -0.0*x would share a step if the constants did
    e = BinOp("*", BinOp("*", Num(0.0), Var()), BinOp("*", Num(-0.0), Var()))
    assert len(e._program) == 6
    assert np.signbit(evaluate(e, 1.0))
    assert np.all(np.signbit(evaluate(e, np.ones(3))))


def test_a_compiled_expression_stays_a_plain_value():
    e = parse("exp(-x/2)")
    evaluate(e, 0.5)
    assert e == parse("exp(-x/2)") and hash(e) == hash(parse("exp(-x/2)"))
    assert isinstance(e, Expr) and repr(e) == repr(parse("exp(-x/2)"))

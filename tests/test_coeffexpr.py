"""Parser, evaluator and symbolic derivative for coefficient expressions."""

import numpy as np
import pytest

from wg_hp.coeffexpr import (
    BinOp,
    Call,
    EvalDomainError,
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


def _random_expr(rng, depth):
    """Random AST over a domain-safe vocabulary (positive shifts, no division)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0.1, 3.0), 3)))
        return Var()
    kind = rng.integers(0, 4)
    if kind == 0:
        return BinOp(rng.choice(["+", "-", "*"]), _random_expr(rng, depth - 1),
                     _random_expr(rng, depth - 1))
    if kind == 1:
        return Neg(_random_expr(rng, depth - 1))
    if kind == 2:
        return BinOp("^", BinOp("+", Num(1.1), Call("abs", _random_expr(rng, depth - 1))),
                     Num(float(rng.integers(1, 4))))
    return Call(rng.choice(["sin", "cos", "exp"]), _random_expr(rng, depth - 1))


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

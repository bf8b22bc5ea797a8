import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from driftspectra.expressions import ExpressionError, Node, parse_expression

from _oracles import first_derivative


class TestEvaluation:
    def test_polynomial(self):
        e = parse_expression("2*t^3 - t + 0.5")
        assert e(1.5) == pytest.approx(2 * 1.5 ** 3 - 1.5 + 0.5, rel=1e-14)

    def test_arrays(self):
        e = parse_expression("sin(t)*cos(theta)")
        t = np.linspace(0.1, 1.0, 5)
        th = np.linspace(0.0, 2.0, 5)
        assert np.allclose(e(t, th), np.sin(t) * np.cos(th))

    def test_functions(self):
        for text, ref in [("sinh(t)", math.sinh(0.8)), ("cosh(t)", math.cosh(0.8)),
                          ("exp(t)", math.exp(0.8)), ("cos(t)", math.cos(0.8))]:
            assert parse_expression(text)(0.8) == pytest.approx(ref, rel=1e-14)

    def test_precedence_and_unary(self):
        assert parse_expression("-t^2")(2.0) == -4.0
        assert parse_expression("(1-t)/(1+t)")(0.5) == pytest.approx(1.0 / 3.0)
        assert parse_expression("2*t**2")(3.0) == 18.0

    def test_pi_constant(self):
        assert parse_expression("sin(pi*t)")(0.5) == pytest.approx(1.0, rel=1e-14)


class TestDifferentiation:
    @pytest.mark.parametrize("text", ["t^3", "sin(2*t)", "exp(-t^2/2)",
                                      "sinh(t)*cos(t)", "t/(1+t^2)", "cosh(0.3*t)"])
    def test_against_finite_differences(self, text):
        e = parse_expression(text)
        d = e.diff("t")
        for x in (0.3, 0.9, 1.7):
            assert d(x) == pytest.approx(first_derivative(lambda s: float(e(s)), x),
                                         rel=1e-6, abs=1e-9)

    def test_partial_theta(self):
        e = parse_expression("t^2*sin(theta)")
        d = e.diff("theta")
        assert d(2.0, 0.0) == pytest.approx(4.0, rel=1e-14)
        assert e.diff("t")(2.0, math.pi / 2) == pytest.approx(4.0, rel=1e-14)

    def test_second_derivative(self):
        e = parse_expression("sin(t)")
        assert e.diff("t").diff("t")(1.0) == pytest.approx(-math.sin(1.0), rel=1e-13)

    def test_depends_on(self):
        assert parse_expression("cos(theta)+t").depends_on("theta")
        assert not parse_expression("sinh(t)^2").depends_on("theta")


# random trees of the grammar, as text; denominators are c + e^2 with c > 0
# so that no pole spoils the difference quotient
_LEAVES = st.sampled_from(["t", "theta", "pi"]) | st.floats(0.1, 2.0).map("{:.3f}".format)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda x: f"({x[0]}{x[1]}{x[2]})"),
        st.tuples(inner, st.floats(0.5, 2.0), inner).map(
            lambda x: f"({x[0]})/({x[1]:.3f}+({x[2]})^2)"),
        st.tuples(st.sampled_from(["sin", "cos", "sinh", "cosh", "exp"]), inner).map(
            lambda x: f"{x[0]}({x[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "0.5"])).map(lambda x: f"({x[0]})^{x[1]}"),
        inner.map(lambda x: f"-({x})"))


class TestDifferentiationProperty:
    @settings(max_examples=300)
    @given(text=st.recursive(_LEAVES, _compound, max_leaves=8),
           var=st.sampled_from(["t", "theta"]), t=st.floats(0.1, 1.5), theta=st.floats(0.0, 6.3))
    def test_diff_agrees_with_central_difference(self, text, var, t, theta):
        try:
            e = parse_expression(text)
        except ExpressionError as exc:  # a folded constant such as (-pi)^0.5
            assume("is not real" not in str(exc))
            raise
        h = 1e-3

        def f(s):
            return float(e(*((t + s, theta) if var == "t" else (t, theta + s))))

        with np.errstate(all="ignore"):
            vals = [f(k * h) for k in (-2, -1, 1, 2)]
            d = float(e.diff(var)(t, theta))
        # ^0.5 of a negative base and overflowing exp/sinh/cosh towers leave the domain
        assume(all(math.isfinite(v) and abs(v) < 1e6 for v in vals) and math.isfinite(d))
        fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-9 * max(1.0, *map(abs, vals))), text


T = Node("t")


def const(value):
    return Node("const", value=value)


class TestTrees:
    @pytest.mark.parametrize("text,tree", [
        ("-t^2", Node("neg", (Node("pow", (T,), 2.0),))),
        ("2^-1*t", Node("*", (const(0.5), T))),
        ("t^2^3", Node("pow", (T,), 8.0)),
        ("3/4/5*t", Node("*", (Node("/", (Node("/", (const(3.0), const(4.0))), const(5.0))), T))),
        ("t - -t", Node("-", (T, Node("neg", (T,))))),
    ])
    def test_precedence_and_associativity(self, text, tree):
        assert parse_expression(text) == tree

    def test_multiline_config_value(self):
        assert parse_expression("0.5*t\n + 0.1*t^2") == parse_expression("0.5*t + 0.1*t^2")


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "t +", "foo(t)", "t^t", "(t", "1..2", "t $ 2",
        "0x10*t", "1_0*t", "1j*t", "t.real", "t//2", "+t", "t if t else 1", "__import__('os')",
        # source-level checks the syntax tree cannot see, and folded constants out of
        # range or not real
        "(sin)(t)", "sin(t,)", "t # comment", pytest.param("\uff54", id="fullwidth-t"), "0^-1*t",
        "(-2)^0.5*t",
        pytest.param("(" * 300 + "t" + ")" * 300, id="300-nested-parentheses"),
        pytest.param("+".join(["t"] * 800), id="800-term-sum")])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    @pytest.mark.parametrize("bad,message", [
        ("t +", "malformed expression 't +'"),
        pytest.param("-" * 3000 + "t", "nested too deeply", id="3000-signs")])
    def test_parser_failures_are_reported_in_the_program_s_words(self, bad, message):
        with pytest.raises(ExpressionError) as info:
            parse_expression(bad)
        assert message in str(info.value) and "<unknown>" not in str(info.value)

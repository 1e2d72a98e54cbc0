import random
import sys

import pytest

from ordcopies import (
    DomainError,
    ExprParseError,
    Iteration,
    OMEGA,
    PositivePart,
    Power,
    Product,
    QuotientAlgebra,
    RangeError,
    ReducedPowerIter,
    expr_from_json,
    expr_simplify,
    expr_to_json,
    factorize,
    iteration_form,
    omega_power,
    ord_add,
    ord_mul,
    parse_expr,
    parse_ordinal,
    render_expr,
)
from ordcopies.ordinals import ONE
from ordcopies.verify import (
    check_factor_invariants,
    check_factorizer_goldens,
    check_tail_drop,
    random_alpha_below_w_w2,
)

o = parse_ordinal

BASE = PositivePart(QuotientAlgebra(ONE))


class TestFactorize:
    def test_omega(self):
        assert factorize(OMEGA) == BASE

    def test_omega_squared(self):
        assert factorize(o("w^(2)")) == PositivePart(ReducedPowerIter(QuotientAlgebra(ONE), 1))

    def test_mixed_exponents(self):
        expr = factorize(o("w^(w+2)*3 + w^5*2 + 4"))
        assert expr == Product(
            (
                Power(PositivePart(ReducedPowerIter(QuotientAlgebra(OMEGA), 2)), 3),
                Power(PositivePart(ReducedPowerIter(QuotientAlgebra(ONE), 4)), 2),
            )
        )

    def test_finite_tail_dropped(self):
        assert factorize(o("w+5")) == factorize(OMEGA)

    def test_rejects_finite(self):
        with pytest.raises(RangeError):
            factorize(o("5"))

    def test_goldens(self):
        result = check_factorizer_goldens()
        assert result.ok, result.detail

    def test_tail_drop_sample(self):
        result = check_tail_drop(samples=60)
        assert result.ok, result.detail

    def test_invariants_sample(self):
        result = check_factor_invariants(samples=300)
        assert result.ok, result.detail


class TestSimplify:
    def test_rp_zero_unwraps(self):
        assert expr_simplify(ReducedPowerIter(BASE, 0)) == BASE

    def test_singleton_product_unwraps(self):
        assert expr_simplify(Product((BASE,))) == BASE

    def test_nested_rp_merge(self):
        nested = ReducedPowerIter(ReducedPowerIter(QuotientAlgebra(ONE), 2), 3)
        assert expr_simplify(nested) == ReducedPowerIter(QuotientAlgebra(ONE), 5)

    def test_power_merge(self):
        assert expr_simplify(Power(Power(BASE, 2), 3)) == Power(BASE, 6)
        assert expr_simplify(Power(BASE, 1)) == BASE

    def test_equal_factors_grouped(self):
        assert expr_simplify(Product((BASE, BASE))) == Power(BASE, 2)

    def test_factor_sorting(self):
        low = PositivePart(QuotientAlgebra(ONE))
        high = PositivePart(ReducedPowerIter(QuotientAlgebra(ONE), 2))
        assert expr_simplify(Product((low, high))) == Product((high, low))

    def test_noop_on_factorizations(self):
        # factorize already returns simplified expressions, so the CLI
        # renders them without another pass.
        rng = random.Random(13)
        for _ in range(500):
            expr = factorize(random_alpha_below_w_w2(rng))
            assert expr_simplify(expr) == expr

    def test_invalid_nodes_rejected(self):
        with pytest.raises(DomainError):
            QuotientAlgebra(o("w+1"))
        with pytest.raises(DomainError):
            Power(BASE, 0)
        with pytest.raises(DomainError):
            Product(())


class TestIterationForm:
    def test_below_double_omega(self):
        assert iteration_form(OMEGA) == BASE
        assert iteration_form(o("w+7")) == BASE

    def test_generic_second_component(self):
        expr = iteration_form(o("w*2"))
        assert expr == Iteration(BASE, "ω₁-closed separative atomless π")

    def test_limit_power_second_component(self):
        expr = iteration_form(omega_power(OMEGA))
        assert expr.second == "(P(L)ˇ/Iˇ_{qˇ⁻¹[Γ₁]})^+"

    def test_coefficient_blocks_special_form(self):
        assert iteration_form(omega_power(OMEGA, 2)).second == "ω₁-closed separative atomless π"

    def test_rejects_finite(self):
        with pytest.raises(RangeError):
            iteration_form(o("3"))

    def test_agrees_with_factorization_below_double_omega(self):
        for k in range(10):
            alpha = ord_add(OMEGA, k)
            assert iteration_form(alpha) == factorize(alpha)


class TestRendering:
    def test_text_goldens(self):
        assert render_expr(BASE) == "(P(w)/fin)^+"
        assert render_expr(factorize(o("w^(2)"))) == "(rp(P(w)/fin))^+"
        assert render_expr(factorize(ord_mul(OMEGA, 3))) == "((P(w)/fin)^+)^3"
        assert (
            render_expr(factorize(o("w^(w+2)*3 + w^5*2 + 4")))
            == "((rp^2(P(w^(w))/I_(w^(w))))^+)^3 x ((rp^4(P(w)/fin))^+)^2"
        )

    def test_latex_golden(self):
        assert render_expr(BASE, "latex") == r"(P(\omega)/\mathrm{Fin})^+"

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="needs the default int-string limit",
    )
    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_a_number_past_the_int_limit_is_a_range_error(self, fmt):
        big = 10**5000
        for expr in (Power(BASE, big), PositivePart(ReducedPowerIter(QuotientAlgebra(ONE), big))):
            with pytest.raises(RangeError, match="too long to print"):
                render_expr(expr, fmt)
        with pytest.raises(RangeError, match="too long to print"):
            render_expr(factorize(ord_mul(OMEGA, big)), fmt)

    def test_iteration_text(self):
        text = render_expr(iteration_form(o("w*2")))
        assert text == "(P(w)/fin)^+ * ω₁-closed separative atomless π"

    def test_json_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            expr = factorize(random_alpha_below_w_w2(rng))
            assert expr_from_json(expr_to_json(expr)) == expr

    @pytest.mark.parametrize("bad", [2.5, "2", True, None])
    def test_json_rejects_non_integer_counts(self, bad):
        from ordcopies.errors import SchemaError

        for doc in (
            {"kind": "power", "exponent": bad, "inner": expr_to_json(BASE)},
            {"kind": "rp", "depth": bad, "inner": expr_to_json(BASE)},
        ):
            with pytest.raises(SchemaError):
                expr_from_json(doc)

    def test_unknown_format(self):
        from ordcopies.errors import SchemaError

        with pytest.raises(SchemaError):
            render_expr(BASE, "html")


class TestParsing:
    def test_round_trip_simple(self):
        for text in (
            "(P(w)/fin)^+",
            "(rp(P(w)/fin))^+",
            "(rp^3(P(w^(w))/I_(w^(w))))^+",
            "((P(w)/fin)^+)^4",
            "((P(w)/fin)^+)^2 x (rp(P(w)/fin))^+",
        ):
            assert render_expr(parse_expr(text)) == text

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(100):
            alpha = random_alpha_below_w_w2(rng)
            expr = factorize(alpha)
            assert parse_expr(render_expr(expr)) == expr
            tower = iteration_form(alpha)
            assert parse_expr(render_expr(tower)) == tower

    def test_nested_exponent_round_trip(self):
        alpha = omega_power(omega_power(OMEGA))
        expr = factorize(alpha)
        text = render_expr(expr)
        assert text == "(P(w^(w^(w)))/I_(w^(w^(w))))^+"
        assert parse_expr(text) == expr

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(P(w)/fin)^",
            "rp()",
            "P(w^(w))/I_(w^(2))",
            "(P(w)/fin)^+ x",
            "(P(w)/fin)^+ *",
            "P(w^(x))/I_(w^(x))",
            "rp^\u00b2(P(w)/fin)",
            "(P(w)/fin)^\u0663",
            "P(w^(\u00b2))/I_(w^(\u00b2))",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ExprParseError):
            parse_expr(bad)

    def test_bad_gamma_is_positioned_in_the_whole_text(self):
        text = "P(w^(x))/I_(w^(x))"
        with pytest.raises(ExprParseError, match=r"at position 5 in 'P\(w\^\(x\)\)/I_"):
            parse_expr(text)

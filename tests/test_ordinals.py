import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcopies import (
    EQ,
    GT,
    LT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    RangeError,
    is_indecomposable,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
    split_exponent,
)

o = parse_ordinal

# The interpreter's int-string limit (4300 by default); 0 means none.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def naturals(max_value=4):
    return st.integers(min_value=0, max_value=max_value)


@st.composite
def ordinals(draw, depth=1):
    count = draw(st.integers(0, 3))
    exponents = {}
    for _ in range(count):
        if depth == 0:
            e = Ordinal(draw(naturals()))
        else:
            e = draw(ordinals(depth=depth - 1))
        exponents[e] = draw(st.integers(1, 3))
    pairs = sorted(exponents.items(), key=lambda kv: kv[0], reverse=True)
    return Ordinal.from_terms(pairs)


class TestComparison:
    def test_zero_is_minimal(self):
        assert ord_cmp(ZERO, OMEGA) == LT

    def test_successor_above_base(self):
        assert ord_cmp(o("w+1"), OMEGA) == GT

    def test_identity(self):
        assert ord_cmp(o("w^(3)*2+w"), o("w^(3)*2+w")) == EQ

    def test_prefix_is_smaller(self):
        assert o("w^(2)") < o("w^(2)+1")

    @given(ordinals(), ordinals(), ordinals())
    def test_total_order_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c


class TestAddition:
    def test_finite_absorbed_by_limit(self):
        assert ord_add(1, OMEGA) == OMEGA

    def test_smaller_power_absorbed(self):
        assert ord_add(OMEGA, o("w^(2)")) == o("w^(2)")

    def test_mixed_sum(self):
        assert ord_add(o("w^(2)*3"), o("w^(2)+w")) == o("w^(2)*4+w")

    def test_not_commutative(self):
        assert ord_add(OMEGA, 1) != OMEGA

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ordinals(), ordinals())
    def test_right_monotone(self, a, b):
        assert ord_add(a, b) >= a


def reference_mul(a, b):
    """The product as a sum of one ord_add per term of ``b``, as ord_mul
    computed it before it concatenated the terms."""
    a, b = Ordinal(a), Ordinal(b)
    if not a.terms or not b.terms:
        return ZERO
    lead = a.terms[0][0]
    result = ZERO
    for exponent, coeff in b.terms:
        if exponent.is_zero():
            # a * n multiplies only the leading coefficient.
            scaled = ((lead, a.terms[0][1] * coeff),) + a.terms[1:]
            part = Ordinal._make(scaled)
        else:
            part = omega_power(ord_add(lead, exponent), coeff)
        result = ord_add(result, part)
    return result


class TestMultiplication:
    def test_by_zero(self):
        assert ord_mul(OMEGA, 0) == ZERO
        assert ord_mul(0, OMEGA) == ZERO

    def test_power_shift(self):
        assert ord_mul(o("w^(2)"), OMEGA) == o("w^(3)")

    def test_finite_times_omega(self):
        assert ord_mul(2, OMEGA) == OMEGA
        assert ord_mul(OMEGA, 2) == o("w*2")

    @given(ordinals(), ordinals(), ordinals())
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))

    @given(ordinals(), ordinals(), ordinals())
    @settings(max_examples=60)
    def test_left_distributive(self, a, b, c):
        assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))

    @given(ordinals(depth=2), ordinals(depth=2))
    @settings(max_examples=300)
    def test_matches_the_sum_of_parts(self, a, b):
        product = ord_mul(a, b)
        assert product.terms == reference_mul(a, b).terms
        assert str(product) == str(reference_mul(a, b))

    def test_long_finite_power_is_linear(self):
        # (w+1)^n has n+1 terms; a product that re-adds each term is
        # quadratic in n.
        start = time.process_time()
        result = ord_pow(o("w+1"), 2000)
        elapsed = time.process_time() - start
        assert len(result.terms) == 2001
        assert elapsed < 1.0


class TestPower:
    def test_zeroth_power(self):
        assert ord_pow(OMEGA, 0) == ONE

    def test_omega_to_omega(self):
        result = ord_pow(OMEGA, OMEGA)
        assert result == omega_power(OMEGA)
        assert len(result.terms) == 1

    def test_two_to_omega(self):
        # The finite powers 2^n are strictly increasing and unbounded below
        # w, so their supremum is w itself.
        values = [ord_pow(2, n) for n in range(12)]
        assert all(v < OMEGA for v in values)
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert ord_pow(2, OMEGA) == OMEGA

    def test_zero_base(self):
        assert ord_pow(0, 5) == ZERO
        assert ord_pow(0, 0) == ONE

    def test_successor_square(self):
        assert ord_pow(o("w+1"), 2) == o("w^(2)+w+1")

    @given(ordinals(depth=1), ordinals(depth=0), ordinals(depth=0))
    @settings(max_examples=60, deadline=None)
    def test_sum_exponent_law(self, a, b, c):
        assert ord_pow(a, ord_add(b, c)) == ord_mul(ord_pow(a, b), ord_pow(a, c))

    @given(ordinals(depth=0), ordinals(depth=0), ordinals(depth=0))
    @settings(max_examples=60, deadline=None)
    def test_composition_law(self, a, b, c):
        assert ord_pow(ord_pow(a, b), c) == ord_pow(a, ord_mul(b, c))


class TestRendering:
    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="needs the default int-string limit",
    )
    def test_a_coefficient_past_the_int_limit_is_a_range_error(self):
        big = 10**5000
        for value in (Ordinal(big), omega_power(OMEGA, big), ord_add(OMEGA, big), omega_power(big)):
            for render in (str, Ordinal.to_latex):
                with pytest.raises(RangeError, match="too long to print"):
                    render(value)


class TestClassification:
    def test_power_of_omega(self):
        assert is_indecomposable(o("w^(2)"))

    def test_sum_is_decomposable(self):
        assert not is_indecomposable(o("w^(2)+w"))

    def test_finite(self):
        assert not is_indecomposable(Ordinal(3))
        assert is_indecomposable(ONE)

    def test_zero_rejected(self):
        with pytest.raises(RangeError):
            is_indecomposable(ZERO)

    @given(ordinals(depth=0), ordinals(depth=0))
    def test_equal_or_larger_head_decomposes(self, d2, extra):
        d2 = ord_add(d2, 1)
        d1 = ord_add(d2, extra)
        assert not is_indecomposable(ord_add(omega_power(d1), omega_power(d2)))


class TestSplitExponent:
    def test_finite(self):
        assert split_exponent(5) == (ONE, 4)

    def test_limit(self):
        assert split_exponent(OMEGA) == (OMEGA, 0)

    def test_mixed(self):
        assert split_exponent(o("w*2+3")) == (o("w*2"), 3)

    def test_zero_rejected(self):
        with pytest.raises(RangeError):
            split_exponent(ZERO)

    @given(ordinals())
    def test_recombines(self, d):
        d = ord_add(d, 1)
        gamma, r = split_exponent(d)
        assert gamma == ONE or gamma.is_limit()
        assert ord_add(gamma, r) == d


class TestParsing:
    def test_mixed_terms(self):
        value = parse_ordinal("w^(w+2)*3 + w^5*2 + 4")
        assert value.terms == (
            (o("w+2"), 3),
            (Ordinal(5), 2),
            (ZERO, 4),
        )

    def test_exponent_sugar(self):
        assert parse_ordinal("w^5") == parse_ordinal("w^(5)")

    def test_whitespace_insignificant(self):
        assert parse_ordinal(" w ^ ( 2 ) * 3 + 1 ") == o("w^(2)*3+1")

    def test_zero(self):
        assert parse_ordinal("0") == ZERO

    @pytest.mark.parametrize(
        "bad",
        ["", "w + w^(2)", "w + w", "3 + 2", "w*0", "0 + 1", "w^w", "w^(", "x", "1 +",
         # SUPERSCRIPT TWO and ARABIC-INDIC DIGIT THREE pass str.isdigit();
         # they are not digits of the grammar.
         "\u00b2", "\u0663", "w^\u00b2", "w*\u0663", "w^(\u00b2)"],
    )
    def test_rejects(self, bad):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)

    @pytest.mark.skipif(not 0 < INT_DIGITS < 5000, reason="needs the default int-string limit")
    def test_refuses_a_digit_run_over_the_int_string_limit(self):
        limit = INT_DIGITS
        assert parse_ordinal("9" * limit) == Ordinal(10**limit - 1)
        with pytest.raises(OrdinalParseError, match=rf"more than {limit} digits \(at position 2 "):
            parse_ordinal("w*" + "1" * 5000)
        with pytest.raises(OrdinalParseError, match=r"at position 0 "):
            parse_ordinal("1" * (limit + 1))

    @given(ordinals(depth=2))
    def test_round_trip(self, a):
        assert parse_ordinal(str(a)) == a

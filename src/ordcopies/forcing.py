"""Symbolic factorization of the separative quotient of the copy poset.

For an infinite countable ordinal written in Cantor normal form as

    alpha = w^(g_n + r_n)*s_n + ... + w^(g_0 + r_0)*s_0 + k

with each g_i a limit or 1 and r_i, k natural, the quotient of the copies
of alpha ordered by inclusion factors as the product over i of

    ((rp^(r_i)(P(w^(g_i)) / I_(w^(g_i))))^+)^(s_i)

where rp is the mod-finite reduced power, I_(w^g) the ideal of subsets of
w^g containing no copy of it (Fin when g = 1), and (.)^+ the positive part.
The finite tail k never matters: copies of alpha + k are copies of alpha
with the last k points appended.

This module builds, simplifies, renders and parses such expressions.  The
two-step iteration view is also available: beyond w + w the quotient is an
iteration whose first step is (P(w)/Fin)^+ and whose second step is only
ever reported as an annotation string, never constructed.

Text format examples: ``(P(w)/fin)^+``, ``(rp(P(w)/fin))^+``,
``((rp^2(P(w^(w))/I_(w^(w))))^+)^3 x ((P(w)/fin)^+)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DomainError, ExprParseError, RangeError, SchemaError
from .ordinals import (
    LT,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalLike,
    _Parser,
    _digits,
    _json_text,
    ord_add,
    ord_cmp,
    ord_mul,
    parse_ordinal,
    split_exponent,
)

GENERIC_SECOND = "ω₁-closed separative atomless π"
LAYERED_SECOND = "(P(L)ˇ/Iˇ_{qˇ⁻¹[Γ₁]})^+"


class ForcingExpr:
    """Base of the expression AST; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class QuotientAlgebra(ForcingExpr):
    """P(w^gamma) modulo the ideal of copy-free subsets; gamma limit or 1."""

    gamma: Ordinal

    def __post_init__(self):
        if not (self.gamma == ONE or self.gamma.is_limit()):
            raise DomainError(f"quotient base must be a limit or 1, got {self.gamma}")


@dataclass(frozen=True)
class ReducedPowerIter(ForcingExpr):
    """depth-fold mod-finite reduced power; depth 0 is the identity."""

    inner: ForcingExpr
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError("reduced-power depth must be a natural number")


@dataclass(frozen=True)
class PositivePart(ForcingExpr):
    inner: ForcingExpr


@dataclass(frozen=True)
class Power(ForcingExpr):
    inner: ForcingExpr
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise DomainError("powers must be positive")


@dataclass(frozen=True)
class Product(ForcingExpr):
    factors: Tuple[ForcingExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise DomainError("products need at least one factor")


@dataclass(frozen=True)
class Iteration(ForcingExpr):
    """A two-step iteration; the second step is a reported annotation only."""

    first: ForcingExpr
    second: str


def factorize(alpha: OrdinalLike) -> ForcingExpr:
    """The canonical product expression for the quotient of copies of alpha."""
    alpha = Ordinal(alpha)
    if ord_cmp(alpha, OMEGA) == LT:
        raise RangeError("the copy poset is trivial below w; nothing to factorize")
    factors = []
    for exponent, coeff in alpha.terms:
        if exponent.is_zero():
            continue  # the finite tail drops out
        gamma, depth = split_exponent(exponent)
        core: ForcingExpr = QuotientAlgebra(gamma)
        if depth:
            core = ReducedPowerIter(core, depth)
        factor: ForcingExpr = PositivePart(core)
        if coeff > 1:
            factor = Power(factor, coeff)
        factors.append(factor)
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def iteration_form(alpha: OrdinalLike) -> ForcingExpr:
    """The quotient as a two-step iteration over (P(w)/Fin)^+.

    Below w + w the quotient already is (P(w)/Fin)^+ and is returned
    directly.  Beyond, the second step is reported as an annotation; for
    alpha = w^gamma with gamma a limit it names the layered quotient.
    """
    alpha = Ordinal(alpha)
    if ord_cmp(alpha, OMEGA) == LT:
        raise RangeError("the copy poset is trivial below w; nothing to iterate")
    base = PositivePart(QuotientAlgebra(ONE))
    if ord_cmp(alpha, ord_mul(OMEGA, 2)) == LT:
        return base
    second = GENERIC_SECOND
    if len(alpha.terms) == 1 and alpha.terms[0][1] == 1 and alpha.terms[0][0].is_limit():
        second = LAYERED_SECOND
    return Iteration(base, second)


def _factor_key(e: ForcingExpr) -> Optional[Ordinal]:
    """The exponent gamma + depth of a canonical factor, if it has the shape."""
    if isinstance(e, Power):
        e = e.inner
    if not isinstance(e, PositivePart):
        return None
    e = e.inner
    depth = 0
    if isinstance(e, ReducedPowerIter):
        depth = e.depth
        e = e.inner
    if not isinstance(e, QuotientAlgebra):
        return None
    return ord_add(e.gamma, depth)


def expr_simplify(e: ForcingExpr) -> ForcingExpr:
    """Canonical form: unwrap rp^0 and trivial powers/products, merge nests,
    group repeated factors and sort recognizable factors by their exponent."""
    if isinstance(e, QuotientAlgebra):
        return e
    if isinstance(e, ReducedPowerIter):
        inner = expr_simplify(e.inner)
        depth = e.depth
        if isinstance(inner, ReducedPowerIter):
            depth += inner.depth
            inner = inner.inner
        return inner if depth == 0 else ReducedPowerIter(inner, depth)
    if isinstance(e, PositivePart):
        return PositivePart(expr_simplify(e.inner))
    if isinstance(e, Power):
        inner = expr_simplify(e.inner)
        exponent = e.exponent
        if isinstance(inner, Power):
            exponent *= inner.exponent
            inner = inner.inner
        return inner if exponent == 1 else Power(inner, exponent)
    if isinstance(e, Product):
        flat: List[ForcingExpr] = []
        for factor in e.factors:
            factor = expr_simplify(factor)
            if isinstance(factor, Product):
                flat.extend(factor.factors)
            else:
                flat.append(factor)
        merged: List[Tuple[ForcingExpr, int]] = []
        for factor in flat:
            base, count = (factor.inner, factor.exponent) if isinstance(factor, Power) else (factor, 1)
            for i, (existing, total) in enumerate(merged):
                if existing == base:
                    merged[i] = (existing, total + count)
                    break
            else:
                merged.append((base, count))
        factors = [base if count == 1 else Power(base, count) for base, count in merged]
        keys = [_factor_key(f) for f in factors]
        if all(k is not None for k in keys):
            factors = [f for _, f in sorted(zip(keys, factors), key=lambda kv: kv[0], reverse=True)]
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))
    if isinstance(e, Iteration):
        return Iteration(expr_simplify(e.first), e.second)
    raise SchemaError(f"not a forcing expression: {type(e).__name__}")


# -- rendering ---------------------------------------------------------------


def _text(e: ForcingExpr) -> str:
    if isinstance(e, QuotientAlgebra):
        if e.gamma == ONE:
            return "P(w)/fin"
        return f"P(w^({e.gamma}))/I_(w^({e.gamma}))"
    if isinstance(e, ReducedPowerIter):
        head = "rp" if e.depth == 1 else f"rp^{_digits(e.depth)}"
        return f"{head}({_text(e.inner)})"
    if isinstance(e, PositivePart):
        return f"({_text(e.inner)})^+"
    if isinstance(e, Power):
        return f"({_text(e.inner)})^{_digits(e.exponent)}"
    if isinstance(e, Product):
        return " x ".join(_text(f) for f in e.factors)
    if isinstance(e, Iteration):
        return f"{_text(e.first)} * {e.second}"
    raise SchemaError(f"not a forcing expression: {type(e).__name__}")


def _latex(e: ForcingExpr) -> str:
    if isinstance(e, QuotientAlgebra):
        if e.gamma == ONE:
            return r"P(\omega)/\mathrm{Fin}"
        g = e.gamma.to_latex()
        return r"P(\omega^{%s})/\mathcal{I}_{\omega^{%s}}" % (g, g)
    if isinstance(e, ReducedPowerIter):
        head = r"\mathrm{rp}" if e.depth == 1 else r"\mathrm{rp}^{%s}" % _digits(e.depth)
        return f"{head}({_latex(e.inner)})"
    if isinstance(e, PositivePart):
        return f"({_latex(e.inner)})^+"
    if isinstance(e, Power):
        return "(%s)^{%s}" % (_latex(e.inner), _digits(e.exponent))
    if isinstance(e, Product):
        return r" \times ".join(_latex(f) for f in e.factors)
    if isinstance(e, Iteration):
        return r"%s \ast \text{%s}" % (_latex(e.first), e.second)
    raise SchemaError(f"not a forcing expression: {type(e).__name__}")


def expr_to_json(e: ForcingExpr):
    if isinstance(e, QuotientAlgebra):
        return {"kind": "quotient", "gamma": str(e.gamma)}
    if isinstance(e, ReducedPowerIter):
        return {"kind": "rp", "depth": e.depth, "inner": expr_to_json(e.inner)}
    if isinstance(e, PositivePart):
        return {"kind": "positive", "inner": expr_to_json(e.inner)}
    if isinstance(e, Power):
        return {"kind": "power", "exponent": e.exponent, "inner": expr_to_json(e.inner)}
    if isinstance(e, Product):
        return {"kind": "product", "factors": [expr_to_json(f) for f in e.factors]}
    if isinstance(e, Iteration):
        return {"kind": "iteration", "first": expr_to_json(e.first), "second": e.second}
    raise SchemaError(f"not a forcing expression: {type(e).__name__}")


def _integer(obj, key: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    return value


def expr_from_json(obj) -> ForcingExpr:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("expected an expression object with a kind")
    kind = obj["kind"]
    try:
        if kind == "quotient":
            return QuotientAlgebra(parse_ordinal(obj["gamma"]))
        if kind == "rp":
            return ReducedPowerIter(expr_from_json(obj["inner"]), _integer(obj, "depth"))
        if kind == "positive":
            return PositivePart(expr_from_json(obj["inner"]))
        if kind == "power":
            return Power(expr_from_json(obj["inner"]), _integer(obj, "exponent"))
        if kind == "product":
            return Product(tuple(expr_from_json(f) for f in obj["factors"]))
        if kind == "iteration":
            return Iteration(expr_from_json(obj["first"]), obj["second"])
    except KeyError as missing:
        raise SchemaError(f"expression object lacks key {missing}") from None
    raise SchemaError(f"unknown expression kind {kind!r}")


def render_expr(e: ForcingExpr, fmt: str = "text") -> str:
    """Deterministic rendering; the text form round-trips via parse_expr."""
    if fmt == "text":
        return _text(e)
    if fmt == "latex":
        return _latex(e)
    if fmt == "json":
        return _json_text(expr_to_json(e))
    raise SchemaError(f"unknown format {fmt!r}")


# -- text parsing ------------------------------------------------------------


class _ExprParser(_Parser):
    """The expression grammar on the ordinal scanner; gamma is read in place."""

    error_type = ExprParseError

    def expr(self) -> ForcingExpr:
        factors = [self.atom()]
        while True:
            self.skip_ws()
            mark = self.pos
            if self.literal("x") and self.peek().isspace():
                factors.append(self.atom())
                continue
            self.pos = mark
            if self.literal("*"):
                annotation = self.text[self.pos :].strip()
                if not annotation:
                    raise self.error("iteration lacks its second component")
                self.pos = len(self.text)
                first = factors[0] if len(factors) == 1 else Product(tuple(factors))
                return Iteration(first, annotation)
            break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def atom(self) -> ForcingExpr:
        self.skip_ws()
        if self.literal("rp"):
            depth = 1
            if self.literal("^"):
                depth = self.natural()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return ReducedPowerIter(inner, depth)
        if self.literal("P(w)/fin"):
            return QuotientAlgebra(ONE)
        if self.literal("P(w^("):
            gamma = self.ordinal()
            self.expect("))/I_(w^(")
            again = self.ordinal()
            self.expect("))")
            if gamma != again:
                raise self.error("the quotient base and its ideal disagree")
            return QuotientAlgebra(gamma)
        if self.literal("("):
            inner = self.expr()
            self.expect(")")
            self.expect("^")
            if self.literal("+"):
                return PositivePart(inner)
            return Power(inner, self.natural())
        raise self.error("expected an expression")


def parse_expr(text: str) -> ForcingExpr:
    """Parse the text rendering back into an AST."""
    return _ExprParser(text).parse(_ExprParser.expr)

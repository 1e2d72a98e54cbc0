"""Cantor normal form arithmetic for ordinals below epsilon_0.

An ordinal is a finite sum ``w^(e_1)*c_1 + ... + w^(e_k)*c_k`` with strictly
decreasing ordinal exponents (themselves in the same form) and positive
integer coefficients; the empty sum is 0.  Values are immutable and kept
canonical on construction, so structural equality coincides with equality of
ordinals and instances hash consistently.

The text grammar accepted by :func:`parse_ordinal` (and produced by ``str``):

    ordinal := term ("+" term)* | "0"
    term    := "w" ["^(" ordinal ")"] ["*" coeff] | natural
    coeff   := positive decimal integer

``w^5`` abbreviates ``w^(5)``; whitespace is insignificant.  Input whose
exponents are not strictly decreasing is rejected as non-canonical.  Digits
are ASCII ``0``-``9``, and a digit run longer than the interpreter's
int-string limit (``sys.get_int_max_str_digits()``) is refused.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Tuple, Union

from .errors import InputFormatError, OrdinalParseError, RangeError

LT, EQ, GT = -1, 0, 1

OrdinalLike = Union["Ordinal", int]

Term = Tuple["Ordinal", int]


class Ordinal:
    """An ordinal below epsilon_0, stored in Cantor normal form."""

    __slots__ = ("_terms", "_hash")

    def __new__(cls, value: OrdinalLike = 0) -> "Ordinal":
        if isinstance(value, Ordinal):
            return value
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"cannot build an ordinal from {type(value).__name__}")
        if value < 0:
            raise RangeError("ordinals are non-negative")
        self = object.__new__(cls)
        self._terms = ((ZERO, value),) if value else ()
        self._hash = None
        return self

    @classmethod
    def _make(cls, terms: Tuple[Term, ...]) -> "Ordinal":
        # Trusted constructor: terms must already be canonical.
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def from_terms(cls, pairs: Iterable[Tuple[OrdinalLike, int]]) -> "Ordinal":
        """Build from (exponent, coefficient) pairs, validating canonicity."""
        terms = []
        for exponent, coeff in pairs:
            exponent = Ordinal(exponent)
            if not isinstance(coeff, int) or coeff < 1:
                raise RangeError(f"coefficients must be positive integers, got {coeff!r}")
            if terms and ord_cmp(terms[-1][0], exponent) != GT:
                raise RangeError("exponents must be strictly decreasing")
            terms.append((exponent, coeff))
        return cls._make(tuple(terms))

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    # -- classification -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_finite(self) -> bool:
        return not self._terms or self._terms[0][0].is_zero()

    def is_limit(self) -> bool:
        """Nonzero with no finite part."""
        return bool(self._terms) and not self._terms[-1][0].is_zero()

    def leading_exponent(self) -> "Ordinal":
        if not self._terms:
            raise RangeError("zero has no leading exponent")
        return self._terms[0][0]

    def natural_part(self) -> int:
        """The finite tail: coefficient of the exponent-0 term."""
        if self._terms and self._terms[-1][0].is_zero():
            return self._terms[-1][1]
        return 0

    def limit_part(self) -> "Ordinal":
        """Everything above the finite tail."""
        if self._terms and self._terms[-1][0].is_zero():
            return Ordinal._make(self._terms[:-1])
        return self

    def __int__(self) -> int:
        if not self.is_finite():
            raise RangeError(f"{self} is infinite")
        return self.natural_part()

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            return self.is_finite() and self.natural_part() == other
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            # Finite ordinals compare equal to ints, so they must hash alike.
            if self.is_finite():
                self._hash = hash(self.natural_part())
            else:
                self._hash = hash(self._terms)
        return self._hash

    def __lt__(self, other) -> bool:
        return ord_cmp(self, other) == LT

    def __le__(self, other) -> bool:
        return ord_cmp(self, other) != GT

    def __gt__(self, other) -> bool:
        return ord_cmp(self, other) == GT

    def __ge__(self, other) -> bool:
        return ord_cmp(self, other) != LT

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return ord_add(self, other)

    def __radd__(self, other):
        return ord_add(other, self)

    def __mul__(self, other):
        return ord_mul(self, other)

    def __rmul__(self, other):
        return ord_mul(other, self)

    def __pow__(self, other):
        return ord_pow(self, other)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_text(e, c) for e, c in self._terms)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"

    def to_latex(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_latex(e, c) for e, c in self._terms)


def _too_long() -> RangeError:
    return RangeError(f"a number of more than {_int_max_str_digits()} digits is too long to print")


def _digits(n: int) -> str:
    """The decimal text of an integer; one longer than the interpreter's
    int-string limit is a RangeError, not a ValueError."""
    try:
        return str(n)
    except ValueError:
        raise _too_long() from None


def _json_text(value) -> str:
    """``json.dumps(value)``; an integer in it longer than the int-string
    limit is the RangeError of :func:`_digits`, not a ValueError."""
    try:
        return json.dumps(value)
    except ValueError:
        raise _too_long() from None


def _term_text(exponent: Ordinal, coeff: int) -> str:
    if exponent.is_zero():
        return _digits(coeff)
    base = "w" if exponent == ONE else f"w^({exponent})"
    return base if coeff == 1 else f"{base}*{_digits(coeff)}"


def _term_latex(exponent: Ordinal, coeff: int) -> str:
    if exponent.is_zero():
        return _digits(coeff)
    base = r"\omega" if exponent == ONE else r"\omega^{%s}" % exponent.to_latex()
    return base if coeff == 1 else base + r" \cdot " + _digits(coeff)


ZERO = Ordinal._make(())
ONE = Ordinal._make(((ZERO, 1),))
OMEGA = Ordinal._make(((ONE, 1),))


def omega_power(exponent: OrdinalLike, coeff: int = 1) -> Ordinal:
    """``w^(exponent) * coeff`` as a single-term ordinal."""
    if coeff < 1:
        raise RangeError("coefficient must be positive")
    exponent = Ordinal(exponent)
    if exponent.is_zero():
        return Ordinal(coeff)
    return Ordinal._make(((exponent, coeff),))


OMEGA_OMEGA = omega_power(OMEGA)


def ord_cmp(a: OrdinalLike, b: OrdinalLike) -> int:
    """Total order on ordinals: LT (-1), EQ (0) or GT (1)."""
    a, b = Ordinal(a), Ordinal(b)
    if a is b:
        return EQ
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ord_cmp(ea, eb)
        if c != EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(a.terms) == len(b.terms):
        return EQ
    # A proper term-list prefix denotes the smaller ordinal.
    return LT if len(a.terms) < len(b.terms) else GT


def ord_add(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal sum: terms of ``a`` below ``b``'s leading exponent are absorbed."""
    a, b = Ordinal(a), Ordinal(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    keep = 0
    while keep < len(a.terms) and ord_cmp(a.terms[keep][0], lead) == GT:
        keep += 1
    if keep < len(a.terms) and a.terms[keep][0] == lead:
        merged = (lead, a.terms[keep][1] + b.terms[0][1])
        return Ordinal._make(a.terms[:keep] + (merged,) + b.terms[1:])
    return Ordinal._make(a.terms[:keep] + b.terms)


def ord_mul(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal product (order type of ``b`` many copies of ``a``).

    By left distributivity it is a * w^e * c = w^(lead + e) * c for each
    infinite term of ``b`` (lead being ``a``'s leading exponent), then
    ``a`` with its leading coefficient times ``b``'s finite part.  The
    exponents lead + e strictly decrease and stay above lead, so the terms
    concatenate into normal form.
    """
    a, b = Ordinal(a), Ordinal(b)
    if not a.terms or not b.terms:
        return ZERO
    lead, coeff = a.terms[0]
    terms = tuple((ord_add(lead, e), c) for e, c in b.terms if e)
    n = b.natural_part()
    if n:
        terms += ((lead, coeff * n),) + a.terms[1:]
    return Ordinal._make(terms)


def _pow_finite(a: Ordinal, n: int) -> Ordinal:
    """``a`` to a natural power, by squaring (powers of ``a`` commute)."""
    result = ONE
    base = a
    while n:
        if n & 1:
            result = ord_mul(result, base)
        base = ord_mul(base, base)
        n >>= 1
    return result


def _nat_pow(n: int, k: int) -> int:
    """``n ** k`` for a natural n >= 2, refused before it is computed when it
    would have more digits than the int-string limit, so it could not print.
    The float estimate of its log10 decides unless it lies within one of the
    limit, where ``n ** k`` is small enough to compare exactly; past
    k = 4 * limit, n ** k >= 16 ** limit is too long whatever n is."""
    limit = _int_max_str_digits()
    if limit:
        estimate = min(k, 4 * limit) * math.log10(n)
        if estimate >= limit + 1 or estimate > limit - 1 and n**k >= 10**limit:
            raise _too_long()
    return n**k


def _shift_down(exponent: Ordinal) -> Ordinal:
    """The unique f with 1 + f = exponent, for exponent >= 1."""
    if exponent.is_finite():
        return Ordinal(int(exponent) - 1)
    return exponent


def ord_pow(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal power by the usual recursion, evaluated in closed form.

    All results of +, * and ^ on representable ordinals stay below
    epsilon_0, so no overflow can occur for representable inputs.
    """
    a, b = Ordinal(a), Ordinal(b)
    if b.is_zero():
        return ONE
    if a.is_zero():
        return ZERO
    if a == ONE:
        return ONE
    limit, finite = b.limit_part(), b.natural_part()
    if a.is_finite():
        power = Ordinal(_nat_pow(int(a), finite))
        if limit.is_zero():
            return power
        # n^(w*q) = w^q: shift each exponent of the limit part down by one.
        shifted = tuple((_shift_down(e), c) for e, c in limit.terms)
        return ord_mul(omega_power(Ordinal._make(shifted)), power)
    if limit.is_zero():
        return _pow_finite(a, finite)
    head = omega_power(ord_mul(a.leading_exponent(), limit))
    return ord_mul(head, _pow_finite(a, finite))


def is_indecomposable(a: OrdinalLike) -> bool:
    """True iff ``a`` is a single CNF term with coefficient 1.

    Such ordinals are exactly the powers of w; additively they absorb every
    smaller summand.  By convention 1 = w^0 counts.
    """
    a = Ordinal(a)
    if a.is_zero():
        raise RangeError("zero is neither decomposable nor indecomposable here")
    return len(a.terms) == 1 and a.terms[0][1] == 1


def split_exponent(d: OrdinalLike) -> Tuple[Ordinal, int]:
    """Write d > 0 uniquely as gamma + r with gamma a limit or 1, r natural."""
    d = Ordinal(d)
    if d.is_zero():
        raise RangeError("cannot split zero")
    limit, finite = d.limit_part(), d.natural_part()
    if limit.is_zero():
        return ONE, finite - 1
    return limit, finite


# -- parsing -----------------------------------------------------------------


# The interpreter's own bound on decimal-to-int conversion (0 means none);
# Python before 3.10.7 has no bound and no getter.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _Parser:
    """A recursive-descent scanner over ``text``; subclasses add grammars."""

    error_type = OrdinalParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> InputFormatError:
        return self.error_type(f"{message} (at position {self.pos} in {self.text!r})")

    def parse(self, rule):
        """Run ``rule`` on this scanner and reject trailing input."""
        result = rule(self)
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return result

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.literal(token):
            raise self.error(f"expected {token!r}")

    def natural(self) -> int:
        """An ASCII digit run, no longer than the interpreter's int-string limit."""
        text, start = self.text, self.pos
        end = start
        while end < len(text) and "0" <= text[end] <= "9":
            end += 1
        if end == start:
            raise self.error("expected a number")
        limit = _int_max_str_digits()
        if limit and end - start > limit:
            raise self.error(f"number has more than {limit} digits")
        self.pos = end
        return int(text[start:end])

    def ordinal(self) -> Ordinal:
        terms = []
        while True:
            self.skip_ws()
            terms.append(self.term())
            self.skip_ws()
            if not self.literal("+"):
                break
        if len(terms) == 1 and terms[0] == (ZERO, 0):
            return ZERO
        result = []
        for exponent, coeff in terms:
            if coeff == 0:
                raise self.error("zero terms are only allowed as the whole ordinal")
            if result and ord_cmp(result[-1][0], exponent) != GT:
                raise self.error("non-canonical ordinal: exponents must strictly decrease")
            result.append((exponent, coeff))
        return Ordinal._make(tuple(result))

    def term(self) -> Tuple[Ordinal, int]:
        if self.literal("w"):
            exponent = ONE
            self.skip_ws()
            if self.literal("^"):
                self.skip_ws()
                if self.literal("("):
                    exponent = self.ordinal()
                    self.expect(")")
                elif "0" <= self.peek() <= "9":
                    exponent = Ordinal(self.natural())
                else:
                    raise self.error("expected '(' or digits after '^'")
            coeff = 1
            self.skip_ws()
            if self.literal("*"):
                self.skip_ws()
                coeff = self.natural()
                if coeff == 0:
                    raise self.error("coefficients must be positive")
            if exponent.is_zero():
                return ZERO, coeff
            return exponent, coeff
        if "0" <= self.peek() <= "9":
            return ZERO, self.natural()
        raise self.error("expected a term")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ordinal text grammar; rejects non-canonical input."""
    return _Parser(text).parse(_Parser.ordinal)

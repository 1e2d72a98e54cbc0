"""Finitely representable subsets of w^n and their copy calculus.

A subset of w^n is stored column-first: a dimension-n cube set is an
eventually periodic stream of dimension-(n-1) cube sets, given by a finite
``prefix`` and a nonempty ``cycle``; column ``i`` is ``prefix[i]`` for
``i < len(prefix)`` and ``cycle[(i - len(prefix)) % len(cycle)]`` beyond.
A dimension-0 cube set is a single bit (the one-point order is in or out).

A dimension-1 set, a subset of w, is four ints instead: a prefix mask, the
prefix length, a cycle mask and the cycle length, where bit ``i`` of a mask
is column ``i`` of its part.  Boolean operations are bitwise, cycles are
aligned by repeating masks with shifts, and order type, Fubini positivity,
membership, selection and rank are bit counts.  Its ``prefix`` and
``cycle`` are computed leaf tuples, built on each access and never stored.
Dimension-1 sets are interned in a bounded table, so a working set that
recurs holds one object per canonical form.

The class is closed under Boolean operations and supports exact queries:
lexicographic order type, membership in the n-fold Fubini power of the
finite ideal, canonical enumeration, and copy detection.  Construction
canonicalizes (minimal cycle, shortest prefix), so structural equality is
semantic equality and hashing is consistent.  The minimal cycle is found
prime by prime: for each prime p of the cycle length, divide the length by
p while the shorter cycle still repeats.

Two shortcuts are taken when a query runs, never at construction, and
what they keep dies with the call:

- A Boolean operation at dimension >= 2 aligns the column streams to the
  lcm of their periods, so with coprime periods the same pair of
  dimension-1 columns meets many times.  Each call keeps the result per
  pair of dimension-1 columns (keyed by value), as a BDD apply cache does;
  the complement keeps one per column.
- The order type of a subset of w^n is below w^(n+1), so it is summed on
  ``(int exponent, coefficient)`` terms.  The cycle adds w^(h+1), where the
  *height* h is the largest leading exponent among the cycle columns: for a
  column of dimension 1 it is 1 if infinite, 0 if finite and nonempty and
  -1 if empty, and at dimension >= 2 it is the largest of the prefix
  columns' heights and one more than the cycle's.

Selection and rank run on the same int terms, and an ``Ordinal`` is built
only at the public boundary.  A term list compares like the ordinal it
denotes under Python's list order (a proper prefix is smaller).

The (prefix, cycle) stream helpers below (``_canonical``, ``_column`` and
``_zip``) are the one implementation of that stream algebra for streams of
objects; ``_mask_canonical`` and ``_unroll`` are its form for bits.  The
layered sets of :mod:`ordcopies.layered` reuse the first for their column
streams and keep their index sets as dimension-1 cube sets, so layered
results are canonical in the same sense.

JSON schema: ``{"dim": n, "prefix": [child...], "cycle": [child...]}`` with
dimension-0 children serialized as ``0``/``1``.  Points are arrays of
naturals, most significant coordinate first.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, partial
from math import lcm
from typing import Iterable, Sequence, Tuple

from . import config
from .errors import CapError, DimensionError, RangeError, SchemaError
from .ordinals import (
    EQ,
    GT,
    LT,
    ONE,
    ZERO,
    Ordinal,
    OrdinalLike,
    omega_power,
    ord_cmp,
)

Point = Tuple[int, ...]


# -- eventually periodic streams: a finite prefix, then a cycle forever --------


@lru_cache(maxsize=None)
def _primes(n: int) -> Tuple[int, ...]:
    """The distinct prime factors of n, ascending, by trial division: the
    prime steps of the period search for a cycle of length n."""
    found = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        found.append(n)
    return tuple(found)


def _canonical(prefix, cycle):
    """Minimal cycle, then shortest prefix, of the same stream.

    The periods of a cyclic stream are closed under gcd, so the minimal one
    is found prime by prime: divide the length by p while the shorter cycle
    still repeats.  A cycle of length n takes one compare per prime of n
    that fails, plus one per prime factor it loses.
    """
    n = len(cycle)
    for p in _primes(n):
        while n % p == 0 and cycle[n // p : n] == cycle[: n - n // p]:
            n //= p
    cycle = cycle[:n]
    prefix = list(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = cycle[-1:] + cycle[:-1]
    return tuple(prefix), cycle


def _column(prefix, cycle, i):
    if i < len(prefix):
        return prefix[i]
    return cycle[(i - len(prefix)) % len(cycle)]


def _zip(prefix_a, cycle_a, prefix_b, cycle_b, op):
    """``op`` applied column by column to two streams: the (prefix, cycle)
    of the result, aligned to the lcm of the two periods."""
    explicit = max(len(prefix_a), len(prefix_b))
    n = explicit + lcm(len(cycle_a), len(cycle_b))
    cols = tuple(map(op, _first(prefix_a, cycle_a, n), _first(prefix_b, cycle_b, n)))
    return cols[:explicit], cols[explicit:]


def _first(prefix, cycle, n):
    """The first ``n`` columns of a stream, as an iterator."""
    return itertools.islice(itertools.chain(prefix, itertools.cycle(cycle)), n)


# -- the same streams over bits, as int masks (bit i is column i) --------------


def _ones(n: int) -> int:
    return (1 << n) - 1


def _mask(bits: Sequence) -> int:
    """The mask whose bit i is the truth of ``bits[i]``, in linear time."""
    return int("".join("1" if b else "0" for b in reversed(bits)) or "0", 2)


def _bits(mask: int, n: int) -> str:
    """The low ``n`` bits of ``mask`` as a string of 0s and 1s, bit 0 first."""
    return bin(mask | 1 << n)[:2:-1]


def _repeat(mask: int, width: int, total: int) -> int:
    """The ``width``-bit ``mask`` repeated over ``total`` bits, doubling the
    copies with each shift, then truncated."""
    while width < total:
        mask |= mask << width
        width *= 2
    return mask & _ones(total)


def _rotate(mask: int, n: int, k: int) -> int:
    """The ``n``-bit cycle ``mask`` read from position k: bit i of the
    result is bit (i + k) mod n."""
    k %= n
    return (mask >> k | mask << (n - k)) & _ones(n)


def _mask_canonical(pmask, plen, cmask, clen):
    """``_canonical`` for a stream of bits."""
    for p in _primes(clen):
        while clen % p == 0 and cmask >> clen // p == cmask & _ones(clen - clen // p):
            clen //= p
            cmask &= _ones(clen)
    # The cycle run backwards from column plen; the prefix columns past the
    # highest one that differs from it join the cycle, which turns by as many.
    shift = -plen % clen
    behind = _repeat(cmask, clen, plen + shift) >> shift
    keep = (pmask ^ behind).bit_length()
    return pmask & _ones(keep), keep, _rotate(cmask, clen, keep - plen), clen


def _unroll(a: "CubeSet", explicit: int, period: int) -> Tuple[int, int]:
    """The dimension-1 set ``a`` as an ``explicit``-bit prefix mask and a
    ``period``-bit cycle mask; ``period`` is a multiple of its cycle length."""
    stream = a._prefix | _repeat(a._cycle, a._clen, explicit + period - a._plen) << a._plen
    return stream & _ones(explicit), stream >> explicit


def _nth_bit(mask: int, n: int) -> int:
    """The position of the n-th set bit of ``mask``, counting from 0."""
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & _ones(mid)).bit_count() > n:
            hi = mid
        else:
            lo = mid
    return lo


def _leaf_mask(leaves: Sequence["CubeSet"]) -> int:
    return _mask([leaf.bit for leaf in leaves])


class CubeSet:
    """An eventually periodic subset of w^dim.  Immutable and canonical.

    ``_prefix``/``_cycle`` hold the child tuples, or the masks at dimension
    1; ``_plen``/``_clen`` are their lengths.
    """

    __slots__ = ("dim", "bit", "_prefix", "_plen", "_cycle", "_clen")

    def __init__(self, *args, **kwargs):
        raise TypeError("use CubeSet.leaf or CubeSet.node")

    @classmethod
    def _raw(cls, dim, bit, prefix, plen, cycle, clen) -> "CubeSet":
        self = object.__new__(cls)
        self.dim = dim
        self.bit = bit
        self._prefix = prefix
        self._plen = plen
        self._cycle = cycle
        self._clen = clen
        return self

    @classmethod
    def _masks(cls, pmask: int, plen: int, cmask: int, clen: int) -> "CubeSet":
        """The dimension-1 set with these masks (clen >= 1), canonicalized."""
        return _interned(*_mask_canonical(pmask, plen, cmask, clen))

    @classmethod
    def leaf(cls, bit) -> "CubeSet":
        return _LEAF_TRUE if bit else _LEAF_FALSE

    @classmethod
    def node(cls, prefix: Iterable["CubeSet"], cycle: Iterable["CubeSet"]) -> "CubeSet":
        prefix = tuple(prefix)
        cycle = tuple(cycle)
        if not cycle:
            raise SchemaError("cycle must be nonempty")
        dims = {child.dim if isinstance(child, CubeSet) else None for child in prefix + cycle}
        if None in dims:
            raise SchemaError("cube-set children must be cube sets")
        if len(dims) > 1:
            raise DimensionError("all children must share a dimension")
        dim = cycle[0].dim + 1
        cap = config.dim_cap()
        if dim > cap:
            raise CapError(f"dimension {dim} exceeds the cap {cap}")
        if dim == 1:
            return cls._masks(_leaf_mask(prefix), len(prefix), _leaf_mask(cycle), len(cycle))
        return _node(dim, prefix, cycle)

    @property
    def prefix(self) -> Tuple["CubeSet", ...]:
        if self.dim == 1:
            return _leaves(self._prefix, self._plen)
        return self._prefix

    @property
    def cycle(self) -> Tuple["CubeSet", ...]:
        if self.dim == 1:
            return _leaves(self._cycle, self._clen)
        return self._cycle

    def column(self, i: int) -> "CubeSet":
        if self.dim == 0:
            raise DimensionError("a dimension-0 set has no columns")
        if self.dim == 1:
            if i < self._plen:
                return CubeSet.leaf(self._prefix >> i & 1)
            return CubeSet.leaf(self._cycle >> (i - self._plen) % self._clen & 1)
        return _column(self._prefix, self._cycle, i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubeSet):
            return NotImplemented
        if self is other:
            return True
        return (
            self.dim == other.dim
            and self.bit == other.bit
            and self._plen == other._plen
            and self._clen == other._clen
            and self._prefix == other._prefix
            and self._cycle == other._cycle
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.bit, self._prefix, self._plen, self._cycle, self._clen))

    def __repr__(self) -> str:
        if self.dim == 0:
            return f"CubeSet.leaf({int(self.bit)})"
        return f"<CubeSet dim={self.dim} prefix={self._plen} cycle={self._clen}>"

    def __or__(self, other):
        return cs_union(self, other)

    def __and__(self, other):
        return cs_inter(self, other)

    def __sub__(self, other):
        return cs_diff(self, other)

    def __invert__(self):
        return cs_complement(self)


@lru_cache(maxsize=4096)
def _interned(pmask: int, plen: int, cmask: int, clen: int) -> CubeSet:
    """The one live dimension-1 set per recent canonical form."""
    return CubeSet._raw(1, None, pmask, plen, cmask, clen)


_LEAF_FALSE = CubeSet._raw(0, False, (), 0, (), 0)
_LEAF_TRUE = CubeSet._raw(0, True, (), 0, (), 0)


def _leaves(mask: int, n: int) -> Tuple[CubeSet, ...]:
    return tuple(CubeSet.leaf(d == "1") for d in _bits(mask, n))


@lru_cache(maxsize=None)
def cs_empty(dim: int) -> CubeSet:
    if dim == 0:
        return _LEAF_FALSE
    return CubeSet.node((), (cs_empty(dim - 1),))


@lru_cache(maxsize=None)
def cs_full(dim: int) -> CubeSet:
    if dim == 0:
        return _LEAF_TRUE
    return CubeSet.node((), (cs_full(dim - 1),))


def cs_is_empty(a: CubeSet) -> bool:
    return a == cs_empty(a.dim)


def cs_is_full(a: CubeSet) -> bool:
    return a == cs_full(a.dim)


def _check_point(a: CubeSet, point: Sequence[int]) -> Point:
    point = tuple(point)
    if len(point) != a.dim:
        raise DimensionError(f"point of length {len(point)} in a dimension-{a.dim} set")
    for coord in point:
        if not isinstance(coord, int) or isinstance(coord, bool) or coord < 0:
            raise RangeError(f"coordinates must be naturals, got {coord!r}")
    return point


def cs_member(a: CubeSet, point: Sequence[int]) -> bool:
    """Membership under the column decomposition."""
    point = _check_point(a, point)
    while point:
        a = a.column(point[0])
        point = point[1:]
    return bool(a.bit)


def _same_dim(a: CubeSet, b: CubeSet) -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _lift(bit_op):
    """The cube-set operation that applies ``bit_op`` point by point;
    ``bit_op`` is bitwise, so at dimension 1 it applies to the masks."""

    def op(a: CubeSet, b: CubeSet) -> CubeSet:
        _same_dim(a, b)
        if a.dim == 0:
            return CubeSet.leaf(bit_op(a.bit, b.bit))
        if a.dim == 1:
            return _bitwise(bit_op, a, b)
        return _apply(bit_op, {}, a, b)

    return op


def _bitwise(bit_op, a: CubeSet, b: CubeSet) -> CubeSet:
    """``bit_op`` on two dimension-1 sets, on their masks aligned to the lcm."""
    explicit = max(a._plen, b._plen)
    period = lcm(a._clen, b._clen)
    (pa, ca), (pb, cb) = _unroll(a, explicit, period), _unroll(b, explicit, period)
    return CubeSet._masks(bit_op(pa, pb), explicit, bit_op(ca, cb), period)


def _apply(bit_op, memo: dict, a: CubeSet, b: CubeSet) -> CubeSet:
    """``bit_op`` lifted to two sets of one dimension >= 1.  ``memo`` maps
    each pair of dimension-1 columns met during one top-level call to its
    result, as a BDD apply cache does: aligned coprime cycles meet the same
    column pairs many times.  The column op is a partial, not a closure that
    calls itself, so the memo dies with the call and leaves no cycle."""
    if a.dim == 1:
        key = a._prefix, a._plen, a._cycle, a._clen, b._prefix, b._plen, b._cycle, b._clen
        result = memo.get(key)
        if result is None:
            result = memo[key] = _bitwise(bit_op, a, b)
        return result
    col_op = partial(_apply, bit_op, memo)
    return _node(a.dim, *_zip(a._prefix, a._cycle, b._prefix, b._cycle, col_op))


def _node(dim: int, prefix: tuple, cycle: tuple) -> CubeSet:
    """The dimension-``dim`` set (dim >= 2) with these columns, which are
    cube sets of dimension dim - 1 already: canonicalized, not rechecked."""
    prefix, cycle = _canonical(prefix, cycle)
    return CubeSet._raw(dim, None, prefix, len(prefix), cycle, len(cycle))


def _and_not(x, y):
    """x and not y, bitwise; bools stay bools and masks stay nonnegative."""
    return x & (x ^ y)


cs_union = _lift(operator.or_)
cs_inter = _lift(operator.and_)
cs_diff = _lift(_and_not)


def _flip(a: CubeSet) -> CubeSet:
    """The complement of a dimension-1 set; complementing every bit keeps
    the stream canonical."""
    return _interned(a._prefix ^ _ones(a._plen), a._plen, a._cycle ^ _ones(a._clen), a._clen)


def cs_complement(a: CubeSet) -> CubeSet:
    if a.dim == 0:
        return CubeSet.leaf(not a.bit)
    if a.dim == 1:
        return _flip(a)
    return _complement({}, a)


def _complement(memo: dict, a: CubeSet) -> CubeSet:
    """The complement of a set of dimension >= 1; ``memo`` maps each
    dimension-1 column met during one top-level call to its complement."""
    if a.dim == 1:
        key = a._prefix, a._plen, a._cycle, a._clen
        result = memo.get(key)
        if result is None:
            result = memo[key] = _flip(a)
        return result
    op = partial(_complement, memo)
    return _node(a.dim, tuple(map(op, a._prefix)), tuple(map(op, a._cycle)))


def cs_bool(op: str, a: CubeSet, b: CubeSet = None) -> CubeSet:
    """Boolean combination; ``op`` is union, inter, diff or complement."""
    if op == "complement":
        if b is not None:
            raise DimensionError("complement takes a single operand")
        return cs_complement(a)
    if b is None:
        raise DimensionError(f"{op} needs two operands")
    try:
        fn = {"union": cs_union, "inter": cs_inter, "diff": cs_diff}[op]
    except KeyError:
        raise SchemaError(f"unknown Boolean operation {op!r}") from None
    return fn(a, b)


def cs_order_type(a: CubeSet) -> Ordinal:
    """The order type of the set under the lexicographic order.

    Column types are summed in order.  The periodic part contributes the
    limit of repeated block sums: for block sum c > 0 with leading exponent
    e this is w^(e+1).  At dimension 1 that is w for a nonempty cycle and
    the number of members otherwise.  The sum runs on int terms, by height.
    """
    if a.dim == 0:
        return ONE if a.bit else ZERO
    return _ordinal(_type_terms(a))


def _ordinal(terms: list) -> Ordinal:
    """The ``Ordinal`` of a list of ``(int exponent, coefficient)`` terms."""
    return Ordinal._make(tuple((Ordinal(e), c) for e, c in terms))


def _type_terms(a: CubeSet) -> list:
    """The order type of a set of dimension >= 1 as CNF terms
    ``(int exponent, coefficient)``, leading term first."""
    if a.dim == 1:
        if a._cycle:
            return [(1, 1)]
        count = a._prefix.bit_count()
        return [(0, count)] if count else []
    total = _sum_terms(a._prefix)
    top = _cycle_height(a)
    if top >= 0:
        _add_terms(total, [(top + 1, 1)])
    return total


def _sum_terms(cols) -> list:
    """The order types of ``cols`` (dimension >= 1) summed, as CNF terms."""
    total = []
    for col in cols:
        _add_terms(total, _type_terms(col))
    return total


def _add_terms(total: list, terms: list) -> None:
    """``total += terms`` in CNF, in place: the terms of ``total`` below the
    leading exponent of ``terms`` are absorbed."""
    if not terms:
        return
    lead, coeff = terms[0]
    while total and total[-1][0] < lead:
        total.pop()
    if total and total[-1][0] == lead:
        total[-1] = (lead, total[-1][1] + coeff)
        terms = terms[1:]
    total.extend(terms)


def _minus(t: list, xi: list) -> list:
    """The unique x with t + x = xi, for CNF terms t <= xi: x absorbs the
    terms of ``t`` from the first that differs from ``xi``."""
    for i, ((et, ct), (ex, cx)) in enumerate(zip(t, xi)):
        if et != ex:
            return xi[i:]
        if ct != cx:
            return [(ex, cx - ct), *xi[i + 1 :]]
    return xi[len(t) :]


def _height(a: CubeSet) -> int:
    """The leading exponent of the order type of a set of dimension >= 1,
    or -1 for the empty set."""
    if a.dim == 1:
        return 1 if a._cycle else 0 if a._prefix else -1
    top = _cycle_height(a)
    return max([top + 1 if top >= 0 else -1, *map(_height, a._prefix)])


def _cycle_height(a: CubeSet) -> int:
    """The largest height among the cycle columns of a set of dimension >= 2;
    the scan stops at the largest possible, dim - 1."""
    top = -1
    for col in a._cycle:
        h = _height(col)
        if h > top:
            top = h
            if top == a.dim - 1:
                break
    return top


def cs_fubini_positive(a: CubeSet) -> bool:
    """True iff the set is positive for the n-fold Fubini power of Fin.

    Positivity asks for cofinally many positive columns, which for an
    eventually periodic stream means a positive column inside the cycle.
    At dimension 0 the single point must be present; at dimension 1 this is
    plain infinitude.
    """
    if a.dim == 0:
        return bool(a.bit)
    if a.dim == 1:
        return a._cycle != 0
    return any(cs_fubini_positive(col) for col in a._cycle)


def _whole_blocks(block: list, xi: list) -> int:
    """Largest q with block * q <= xi on CNF terms (finite: xi < block * w).

    With block = w^e*c + r and xi = w^e*d + s (r, s < w^e), block * q is
    w^e*(c*q) + r for q >= 1, so q = d // c, less one when c*q == d and r > s.
    """
    (e, c), r = block[0], block[1:]
    d, s = 0, xi
    if xi and xi[0][0] == e:
        d, s = xi[0][1], xi[1:]
    q = d // c
    if q and c * q == d and r > s:
        q -= 1
    return q


def _select(a: CubeSet, xi: list) -> Point:
    """The xi-th member, for CNF terms xi below the set's type."""
    if a.dim == 0:
        return ()
    if a.dim == 1:
        n = xi[0][1] if xi else 0
        before = a._prefix.bit_count()
        if n < before:
            return (_nth_bit(a._prefix, n),)
        whole, n = divmod(n - before, a._cycle.bit_count())
        return (a._plen + whole * a._clen + _nth_bit(a._cycle, n),)
    for i, col in enumerate(a._prefix):
        t = _type_terms(col)
        if xi < t:
            return (i,) + _select(col, xi)
        xi = _minus(t, xi)
    block = _sum_terms(a._cycle)
    skipped = _whole_blocks(block, xi)
    if skipped:
        (e, c), *rest = block
        xi = _minus([(e, c * skipped), *rest], xi)
    base = a._plen + skipped * a._clen
    for j, col in enumerate(a._cycle):
        t = _type_terms(col)
        if xi < t:
            return (base + j,) + _select(col, xi)
        xi = _minus(t, xi)
    raise AssertionError("selection walked past its bound")


def cs_select(a: CubeSet, xi: OrdinalLike) -> Point:
    """The xi-th element of the set in lexicographic order.

    The map xi -> cs_select(a, xi) is the canonical isomorphism from the
    order type onto the set.
    """
    xi = Ordinal(xi)
    if ord_cmp(xi, cs_order_type(a)) != LT:
        raise RangeError(f"index {xi} is not below the order type")
    # xi is below w^(dim+1), so its exponents are natural numbers.
    return _select(a, [(int(e), c) for e, c in xi.terms])


def cs_rank(a: CubeSet, point: Sequence[int]) -> Ordinal:
    """Position of a member in the enumeration; inverse of cs_select."""
    point = _check_point(a, point)
    if not cs_member(a, point):
        raise RangeError(f"point {point} is not a member")
    return _ordinal(_rank(a, point))


def _rank(a: CubeSet, point: Point) -> list:
    """The position of a member, as CNF terms."""
    if a.dim == 0:
        return []
    i = point[0]
    if a.dim == 1:
        if i < a._plen:
            n = (a._prefix & _ones(i)).bit_count()
        else:
            whole, partial = divmod(i - a._plen, a._clen)
            n = a._prefix.bit_count() + whole * a._cycle.bit_count()
            n += (a._cycle & _ones(partial)).bit_count()
        return [(0, n)] if n else []
    total = _sum_terms(a._prefix[:i])
    if i > a._plen:
        whole, partial = divmod(i - a._plen, a._clen)
        if whole:
            (e, c), *rest = _sum_terms(a._cycle)
            _add_terms(total, [(e, c * whole), *rest])
        _add_terms(total, _sum_terms(a._cycle[:partial]))
    _add_terms(total, _rank(a.column(i), point[1:]))
    return total


def point_to_ord(point: Sequence[int]) -> Ordinal:
    """Order-preserving code of a point: w^(n-1)*p_1 + ... + p_n."""
    point = tuple(point)
    n = len(point)
    terms = []
    for j, coord in enumerate(point):
        if not isinstance(coord, int) or isinstance(coord, bool) or coord < 0:
            raise RangeError(f"coordinates must be naturals, got {coord!r}")
        if coord:
            terms.append((Ordinal(n - 1 - j), coord))
    return Ordinal.from_terms(terms)


def ord_to_point(n: int, xi: OrdinalLike) -> Point:
    """Inverse of point_to_ord inside w^n."""
    xi = Ordinal(xi)
    if ord_cmp(xi, omega_power(n)) != LT:
        raise RangeError(f"{xi} is not below w^({n})")
    coords = [0] * n
    for exponent, coeff in xi.terms:
        coords[n - 1 - int(exponent)] = coeff
    return tuple(coords)


def initial_segment(n: int, alpha: OrdinalLike) -> CubeSet:
    """The points of w^n whose code is below alpha, for alpha <= w^n."""
    alpha = Ordinal(alpha)
    cmp_full = ord_cmp(alpha, omega_power(n))
    if cmp_full == GT:
        raise RangeError(f"{alpha} exceeds the ambient w^({n})")
    if n == 0:
        return CubeSet.leaf(alpha == ONE)
    if cmp_full == EQ:
        return cs_full(n)
    if n == 1:
        return CubeSet._masks(_ones(int(alpha)), int(alpha), 0, 1)
    whole = 0
    rest = alpha
    if alpha.terms and alpha.terms[0][0] == Ordinal(n - 1):
        whole = alpha.terms[0][1]
        rest = Ordinal._make(alpha.terms[1:])
    prefix = [cs_full(n - 1)] * whole
    if not rest.is_zero():
        prefix.append(initial_segment(n - 1, rest))
    return CubeSet.node(prefix, (cs_empty(n - 1),))


def cs_is_copy(a: CubeSet, alpha: OrdinalLike) -> bool:
    """True iff the part of the set inside the coded segment of alpha has
    order type exactly alpha, i.e. is a copy of alpha."""
    alpha = Ordinal(alpha)
    if ord_cmp(alpha, omega_power(a.dim)) == GT:
        raise RangeError(f"{alpha} exceeds the ambient w^({a.dim})")
    inside = cs_inter(a, initial_segment(a.dim, alpha))
    return cs_order_type(inside) == alpha


def cs_product(a: CubeSet, b: CubeSet) -> CubeSet:
    """Concatenation product: pairs (p, q) with p in a, q in b.

    The lexicographic order on the concatenated coordinates is the
    lexicographic order on pairs, so the order type realizes the ordinal
    product cs_order_type(b) * cs_order_type(a) ... with the first factor
    ranging slowest.
    """
    if a.dim == 0:
        return b if a.bit else cs_empty(b.dim)
    return CubeSet.node(
        (cs_product(c, b) for c in a.prefix), (cs_product(c, b) for c in a.cycle)
    )


# -- JSON --------------------------------------------------------------------


def cube_to_json(a: CubeSet):
    if a.dim == 0:
        return int(a.bit)
    if a.dim == 1:
        return {
            "dim": 1,
            "prefix": list(map(int, _bits(a._prefix, a._plen))),
            "cycle": list(map(int, _bits(a._cycle, a._clen))),
        }
    return {
        "dim": a.dim,
        "prefix": [cube_to_json(c) for c in a._prefix],
        "cycle": [cube_to_json(c) for c in a._cycle],
    }


def _json_mask(items: list):
    """The mask of a list of dimension-0 children, or None when one is not
    a plain integer (then each child is read on its own)."""
    if not all(type(c) is int for c in items):
        return None
    for c in items:
        if c not in (0, 1):
            raise SchemaError(f"dimension-0 sets are 0 or 1, got {c}")
    return _mask(items)


def cube_from_json(obj) -> CubeSet:
    if isinstance(obj, bool):
        raise SchemaError("dimension-0 sets are 0 or 1, not booleans")
    if isinstance(obj, int):
        if obj not in (0, 1):
            raise SchemaError(f"dimension-0 sets are 0 or 1, got {obj}")
        return CubeSet.leaf(obj)
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a cube-set object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        prefix = obj["prefix"]
        cycle = obj["cycle"]
    except KeyError as missing:
        raise SchemaError(f"cube-set object lacks key {missing}") from None
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(prefix, list) or not isinstance(cycle, list):
        raise SchemaError("prefix and cycle must be arrays")
    pmask = _json_mask(prefix)
    cmask = None if pmask is None else _json_mask(cycle)
    if cmask is None:
        result = CubeSet.node(map(cube_from_json, prefix), map(cube_from_json, cycle))
    elif not cycle:
        raise SchemaError("cycle must be nonempty")
    else:
        result = CubeSet._masks(pmask, len(prefix), cmask, len(cycle))
    if result.dim != dim:
        raise DimensionError(f"declared dim {dim} but children have dim {result.dim - 1}")
    return result

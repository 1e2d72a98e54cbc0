"""Layered sets: subsets of the tower L = L_0 + L_1 + ... with L_n = w^(n+1).

A layered set stores a finite ``prefix`` of explicit columns followed by a
cyclic ``tail`` pattern.  Column n is either a cube set of dimension n+1 or
one of the two dimension-free uniform values empty/full (plain booleans
internally).  The tail is a nonempty cyclic tuple of such booleans, so a set
can be uniformly empty or full beyond its prefix ("empty"/"full") or follow
a periodic empty/full pattern (needed to close the fusion operation under
periodic index sets).

Layered sets are canonical: construction and every Boolean operation turn
an empty or full cube column into the matching flag (printed as
"empty"/"full") and then take the minimal tail and the shortest prefix with
the stream helpers of :mod:`ordcopies.cubesets`.  Equal sets are therefore
equal values with equal hashes and the same JSON.

Level sets S^m (columns whose order type reaches w^(m+1)) and supports are
exact; S^m is computed by height, the leading exponent of a column's type.
They are finite or cofinite whenever the tail is uniform and are returned
as :class:`FinCof`; for properly periodic tails the exact answer is
returned as a dimension-1 cube set instead.

Almost-inclusion is read off the tails.  Every S^m, and the support, agrees
with the set of the tail's full columns from some column on: the prefix
has finitely many columns, and a full column n lies in S^m iff n >= m.  So
``s ⊆* S^m`` (s minus S^m finite) has one answer for every m, and whether
a - b lies in the ideal depends on the two tails alone.

JSON schema: ``{"prefix": [column...], "tail": "empty"|"full"}`` where a
column is a cube-set object of dimension n+1 or the strings "empty"/"full";
a cyclic tail may be given as a list of those strings.  FinCof values are
``{"kind": "finite"|"cofinite", "exceptions": [...]}``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from . import config
from .errors import (
    CapError,
    DimensionError,
    FusionPreconditionError,
    IdealError,
    RangeError,
    SchemaError,
)
from .cubesets import (
    CubeSet,
    _add_terms,
    _and_not,
    _bits,
    _canonical,
    _column,
    _height,
    _lift,
    _mask,
    _ones,
    _ordinal,
    _type_terms,
    _unroll,
    _zip,
    cs_complement,
    cs_diff,
    cs_fubini_positive,
    cs_inter,
    cs_is_empty,
    cs_is_full,
    cube_from_json,
    cube_to_json,
)
from .ordinals import OMEGA_OMEGA, Ordinal

Column = Union[CubeSet, bool]


# -- finite/cofinite subsets of w ---------------------------------------------


def _natural(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SchemaError(f"exceptions must be naturals, got {n!r}")
    return n


@dataclass(frozen=True)
class FinCof:
    """A finite or cofinite subset of the naturals.

    ``exceptions`` lists the members for the finite kind and the missing
    elements for the cofinite kind, matching the wire format.  Set algebra
    runs on :meth:`to_natset`, a dimension-1 cube set.
    """

    kind: str
    exceptions: frozenset

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise SchemaError(f"kind must be finite or cofinite, got {self.kind!r}")
        # Each exception is checked before it is hashed into the set.
        object.__setattr__(self, "exceptions", frozenset(map(_natural, self.exceptions)))

    @classmethod
    def finite(cls, members: Iterable[int] = ()) -> "FinCof":
        return cls("finite", frozenset(members))

    @classmethod
    def cofinite(cls, missing: Iterable[int] = ()) -> "FinCof":
        return cls("cofinite", frozenset(missing))

    def __contains__(self, n: int) -> bool:
        return (n in self.exceptions) == (self.kind == "finite")

    def to_natset(self) -> CubeSet:
        bound = max(self.exceptions, default=-1) + 1
        listed = bytearray(-(-bound // 8))
        for n in self.exceptions:
            listed[n >> 3] |= 1 << (n & 7)
        mask = int.from_bytes(listed, "little")
        if self.kind == "finite":
            return CubeSet._masks(mask, bound, 0, 1)
        return CubeSet._masks(_ones(bound) ^ mask, bound, 1, 1)

    def to_json(self):
        return {"kind": self.kind, "exceptions": sorted(self.exceptions)}

    @classmethod
    def from_json(cls, obj) -> "FinCof":
        if not isinstance(obj, dict) or set(obj) != {"kind", "exceptions"}:
            raise SchemaError("expected {kind, exceptions}")
        if not isinstance(obj["exceptions"], list):
            raise SchemaError("exceptions must be an array")
        return cls(obj["kind"], obj["exceptions"])


# -- eventually periodic subsets of w, as dimension-1 cube sets ---------------


def natset(prefix_bits: Iterable[bool], cycle_bits: Iterable[bool] = (False,)) -> CubeSet:
    """Build a dimension-1 cube set from bit patterns."""
    prefix_bits, cycle_bits = tuple(prefix_bits), tuple(cycle_bits)
    if not cycle_bits:
        raise SchemaError("cycle must be nonempty")
    return CubeSet._masks(_mask(prefix_bits), len(prefix_bits), _mask(cycle_bits), len(cycle_bits))


def _members(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i, d in enumerate(bin(mask)[:1:-1]) if d == "1"]


def as_natset(s: Union[FinCof, CubeSet]) -> CubeSet:
    if isinstance(s, FinCof):
        return s.to_natset()
    if isinstance(s, CubeSet):
        if s.dim != 1:
            raise DimensionError("an index set must have dimension 1")
        return s
    raise SchemaError(f"not an index set: {type(s).__name__}")


def natset_to_fincof(s: CubeSet) -> Optional[FinCof]:
    """Exact conversion when the set is finite or cofinite, else None."""
    if s._cycle == 0:
        return FinCof.finite(_members(s._prefix))
    if s._cycle == _ones(s._clen):
        return FinCof.cofinite(_members(s._prefix ^ _ones(s._plen)))
    return None


# -- layered sets --------------------------------------------------------------


def _check_prefix_cap(length: int) -> None:
    if length > config.prefix_cap():
        raise CapError(f"prefix length {length} exceeds the cap {config.prefix_cap()}")


def _as_flag(value) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if value == "empty":
        return False
    if value == "full":
        return True
    return None


class LayeredSet:
    """A subset of the layer tower; immutable and canonical."""

    __slots__ = ("prefix", "tail")

    def __init__(self, *args, **kwargs):
        raise TypeError("use LayeredSet.make")

    @classmethod
    def _raw(cls, prefix, tail) -> "LayeredSet":
        # Trusted constructor: the stream must already be canonical.  It is
        # where every layered value, input or result, meets the prefix cap.
        _check_prefix_cap(len(prefix))
        self = object.__new__(cls)
        self.prefix = prefix
        self.tail = tail
        return self

    @classmethod
    def make(cls, prefix: Sequence = (), tail="empty") -> "LayeredSet":
        flag = _as_flag(tail)
        if flag is not None:
            tail = (flag,)
        else:
            tail = tuple(_as_flag(t) for t in tail)
            if not tail or any(t is None for t in tail):
                raise SchemaError("tail must be empty/full or a pattern of them")
        cols: List[Column] = []
        for n, col in enumerate(prefix):
            if isinstance(col, CubeSet):
                if col.dim != n + 1:
                    raise DimensionError(f"column {n} must have dimension {n + 1}, got {col.dim}")
                col = _as_column(col)
            else:
                col = _as_flag(col)
                if col is None:
                    raise SchemaError(f"column {n} is not a cube set or empty/full")
            cols.append(col)
        return cls._raw(*_canonical(cols, tail))

    @classmethod
    def empty(cls) -> "LayeredSet":
        return cls.make((), "empty")

    @classmethod
    def full(cls) -> "LayeredSet":
        return cls.make((), "full")

    def column(self, n: int) -> Column:
        return _column(self.prefix, self.tail, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredSet):
            return NotImplemented
        return self.prefix == other.prefix and self.tail == other.tail

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __repr__(self) -> str:
        return f"<LayeredSet prefix={len(self.prefix)} tail={self.tail}>"


# -- column algebra (never materializes a flag as a cube set) ------------------


def _as_column(col: CubeSet) -> Column:
    """The empty and full cube sets become the flags False and True."""
    if cs_is_empty(col):
        return False
    if cs_is_full(col):
        return True
    return col


def _against_flag(if_out: bool, if_in: bool, col: CubeSet) -> Column:
    """The column that is ``if_in`` on the points of ``col``, ``if_out`` off them."""
    if if_in == if_out:
        return if_in
    return col if if_in else cs_complement(col)


def _combine(a: LayeredSet, b: LayeredSet, bit_op) -> LayeredSet:
    """``bit_op`` applied point by point.  A flag column is a constant set,
    so against it the result is a constant, the other column or its
    complement."""
    cube_op = _lift(bit_op)

    def col_op(x: Column, y: Column) -> Column:
        if isinstance(x, bool):
            if isinstance(y, bool):
                return bit_op(x, y)
            return _against_flag(bit_op(x, False), bit_op(x, True), y)
        if isinstance(y, bool):
            return _against_flag(bit_op(False, y), bit_op(True, y), x)
        return _as_column(cube_op(x, y))

    return LayeredSet._raw(*_canonical(*_zip(a.prefix, a.tail, b.prefix, b.tail, col_op)))


def ls_union(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b, operator.or_)


def ls_inter(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b, operator.and_)


def ls_diff(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b, _and_not)


# -- level sets, support, ideal membership -------------------------------------


def s_set_natset(a: LayeredSet, m: int) -> CubeSet:
    """Exact S^m as a dimension-1 cube set: columns of type >= w^(m+1),
    so of height > m.  A full column n is w^(n+1), so full flags and the
    tail lose the naturals below m: the stream is unrolled past column m
    and its low m bits cleared."""
    if m < 0:
        raise RangeError("the level must be a natural number")
    s = natset([col if isinstance(col, bool) else _height(col) > m for col in a.prefix], a.tail)
    explicit = max(s._plen, m)
    pmask, cmask = _unroll(s, explicit, s._clen)
    return CubeSet._masks(pmask >> m << m, explicit, cmask, s._clen)


def supp_natset(a: LayeredSet) -> CubeSet:
    """Exact support as a dimension-1 cube set; canonical cube columns are nonempty."""
    return natset([col is not False for col in a.prefix], a.tail)


def ls_s_set(a: LayeredSet, m: int) -> Union[FinCof, CubeSet]:
    """S^m, as a FinCof when finite or cofinite (always so for uniform
    tails), otherwise as the exact dimension-1 cube set."""
    s = s_set_natset(a, m)
    fincof = natset_to_fincof(s)
    return s if fincof is None else fincof


def ls_supp(a: LayeredSet) -> Union[FinCof, CubeSet]:
    """The set of layer indices the set meets; FinCof when possible."""
    s = supp_natset(a)
    fincof = natset_to_fincof(s)
    return s if fincof is None else fincof


def ls_in_ideal(a: LayeredSet) -> bool:
    """True iff the set fails to contain a copy of the whole tower.

    That is iff some S^m is empty, and the tail decides it: a full tail
    column recurs cofinally, putting a full layer w^(n+1) in every S^m,
    while an all-empty tail leaves the set inside finitely many layers.
    """
    return not any(a.tail)


def ls_subset_ideal(a: LayeredSet, b: LayeredSet) -> bool:
    """Inclusion modulo the ideal: the difference a - b lies in the ideal.

    The tails decide it.  Tail position x of ``a`` recurs at the columns
    ``len(a.prefix) + x`` mod ``len(a.tail)``, and tail position y of ``b``
    at ``len(b.prefix) + y`` mod ``len(b.tail)``; by the Chinese remainder
    theorem the two share infinitely many columns iff those starts agree
    mod g, the gcd of the tail lengths.  So a - b has a full tail column,
    and leaves the ideal, iff a full position of ``a.tail`` shares its
    residue mod g with an empty position of ``b.tail``.
    """
    g = math.gcd(len(a.tail), len(b.tail))
    full = {(len(a.prefix) + x) % g for x, bit in enumerate(a.tail) if bit}
    return not any((len(b.prefix) + y) % g in full for y, bit in enumerate(b.tail) if not bit)


def ls_order_type(a: LayeredSet) -> Ordinal:
    """Order type of the set: the column types summed along the tower.

    Any full tail column pattern contributes cofinally many columns of
    unbounded type, so the total collapses to w^w (x + w^w = w^w for x <
    w^w); otherwise the prefix sum remains, summed on int CNF terms.
    """
    if any(a.tail):
        return OMEGA_OMEGA
    total = []
    for n, col in enumerate(a.prefix):
        if col is True:
            _add_terms(total, [(n + 1, 1)])
        elif col is not False:
            _add_terms(total, _type_terms(col))
    return _ordinal(total)


# -- reductions and fusion ------------------------------------------------------


def ls_is_reduction(s: Union[FinCof, CubeSet], a: LayeredSet, m_max: int) -> bool:
    """Truncated reduction test: s is almost contained in S^m for m <= m_max.

    Each S^m differs from the support only in finitely many columns (the
    tail's full columns from some column on make up both), so one test
    against the support answers for every level, and the truncated test is
    exact for represented sets.
    """
    if ls_in_ideal(a):
        raise IdealError("reduction is only defined against a positive set")
    index = as_natset(s)
    return m_max < 0 or not cs_fubini_positive(cs_diff(index, supp_natset(a)))


def ls_fusion(a_list: Sequence[LayeredSet], s: Union[FinCof, CubeSet]) -> LayeredSet:
    """The fused set: the last input restricted to the surviving columns.

    With r the last index, the surviving columns are the members of s that
    lie in every S^m of every input for m, n <= r; as S^0 ⊇ S^1 ⊇ ... ⊇ S^r,
    that is every S^r.  Preconditions: every input is positive, s is
    infinite, and s is almost contained in every such S^m; violations name
    the failing (m, n).
    """
    if not a_list:
        raise RangeError("fusion needs at least one layered set")
    r = len(a_list) - 1
    index = as_natset(s)
    if not cs_fubini_positive(index):
        raise IdealError("fusion requires an infinite index set")
    surviving = index
    for n, a in enumerate(a_list):
        if ls_in_ideal(a):
            raise FusionPreconditionError(f"input {n} lies in the ideal", n=n)
        s_r = s_set_natset(a, r)
        # Every S^m agrees with the tail's full columns from some column
        # on, so s is almost inside all of S^0 ... S^r or inside none of
        # them: the first failing level is always 0.
        if cs_fubini_positive(cs_diff(index, s_r)):
            raise FusionPreconditionError(
                f"index set is not almost contained in S^0 of input {n}", m=0, n=n
            )
        surviving = cs_inter(surviving, s_r)
    _check_prefix_cap(surviving._plen)
    as_flags = LayeredSet._raw(
        tuple(d == "1" for d in _bits(surviving._prefix, surviving._plen)),
        tuple(d == "1" for d in _bits(surviving._cycle, surviving._clen)),
    )
    return ls_inter(a_list[r], as_flags)


# -- JSON -----------------------------------------------------------------------


def layered_to_json(a: LayeredSet):
    prefix = []
    for col in a.prefix:
        if isinstance(col, bool):
            prefix.append("full" if col else "empty")
        else:
            prefix.append(cube_to_json(col))
    if len(a.tail) == 1:
        tail = "full" if a.tail[0] else "empty"
    else:
        tail = ["full" if t else "empty" for t in a.tail]
    return {"prefix": prefix, "tail": tail}


def layered_from_json(obj) -> LayeredSet:
    if not isinstance(obj, dict) or set(obj) != {"prefix", "tail"}:
        raise SchemaError("expected {prefix, tail}")
    if not isinstance(obj["prefix"], list):
        raise SchemaError("prefix must be an array")
    prefix = []
    for col in obj["prefix"]:
        if col in ("empty", "full"):
            prefix.append(col)
        else:
            prefix.append(cube_from_json(col))
    tail = obj["tail"]
    pattern = tail if isinstance(tail, list) and tail else [tail]
    if not all(t in ("empty", "full") for t in pattern):
        raise SchemaError("tail must be empty/full or a pattern of them")
    return LayeredSet.make(prefix, tail)

"""Layered sets: subsets of the tower L = L_0 + L_1 + ... with L_n = w^(n+1).

A layered set stores a finite ``prefix`` of explicit columns followed by a
cyclic tail.  Column n is a cube set of dimension n+1 or one of the two
dimension-free uniform values empty/full (plain booleans internally).  The
tail is a nonempty cycle of such flags, kept as a mask and its length
(``.tail`` builds the bool tuple when read); a periodic tail closes fusion
under periodic index sets.

Layered sets are canonical: construction and every Boolean operation turn
an empty or full cube column into the matching flag and take the minimal
tail and the shortest prefix with the bit-stream helpers of
:mod:`ordcopies.cubesets`, so equal sets have equal hashes and the same
JSON.  A Boolean operation zips the prefix columns and meets the tails in
one mask op aligned to the lcm of their lengths.

Level sets S^m (columns whose order type reaches w^(m+1)) and supports are
exact and read by height, the leading exponent of a column's type.  A set
fills its *height profile* on first use: a full flag at column n counts
n + 1, an empty flag -1 and a cube column its height.  S^m is the threshold
height > m, and the support is the same threshold at m = -1.  Answers are
FinCof when finite or cofinite (always so for uniform tails), dimension-1
cube sets otherwise.  ``ls_s_set`` and ``ls_supp`` serve them from one
bounded table keyed by (profile, tail, m), like a BDD package's computed
table.  It keeps levels within the prefix cap only: past it an answer holds
about m bits, and a level of 10^7 would pin megabytes rarely asked twice.

Almost-inclusion is read off the tails.  Every S^m, and the support, agrees
with the set of the tail's full columns from some column on (a full column
n lies in S^m iff n >= m).  So ``s ⊆* S^m`` has one answer for every m, and
whether a - b lies in the ideal depends on the two tails alone.

JSON schema: ``{"prefix": [column...], "tail": "empty"|"full"}`` where a
column is a cube-set object of dimension n+1 or the strings "empty"/"full";
a cyclic tail may be given as a list of those strings.  FinCof values are
``{"kind": "finite"|"cofinite", "exceptions": [...]}``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Union

from . import config
from .errors import CapError, DimensionError, FusionPreconditionError, IdealError
from .errors import RangeError, SchemaError
from .cubesets import (
    CubeSet,
    _add_terms,
    _and_not,
    _bits,
    _height,
    _lift,
    _mask,
    _mask_canonical,
    _ones,
    _ordinal,
    _repeat,
    _rotate,
    _type_terms,
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
    """A finite or cofinite subset of the naturals.  ``exceptions`` lists
    the members (finite) or the missing elements (cofinite), as on the wire;
    set algebra runs on :meth:`to_natset`, a dimension-1 cube set."""

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
    return {"empty": False, "full": True}.get(value) if isinstance(value, str) else None


class LayeredSet:
    """A subset of the layer tower; immutable and canonical.  ``_heights``
    holds the height profile once it is read."""

    __slots__ = ("prefix", "_tail", "_tlen", "_heights")

    def __init__(self, *args, **kwargs):
        raise TypeError("use LayeredSet.make")

    @classmethod
    def _canonical(cls, cols: Sequence[Column], tmask: int, tlen: int) -> "LayeredSet":
        """The set with these columns and tail: only the flags after the last
        cube column can join the tail.  Every layered value meets the cap here."""
        k = len(cols)
        while k and isinstance(cols[k - 1], bool):
            k -= 1
        _, keep, tmask, tlen = _mask_canonical(_mask(cols[k:]), len(cols) - k, tmask, tlen)
        _check_prefix_cap(k + keep)
        self = object.__new__(cls)
        self.prefix = tuple(cols[: k + keep])
        self._tail, self._tlen, self._heights = tmask, tlen, None
        return self

    @classmethod
    def make(cls, prefix: Sequence = (), tail="empty") -> "LayeredSet":
        tail = [_as_flag(t) for t in ([tail] if _as_flag(tail) is not None else tail)]
        if not tail or None in tail:
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
        return cls._canonical(cols, _mask(tail), len(tail))

    @classmethod
    def empty(cls) -> "LayeredSet":
        return cls.make((), "empty")

    @classmethod
    def full(cls) -> "LayeredSet":
        return cls.make((), "full")

    @property
    def tail(self) -> tuple:
        return tuple(d == "1" for d in _bits(self._tail, self._tlen))

    def column(self, n: int) -> Column:
        if n < len(self.prefix):
            return self.prefix[n]
        return bool(self._tail >> (n - len(self.prefix)) % self._tlen & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredSet):
            return NotImplemented
        return (self._tail, self._tlen, self.prefix) == (other._tail, other._tlen, other.prefix)

    def __hash__(self) -> int:
        return hash((self.prefix, self._tail, self._tlen))

    def __repr__(self) -> str:
        return f"<LayeredSet prefix={len(self.prefix)} tail={self.tail}>"


def _profile(a: LayeredSet) -> tuple:
    """``(height profile, tail mask, tail length)``, what every level reads."""
    if a._heights is None:
        a._heights = tuple(
            _height(col) if isinstance(col, CubeSet) else n + 1 if col else -1
            for n, col in enumerate(a.prefix)
        )
    return a._heights, a._tail, a._tlen


# -- column algebra (never materializes a flag as a cube set) ------------------


def _as_column(col: CubeSet) -> Column:
    """The empty and full cube sets become the flags False and True."""
    return False if cs_is_empty(col) else True if cs_is_full(col) else col


def _against_flag(if_out: bool, if_in: bool, col: CubeSet) -> Column:
    """The column that is ``if_in`` on the points of ``col``, ``if_out`` off them."""
    if if_in == if_out:
        return if_in
    return col if if_in else cs_complement(col)


def _combine(a: LayeredSet, prefix: tuple, tmask: int, tlen: int, bit_op) -> LayeredSet:
    """``bit_op`` applied point by point to ``a`` and the stream (prefix,
    tail mask, tail length).  A flag column is a constant set, so against
    it the result is a constant, the other column or its complement."""
    cube_op = _lift(bit_op)

    def col_op(x: Column, y: Column) -> Column:
        if isinstance(x, bool):
            if isinstance(y, bool):
                return bit_op(x, y)
            return _against_flag(bit_op(x, False), bit_op(x, True), y)
        if isinstance(y, bool):
            return _against_flag(bit_op(False, y), bit_op(True, y), x)
        return _as_column(cube_op(x, y))

    explicit = max(len(a.prefix), len(prefix))
    period = math.lcm(a._tlen, tlen)
    cols, tails = [], []
    for p, mask, n in ((a.prefix, a._tail, a._tlen), (prefix, tmask, tlen)):
        cols.append(p + tuple(bool(mask >> i % n & 1) for i in range(explicit - len(p))))
        tails.append(_repeat(_rotate(mask, n, explicit - len(p)), n, period))
    return LayeredSet._canonical(tuple(map(col_op, *cols)), bit_op(*tails), period)


def ls_union(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b.prefix, b._tail, b._tlen, operator.or_)


def ls_inter(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b.prefix, b._tail, b._tlen, operator.and_)


def ls_diff(a: LayeredSet, b: LayeredSet) -> LayeredSet:
    return _combine(a, b.prefix, b._tail, b._tlen, _and_not)


# -- level sets, support, ideal membership -------------------------------------


def _level(heights: tuple, tmask: int, tlen: int, m: int) -> CubeSet:
    """The columns of height > m as a dimension-1 cube set, for m >= -1.
    A prefix column n has height at most n + 1, and a tail column passes
    iff it is full and n >= m: past the prefix, S^m is m empty columns and
    then the tail read from its position m - len(heights)."""
    explicit = max(len(heights), m)
    pmask = _mask([h > m for h in heights])
    return CubeSet._masks(pmask, explicit, _rotate(tmask, tlen, explicit - len(heights)), tlen)


@lru_cache(maxsize=4096)
def _level_table(heights: tuple, tmask: int, tlen: int, m: int) -> Union[FinCof, CubeSet]:
    """The level as FinCof when possible; past the cap, run ``__wrapped__``."""
    s = _level(heights, tmask, tlen, m)
    fincof = natset_to_fincof(s)
    return s if fincof is None else fincof


def s_set_natset(a: LayeredSet, m: int) -> CubeSet:
    """Exact S^m, the columns of type >= w^(m+1), as a dimension-1 cube set."""
    if m < 0:
        raise RangeError("the level must be a natural number")
    return _level(*_profile(a), m)


def supp_natset(a: LayeredSet) -> CubeSet:
    """Exact support as a dimension-1 cube set (cube columns are nonempty)."""
    return _level(*_profile(a), -1)


def ls_s_set(a: LayeredSet, m: int) -> Union[FinCof, CubeSet]:
    """S^m, as a FinCof when finite or cofinite (always so for uniform
    tails), otherwise as the exact dimension-1 cube set."""
    if m < 0:
        raise RangeError("the level must be a natural number")
    lookup = _level_table if m <= config.prefix_cap() else _level_table.__wrapped__
    return lookup(*_profile(a), m)


def ls_supp(a: LayeredSet) -> Union[FinCof, CubeSet]:
    """The set of layer indices the set meets; FinCof when possible."""
    return _level_table(*_profile(a), -1)


def ls_in_ideal(a: LayeredSet) -> bool:
    """True iff the set fails to contain a copy of the whole tower, iff some
    S^m is empty: a full tail column recurs cofinally, putting a full layer
    w^(n+1) in every S^m, and an empty tail leaves finitely many layers."""
    return a._tail == 0


def _residues(a: LayeredSet, tmask: int, g: int) -> int:
    """The residues mod g (g divides the tail length) of the columns where
    the tail positions in ``tmask`` recur: the mask folded onto g bits."""
    n = a._tlen
    while n > g:
        half = -(-n // (2 * g)) * g
        tmask, n = tmask & _ones(half) | tmask >> half, half
    return _rotate(tmask, g, -len(a.prefix))


def ls_subset_ideal(a: LayeredSet, b: LayeredSet) -> bool:
    """Inclusion modulo the ideal: a - b lies in the ideal.  By the Chinese
    remainder theorem, tail positions of ``a`` and ``b`` share infinitely
    many columns iff their columns agree mod g, the gcd of the tail lengths;
    so a - b leaves the ideal iff a full position of ``a``'s tail shares its
    residue mod g with an empty position of ``b``'s."""
    g = math.gcd(a._tlen, b._tlen)
    return not _residues(a, a._tail, g) & _residues(b, b._tail ^ _ones(b._tlen), g)


def ls_order_type(a: LayeredSet) -> Ordinal:
    """Order type of the set: the column types summed along the tower.

    A full tail column recurs cofinally with unbounded type, so the total
    collapses to w^w; otherwise the prefix sum remains, on int CNF terms.
    """
    if a._tail:
        return OMEGA_OMEGA
    total = []
    for n, col in enumerate(a.prefix):
        if col is not False:
            _add_terms(total, [(n + 1, 1)] if col is True else _type_terms(col))
    return _ordinal(total)


# -- reductions and fusion ------------------------------------------------------


def ls_is_reduction(s: Union[FinCof, CubeSet], a: LayeredSet, m_max: int) -> bool:
    """Truncated reduction test: s is almost contained in S^m for m <= m_max.
    Each S^m differs from the support in finitely many columns, so one test
    against the support answers for every level, exactly."""
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
    the failing (m, n).  The surviving set stays a mask.
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
    flags = tuple(d == "1" for d in _bits(surviving._prefix, surviving._plen))
    return _combine(a_list[r], flags, surviving._cycle, surviving._clen, operator.and_)


# -- JSON -----------------------------------------------------------------------


def layered_to_json(a: LayeredSet):
    text = ("empty", "full")
    prefix = [text[col] if isinstance(col, bool) else cube_to_json(col) for col in a.prefix]
    tail = [text[flag] for flag in a.tail]
    return {"prefix": prefix, "tail": tail if len(tail) > 1 else tail[0]}


def layered_from_json(obj) -> LayeredSet:
    if not isinstance(obj, dict) or set(obj) != {"prefix", "tail"}:
        raise SchemaError("expected {prefix, tail}")
    if not isinstance(obj["prefix"], list):
        raise SchemaError("prefix must be an array")
    prefix = [col if col in ("empty", "full") else cube_from_json(col) for col in obj["prefix"]]
    tail = obj["tail"]
    pattern = tail if isinstance(tail, list) and tail else [tail]
    if not all(t in ("empty", "full") for t in pattern):
        raise SchemaError("tail must be empty/full or a pattern of them")
    return LayeredSet.make(prefix, tail)

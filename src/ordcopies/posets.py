"""Finite pre-orders: separative modification, quotient, products, isomorphism.

A pre-order on m points is an m x m boolean matrix ``le`` with ``le[i, j]``
meaning i <= j; reflexivity and transitivity are checked on construction.
The two-quantifier formulas below reduce to boolean matrix products:

    compat[r, q] = exists s: s <= r and s <= q          (le^T @ le)
    p <=* q      = forall r <= p exists s <= r, s <= q  (~(le^T @ ~compat))

Text format: first line the size m, then m rows of 0/1 digits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .errors import CapError, DomainError, PosetFormatError

ISO_SIZE_CAP = 30


class FinPoset:
    """A finite pre-order, immutable; equality is matrix equality."""

    __slots__ = ("_le",)

    def __init__(self, le) -> None:
        le = np.array(le, dtype=bool)
        if le.ndim != 2 or le.shape[0] != le.shape[1]:
            raise DomainError("the relation must be a square matrix")
        m = le.shape[0]
        if m and not le.diagonal().all():
            raise DomainError("the relation must be reflexive")
        if m and not _implies(_bool_matmul(le, le), le):
            raise DomainError("the relation must be transitive")
        le.setflags(write=False)
        self._le = le

    @property
    def le(self) -> np.ndarray:
        return self._le

    @property
    def size(self) -> int:
        return self._le.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self.size == other.size and np.array_equal(self._le, other._le)

    def __hash__(self) -> int:
        return hash((self.size, self._le.tobytes()))

    def __repr__(self) -> str:
        return f"<FinPoset size={self.size}>"


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


def _implies(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((~a | b).all())


def _compat(le: np.ndarray) -> np.ndarray:
    return _bool_matmul(le.T, le)


def is_separative(p: FinPoset) -> bool:
    """Whenever p is not below q, some r below p is incompatible with q."""
    if p.size == 0:
        return True
    le = p.le
    witnessed = _bool_matmul(le.T, ~_compat(le))
    return _implies(~le, witnessed)


def sep_mod(p: FinPoset) -> FinPoset:
    """The separative modification: the coarsened relation <=*."""
    if p.size == 0:
        return p
    le = p.le
    le_star = ~_bool_matmul(le.T, ~_compat(le))
    return FinPoset(le_star)


def sep_quot(p: FinPoset) -> FinPoset:
    """The separative quotient: <=* modulo its kernel, on representatives."""
    if p.size == 0:
        return p
    le_star = sep_mod(p).le
    # The first index of each <=*-class represents it: i is kept unless
    # some j < i is <=*-equivalent to it.
    keep = ~np.tril(le_star & le_star.T, -1).any(axis=1)
    return FinPoset(le_star[keep][:, keep])


def poset_product(p: FinPoset, q: FinPoset) -> FinPoset:
    """Coordinatewise order on pairs; pair (i, j) is index i*|q| + j."""
    if p.size == 0 or q.size == 0:
        return FinPoset(np.zeros((0, 0), dtype=bool))
    le = np.kron(p.le.astype(np.uint8), q.le.astype(np.uint8)) > 0
    return FinPoset(le)


def _signatures(p: FinPoset) -> List:
    le = p.le
    down = le.sum(axis=0)
    up = le.sum(axis=1)
    colors = [(int(down[i]), int(up[i])) for i in range(p.size)]
    for _ in range(2):
        colors = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in range(p.size) if le[j, i])),
                tuple(sorted(colors[j] for j in range(p.size) if le[i, j])),
            )
            for i in range(p.size)
        ]
    return colors


def poset_iso(p: FinPoset, q: FinPoset) -> Optional[List[int]]:
    """An order isomorphism as an index map, or None if there is none."""
    if max(p.size, q.size) > ISO_SIZE_CAP:
        raise CapError(f"isomorphism search is capped at {ISO_SIZE_CAP} elements")
    if p.size != q.size:
        return None
    m = p.size
    if m == 0:
        return []
    sig_p = _signatures(p)
    sig_q = _signatures(q)
    if sorted(map(repr, sig_p)) != sorted(map(repr, sig_q)):
        return None
    candidates = [[x for x in range(m) if sig_q[x] == sig_p[i]] for i in range(m)]
    order = sorted(range(m), key=lambda i: len(candidates[i]))
    le_p, le_q = p.le, q.le
    image = [-1] * m
    used = [False] * m

    def backtrack(idx: int) -> bool:
        if idx == m:
            return True
        i = order[idx]
        for x in candidates[i]:
            if used[x]:
                continue
            ok = True
            for t in range(idx):
                j = order[t]
                if le_p[i, j] != le_q[x, image[j]] or le_p[j, i] != le_q[image[j], x]:
                    ok = False
                    break
            if ok:
                image[i] = x
                used[x] = True
                if backtrack(idx + 1):
                    return True
                image[i] = -1
                used[x] = False
        return False

    return image if backtrack(0) else None


# -- construction helpers --------------------------------------------------------


def antichain(n: int) -> FinPoset:
    return FinPoset(np.eye(n, dtype=bool))


def chain(n: int) -> FinPoset:
    le = np.zeros((n, n), dtype=bool)
    for i in range(n):
        le[i, i:] = True
    return FinPoset(le)


def all_preorders(n: int) -> List[FinPoset]:
    """Every reflexive-transitive relation on n labelled points (n small)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    result = []
    for mask in range(1 << len(pairs)):
        le = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                le[i, j] = True
        if _implies(_bool_matmul(le, le), le):
            result.append(FinPoset(le))
    return result


def random_preorder(rng, n: int) -> FinPoset:
    """A random pre-order: random arcs, then the reflexive-transitive closure."""
    le = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                le[i, j] = True
    for k in range(n):  # Warshall closure
        le |= np.outer(le[:, k], le[k, :])
    return FinPoset(le)


# -- text format -------------------------------------------------------------------


def poset_to_text(p: FinPoset) -> str:
    lines = [str(p.size)]
    for i in range(p.size):
        lines.append("".join("1" if p.le[i, j] else "0" for j in range(p.size)))
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> FinPoset:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise PosetFormatError("empty poset file")
    try:
        if not lines[0].isascii():  # int() takes any Unicode digit
            raise ValueError
        size = int(lines[0])
    except ValueError:
        raise PosetFormatError(f"first line must be the size, got {lines[0]!r}") from None
    if size < 0:
        raise PosetFormatError("size must be non-negative")
    if len(lines) != size + 1:
        raise PosetFormatError(f"expected {size} rows, found {len(lines) - 1}")
    le = np.zeros((size, size), dtype=bool)
    for i, line in enumerate(lines[1:]):
        row = line.replace(" ", "")
        if len(row) != size or any(ch not in "01" for ch in row):
            raise PosetFormatError(f"row {i} must be {size} digits of 0/1")
        le[i] = [ch == "1" for ch in row]
    try:
        return FinPoset(le)
    except DomainError as exc:
        raise PosetFormatError(str(exc)) from None

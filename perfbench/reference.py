"""Reference answers computed without the library.

These are the benchmark's second routes: ordinal arithmetic and order types
on nested tuples, cube-set membership read straight off the JSON document,
the factorization by the paper's formula from the Cantor normal form, and
the separative quotient by exact int64 matrix products.
"""

from __future__ import annotations

from math import lcm

import numpy as np

ZERO = ()
ONE = (((), 1),)


def o_finite(n):
    return (((), n),) if n else ZERO


def o_cmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        c = o_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def o_add(a, b):
    if not b:
        return a
    lead = b[0][0]
    keep = 0
    while keep < len(a) and o_cmp(a[keep][0], lead) > 0:
        keep += 1
    if keep < len(a) and a[keep][0] == lead:
        return a[:keep] + ((lead, a[keep][1] + b[0][1]),) + b[1:]
    return a[:keep] + b


def o_text(a):
    """The library's canonical text rendering."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        base = "w" if e == ONE else f"w^({o_text(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def omega_power(e):
    return o_finite(1) if not e else ((e, 1),)


# -- cube sets --------------------------------------------------------------------


def _column(doc, i):
    prefix, cycle = doc["prefix"], doc["cycle"]
    if i < len(prefix):
        return prefix[i]
    return cycle[(i - len(prefix)) % len(cycle)]


def cube_member(doc, point):
    for coord in point:
        doc = _column(doc, coord)
    return bool(doc)


def cube_type(doc):
    """Lexicographic order type: prefix types summed, then the cycle block
    repeated forever, which is w^(lead exponent + 1)."""
    if not isinstance(doc, dict):
        return ONE if doc else ZERO
    total = ZERO
    for col in doc["prefix"]:
        total = o_add(total, cube_type(col))
    block = ZERO
    for col in doc["cycle"]:
        block = o_add(block, cube_type(col))
    if not block:
        return total
    return o_add(total, omega_power(o_add(block[0][0], ONE)))


def cube_leaves(doc):
    """Number of dimension-0 entries in a cube-set document."""
    if not isinstance(doc, dict):
        return 1
    return sum(cube_leaves(c) for c in doc["prefix"]) + sum(cube_leaves(c) for c in doc["cycle"])


def aligned_columns(a, b):
    """Columns a Boolean operation visits when zipping two documents: at
    every level, the longer prefix plus the lcm of the cycles."""
    if not isinstance(a, dict):
        return 0
    explicit = max(len(a["prefix"]), len(b["prefix"]))
    columns = explicit + lcm(len(a["cycle"]), len(b["cycle"]))
    total = columns
    if isinstance(a["cycle"][0], dict):
        for i in range(columns):
            total += aligned_columns(_column(a, i), _column(b, i))
    return total


# -- factorization ------------------------------------------------------------------


def factorize_text(alpha):
    """The copy-quotient factorization of an infinite alpha, by the formula

        prod_i ((rp^(r_i)(P(w^(g_i)) / I_(w^(g_i))))^+)^(s_i)

    over the CNF terms w^(g_i + r_i)*s_i with g_i a limit or 1."""
    factors = []
    for exponent, coeff in alpha:
        if not exponent:
            continue
        if exponent[-1][0]:  # no finite tail: a limit exponent
            gamma, depth = exponent, 0
        else:
            gamma, depth = exponent[:-1], exponent[-1][1]
            if not gamma:
                gamma, depth = ONE, depth - 1
        core = "P(w)/fin" if gamma == ONE else f"P(w^({o_text(gamma)}))/I_(w^({o_text(gamma)}))"
        if depth:
            core = f"rp({core})" if depth == 1 else f"rp^{depth}({core})"
        factor = f"({core})^+"
        factors.append(f"({factor})^{coeff}" if coeff > 1 else factor)
    return " x ".join(factors)


# -- pre-orders ------------------------------------------------------------------------


def _matmul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def sep_mod(le):
    """p <=* q iff every r <= p is compatible with q."""
    compat = _matmul(le.T, le)
    return ~_matmul(le.T, ~compat)


def is_separative(le):
    compat = _matmul(le.T, le)
    return bool((le | _matmul(le.T, ~compat)).all())


def sep_quot(le):
    """The quotient of <=* by its kernel, on first-index representatives."""
    star = sep_mod(le)
    eq = star & star.T
    reps = []
    seen = np.zeros(le.shape[0], dtype=bool)
    for i in range(le.shape[0]):
        if not seen[i]:
            reps.append(i)
            seen |= eq[i]
    return star[np.ix_(reps, reps)]

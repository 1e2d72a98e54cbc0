"""Seeded input generators, producing the library's wire formats.

The generator logic follows the property suites in ``ordcopies.verify``
(copied here, not imported, so the benchmark does not depend on test code
shipped in the package).  Everything is produced as text or JSON documents
from a ``random.Random`` the benchmark seeds; the library only ever sees
those documents.

Ordinals are handled here as nested tuples ``((exponent, coeff), ...)`` with
strictly decreasing exponents in the same form; ``()`` is zero.  The helpers
in ``reference`` compare, add and render them independently of the library.
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from reference import ONE, o_add, o_cmp, o_finite

PRIMES = (2, 3, 5, 7, 11)


def _sorted_terms(exponents):
    return tuple(
        sorted(exponents.items(), key=cmp_to_key(lambda a, b: o_cmp(a[0], b[0])), reverse=True)
    )


def random_ordinal(rng, depth=1, max_terms=3, max_coeff=4):
    """A random ordinal; exponents come from one level down."""
    exponents = {}
    for _ in range(rng.randint(0, max_terms)):
        if depth == 0:
            e = o_finite(rng.randint(0, 4))
        else:
            e = random_ordinal(rng, depth - 1, max_terms=2, max_coeff=3)
        exponents[e] = rng.randint(1, max_coeff)
    return _sorted_terms(exponents)


def random_alpha(rng):
    """A random infinite ordinal below w^(w*2), the factorizer's range."""
    omega = ((ONE, 1),)
    exponents = {}
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            e = o_add(omega, o_finite(rng.randint(0, 5)))
        else:
            e = o_finite(rng.randint(1, 6))
        exponents[e] = rng.randint(1, 4)
    alpha = _sorted_terms(exponents)
    if rng.random() < 0.5:
        alpha = o_add(alpha, o_finite(rng.randint(1, 9)))
    return alpha


def random_segment_bound(rng, n):
    """A random ordinal <= w^n."""
    if rng.random() < 0.1:
        return ((o_finite(n), 1),)
    exponents = {}
    for _ in range(rng.randint(0, n)):
        exponents[o_finite(rng.randint(0, n - 1))] = rng.randint(1, 3)
    return _sorted_terms(exponents)


def random_cube(rng, dim, density=0.5):
    """A random eventually periodic subset of w^dim as a JSON document."""
    if dim == 0:
        return 1 if rng.random() < density else 0
    return {
        "dim": dim,
        "prefix": [random_cube(rng, dim - 1, density) for _ in range(rng.randint(0, 2))],
        "cycle": [random_cube(rng, dim - 1, density) for _ in range(rng.randint(1, 3))],
    }


def natset_doc(prefix_bits, cycle_bits=(False,)):
    return {
        "dim": 1,
        "prefix": [int(bool(b)) for b in prefix_bits],
        "cycle": [int(bool(b)) for b in cycle_bits],
    }


def _flag(value):
    return "full" if value else "empty"


def random_layered(rng, max_prefix=4, cyclic_tails=False):
    """A random layered set as a JSON document."""
    prefix = []
    for n in range(rng.randint(0, max_prefix)):
        roll = rng.random()
        if roll < 0.25:
            prefix.append("empty")
        elif roll < 0.5:
            prefix.append("full")
        else:
            prefix.append(random_cube(rng, n + 1))
    if cyclic_tails and rng.random() < 0.4:
        tail = [_flag(rng.random() < 0.5) for _ in range(rng.randint(2, 3))]
    else:
        tail = _flag(rng.random() < 0.5)
    return {"prefix": prefix, "tail": tail}


def random_index_set(rng):
    """An infinite subset of w: a cofinite FinCof or a periodic natset."""
    roll = rng.random()
    if roll < 0.4:
        return {"kind": "cofinite", "exceptions": sorted(rng.sample(range(8), rng.randint(0, 4)))}
    if roll < 0.7:
        bits = [rng.random() < 0.5 for _ in range(rng.randint(0, 3))]
        cycle = [True, rng.random() < 0.5]
        rng.shuffle(cycle)
        return natset_doc(bits, cycle)
    return {"kind": "cofinite", "exceptions": []}


def random_fusion_instance(rng):
    """Inputs meeting the fusion preconditions, with one spare set so the
    same list supports the nested run."""
    depth = rng.randint(2, 4)
    periodic = rng.random() < 0.3
    index = natset_doc((), (True, False)) if periodic else random_index_set(rng)
    sets = []
    for _ in range(depth):
        prefix = []
        for n in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3:
                prefix.append("empty")
            elif roll < 0.6:
                prefix.append("full")
            else:
                prefix.append(random_cube(rng, n + 1))
        if periodic:
            # The cyclic tail is phased from the end of the prefix; keep the
            # full columns on the even indices the index set selects.
            tail = ["full", "empty"] if len(prefix) % 2 == 0 else ["empty", "full"]
        else:
            tail = "full"
        sets.append({"prefix": prefix, "tail": tail})
    return sets, index


def random_preorder(rng, m, density=0.3):
    """A random pre-order on m points: random arcs, then the closure."""
    gen = np.random.default_rng(rng.getrandbits(64))
    le = gen.random((m, m)) < density
    np.fill_diagonal(le, True)
    return closure(le)


def closure(le):
    """Reflexive-transitive closure by repeated squaring.  The products are
    path counts of at most m, exact in float64 for every size used here."""
    le = le.copy()
    np.fill_diagonal(le, True)
    while True:
        step = (le.astype(np.float64) @ le.astype(np.float64)) > 0
        if np.array_equal(step, le):
            return le
        le = step


def chain_matrix(m):
    return np.triu(np.ones((m, m), dtype=bool))


def poset_text(le):
    rows = ["".join("1" if x else "0" for x in row) for row in le.tolist()]
    return "\n".join([str(le.shape[0])] + rows) + "\n"


# -- scaling families ------------------------------------------------------------


def coprime_cube(rng, dim, period):
    """A subset of w^dim whose cycle has minimal length ``period`` at every
    level, so a Boolean operation on sets of coprime periods aligns the
    cycles to their lcm at every level."""
    if dim == 1:
        bits = [rng.random() < 0.5 for _ in range(period)]
        bits[0], bits[1] = True, False
        return natset_doc((), bits)
    cycle = [coprime_cube(rng, dim - 1, period) for _ in range(period)]
    cycle[1] = _empty(dim - 1)
    return {"dim": dim, "prefix": [], "cycle": cycle}


def _empty(dim):
    if dim == 0:
        return 0
    return {"dim": dim, "prefix": [], "cycle": [_empty(dim - 1)]}


def coprime_layered(rng, period, columns=3):
    """A layered set whose explicit columns have top-level period ``period``
    (children are small random sets), with a full tail."""
    prefix = []
    for n in range(columns):
        dim = n + 1
        if dim == 1:
            prefix.append(coprime_cube(rng, 1, period))
            continue
        cycle = [random_cube(rng, dim - 1) for _ in range(period)]
        cycle[0] = _full(dim - 1)
        cycle[1] = _empty(dim - 1)
        prefix.append({"dim": dim, "prefix": [], "cycle": cycle})
    return {"prefix": prefix, "tail": "full"}


def _full(dim):
    if dim == 0:
        return 1
    return {"dim": dim, "prefix": [], "cycle": [_full(dim - 1)]}


def tower(rng, depth):
    """A canonical ordinal text whose exponents nest ``depth`` levels deep,
    with the answer ``factorize`` must give, built by the paper's formula.

    Level k is ``w^(E)*c + w^(j)*d + n`` with E the level below; returned
    are the text and the expected factorization text.
    """
    inner, inner_tail = "w", 0  # w^(1), nesting depth 1
    for _ in range(depth - 1):
        head = f"w^({inner}{_tail_text(inner_tail)})"
        c = rng.randint(1, 3)
        j = rng.randint(2, 4)
        d = rng.randint(1, 3)
        n = rng.randint(0, 2)
        body = head + (f"*{c}" if c > 1 else "") + f" + w^({j})" + (f"*{d}" if d > 1 else "")
        prev_inner, prev_tail = inner, inner_tail
        inner, inner_tail = body, n
    text = inner + _tail_text(inner_tail)
    # Factorize the top level: exponent E = prev_inner + prev_tail splits as
    # gamma = prev_inner (a limit) and r = prev_tail; w^(j)*d gives
    # gamma = 1, r = j - 1; the finite tail drops out.
    if depth == 1:
        return text, "(P(w)/fin)^+"
    first = _factor_text(f"P(w^({prev_inner}))/I_(w^({prev_inner}))", prev_tail, c)
    second = _factor_text("P(w)/fin", j - 1, d)
    return text, f"{first} x {second}"


def _tail_text(n):
    return f" + {n}" if n else ""


def _factor_text(core, depth, power):
    if depth:
        core = f"rp({core})" if depth == 1 else f"rp^{depth}({core})"
    factor = f"({core})^+"
    return f"({factor})^{power}" if power > 1 else factor


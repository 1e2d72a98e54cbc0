"""Deterministic property suites and the random generators behind them.

Each suite replays the algebraic laws the package is built on.  Every
check is a per-sample law that ``_law`` runs over one rng stream seeded by
the check's name, so a run is reproducible and a failure names its sample;
a fixed table or exhaustive search is a law of one sample, with no stream.
The CLI ``verify`` command prints one line per check; the acceptance tests
reuse the same check functions at their full sample sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cubesets import (
    CubeSet,
    cs_complement,
    cs_diff,
    cs_empty,
    cs_full,
    cs_fubini_positive,
    cs_inter,
    cs_is_empty,
    cs_member,
    cs_order_type,
    cs_product,
    cs_rank,
    cs_select,
    cs_union,
    initial_segment,
)
from .errors import RangeError
from .forcing import (
    Power,
    PositivePart,
    Product,
    QuotientAlgebra,
    ReducedPowerIter,
    factorize,
    iteration_form,
    parse_expr,
    render_expr,
)
from .layered import (
    FinCof,
    LayeredSet,
    ls_diff,
    ls_fusion,
    ls_in_ideal,
    ls_order_type,
    ls_subset_ideal,
    ls_union,
    natset,
    s_set_natset,
    supp_natset,
)
from .ordinals import (
    GT,
    LT,
    OMEGA,
    OMEGA_OMEGA,
    ONE,
    ZERO,
    Ordinal,
    is_indecomposable,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
)
from .posets import (
    FinPoset,
    all_preorders,
    is_separative,
    poset_iso,
    poset_product,
    random_preorder,
    sep_mod,
    sep_quot,
)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# Suite name -> its checks, in the order this module defines them.
SUITES: Dict[str, List[Callable[[], Check]]] = {}


def _law(name: str, count: int):
    """Make ``body(rng, index)``, which returns None or what went wrong, the
    check ``name`` over the first ``count`` samples of the rng stream seeded
    by that name.  A failure names its sample as ``[name:index]``; calling
    the check with ``samples=index + 1`` replays it.  A law of one sample is
    a fixed check: it draws no stream, and its body gets None for the rng.
    A law defined in this module joins the suite that prefixes its name."""

    def wrap(body: Callable[[Optional[random.Random], int], Optional[str]]) -> Callable[..., Check]:
        def check(samples: int = count) -> Check:
            rng = random.Random(f"ordcopies:{name}") if count > 1 else None
            for index in range(samples):
                message = body(rng, index)
                if message is not None:
                    return Check(name, False, f"{message} [{name}:{index}]")
            return Check(name, True)

        check.__name__, check.__doc__ = body.__name__, body.__doc__
        if body.__module__ == __name__:
            SUITES.setdefault(name.partition(".")[0], []).append(check)
        return check

    return wrap


# -- generators ----------------------------------------------------------------


def random_ordinal(rng, depth: int = 1, max_terms: int = 3, max_coeff: int = 4) -> Ordinal:
    """A random ordinal; exponents come from one level down."""
    count = rng.randint(0, max_terms)
    exponents = {}
    for _ in range(count):
        if depth == 0:
            e = Ordinal(rng.randint(0, 4))
        else:
            e = random_ordinal(rng, depth - 1, max_terms=2, max_coeff=3)
        exponents[e] = rng.randint(1, max_coeff)
    return Ordinal.from_terms(sorted(exponents.items(), reverse=True))


def random_cubeset(rng, dim: int) -> CubeSet:
    if dim == 0:
        return CubeSet.leaf(rng.random() < 0.5)
    prefix = [random_cubeset(rng, dim - 1) for _ in range(rng.randint(0, 2))]
    cycle = [random_cubeset(rng, dim - 1) for _ in range(rng.randint(1, 3))]
    return CubeSet.node(prefix, cycle)


def random_layered(rng, cyclic_tails: bool = False) -> LayeredSet:
    prefix = []
    for n in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.25:
            prefix.append(False)
        elif roll < 0.5:
            prefix.append(True)
        else:
            prefix.append(random_cubeset(rng, n + 1))
    if cyclic_tails and rng.random() < 0.4:
        length = rng.randint(2, 3)
        tail = tuple(rng.random() < 0.5 for _ in range(length))
    else:
        tail = "full" if rng.random() < 0.5 else "empty"
    return LayeredSet.make(prefix, tail)


def random_increasing_exponents(rng, count: int) -> List[Ordinal]:
    seen = set()
    while len(seen) < count:
        seen.add(random_ordinal(rng, depth=1, max_terms=2, max_coeff=3))
    return sorted(seen)


def random_alpha_below_w_w2(rng) -> Ordinal:
    """A random infinite ordinal below w^(w*2), the factorizer's sampling
    range: at least one term, each with a positive exponent."""
    exponents = {}
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            e = ord_add(OMEGA, rng.randint(0, 5))
        else:
            e = Ordinal(rng.randint(1, 6))
        exponents[e] = rng.randint(1, 4)
    alpha = Ordinal.from_terms(sorted(exponents.items(), reverse=True))
    if rng.random() < 0.5:
        alpha = ord_add(alpha, rng.randint(1, 9))
    return alpha


def random_infinite_index_set(rng) -> Union[FinCof, CubeSet]:
    roll = rng.random()
    if roll < 0.4:
        return FinCof.cofinite(rng.sample(range(8), rng.randint(0, 4)))
    if roll < 0.7:
        bits = [rng.random() < 0.5 for _ in range(rng.randint(0, 3))]
        cycle = [True, rng.random() < 0.5]
        rng.shuffle(cycle)
        return natset(bits, cycle)
    return FinCof.cofinite()


# -- ordinal checks --------------------------------------------------------------


@_law("ordinals.laws", 300)
def check_ordinal_laws(rng, _):
    a = random_ordinal(rng)
    b = random_ordinal(rng)
    c = random_ordinal(rng)
    if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
        return f"(a+b)+c != a+(b+c) for {a}, {b}, {c}"
    if ord_mul(ord_mul(a, b), c) != ord_mul(a, ord_mul(b, c)):
        return f"(ab)c != a(bc) for {a}, {b}, {c}"
    if ord_mul(a, ord_add(b, c)) != ord_add(ord_mul(a, b), ord_mul(a, c)):
        return f"a(b+c) != ab+ac for {a}, {b}, {c}"


@_law("ordinals.noncommutative", 1)
def check_noncommutativity(_rng, _):
    if ord_add(1, OMEGA) != OMEGA or ord_add(OMEGA, 1) == OMEGA:
        return "addition witnesses failed"
    if ord_mul(2, OMEGA) != OMEGA or ord_mul(OMEGA, 2) == OMEGA:
        return "multiplication witnesses failed"


@_law("ordinals.power-law", 150)
def check_power_law(rng, _):
    a = random_ordinal(rng, depth=1, max_terms=2, max_coeff=2)
    b = random_ordinal(rng, depth=0, max_terms=2, max_coeff=2)
    c = random_ordinal(rng, depth=0, max_terms=2, max_coeff=2)
    if ord_pow(a, ord_add(b, c)) != ord_mul(ord_pow(a, b), ord_pow(a, c)):
        return f"a^(b+c) != a^b * a^c for {a}, {b}, {c}"
    if ord_pow(ord_pow(a, b), c) != ord_pow(a, ord_mul(b, c)):
        return f"(a^b)^c != a^(b*c) for {a}, {b}, {c}"


@_law("ordinals.cofinal-fold", 200)
def check_cofinal_fold(rng, _):
    """Summing w^e over strictly increasing exponents leaves the last term."""
    exponents = random_increasing_exponents(rng, rng.randint(1, 5))
    if any(e.is_zero() for e in exponents):
        exponents = [ord_add(e, 1) for e in exponents]
    total = ZERO
    for e in exponents:
        total = ord_add(total, omega_power(e))
    if total != omega_power(exponents[-1]):
        return f"fold over {[str(e) for e in exponents]} gave {total}"


@_law("ordinals.indecomposable-sums", 200)
def check_indecomposable_sums(rng, _):
    d2 = random_ordinal(rng, depth=0, max_terms=2)
    d2 = ord_add(d2, 1)
    d1 = ord_add(d2, random_ordinal(rng, depth=0, max_terms=2))
    if is_indecomposable(ord_add(omega_power(d1), omega_power(d2))):
        return f"w^({d1}) + w^({d2}) passed as indecomposable"


# -- cube-set checks --------------------------------------------------------------


_BLOCK_LIMIT_TABLE: Sequence[Tuple[str, str]] = (
    # Hand-checked: repeating a block of order type c forever yields w^(e+1)
    # where e is the leading exponent of c.
    ("1", "w"),
    ("3", "w"),
    ("w", "w^(2)"),
    ("w+3", "w^(2)"),
    ("w*2", "w^(2)"),
    ("w^(2)", "w^(3)"),
    ("w^(2)+w*5+1", "w^(3)"),
    ("w^(2)*4+3", "w^(3)"),
    ("w^(3)*2+w", "w^(4)"),
    ("w^(w)+w^(3)", "w^(w+1)"),
)


@_law("cubesets.block-limit-table", 1)
def check_block_limit_table(_rng, _):
    """The closed form c * w = w^(e+1) against hand-checked values and
    against truncated partial sums."""
    for block_text, expected_text in _BLOCK_LIMIT_TABLE:
        block = parse_ordinal(block_text)
        expected = parse_ordinal(expected_text)
        closed = omega_power(ord_add(block.leading_exponent(), ONE))
        if closed != expected:
            return f"closed form for {block} gave {closed}, expected {expected}"
        partial = ZERO
        floor = omega_power(block.leading_exponent())
        for k in range(1, 12):
            partial = ord_add(partial, block)
            if partial != ord_mul(block, k):
                return f"partial sum mismatch at {block} * {k}"
            if ord_cmp(partial, expected) != LT:
                return f"partial sum {partial} not below {expected}"
            if ord_cmp(ord_mul(floor, k), partial) == GT:
                return f"partial sums of {block} grow too slowly"


@_law("cubesets.oracle-agreement", 3000)
def check_oracle_agreement(rng, index):
    """Fubini positivity and full order type decide the same ideal; a
    thousand samples each in dimensions 1, 2 and 3."""
    dim = 1 + index // 1000
    a = random_cubeset(rng, dim)
    if cs_fubini_positive(a) != (cs_order_type(a) == omega_power(dim)):
        return f"oracles disagree on {a!r} (dim {dim})"


@_law("cubesets.indivisibility", 3000)
def check_indivisibility(rng, index):
    """A set or its complement is a copy; a thousand samples each in
    dimensions 1, 2 and 3."""
    dim = 1 + index // 1000
    target = omega_power(dim)
    a = random_cubeset(rng, dim)
    if cs_order_type(a) != target and cs_order_type(cs_complement(a)) != target:
        return f"neither {a!r} nor its complement is a copy (dim {dim})"


@_law("cubesets.monotone-types", 300)
def check_monotone_types(rng, _):
    dim = rng.randint(1, 3)
    a = random_cubeset(rng, dim)
    b = cs_union(a, random_cubeset(rng, dim))
    ta, tb = cs_order_type(a), cs_order_type(b)
    if ord_cmp(ta, tb) == GT:
        return f"subset with larger type (dim {dim})"
    if ord_cmp(tb, omega_power(dim)) == GT:
        return f"type above the ambient w^({dim})"


@_law("cubesets.boolean-laws", 300)
def check_boolean_laws(rng, _):
    dim = rng.randint(1, 3)
    a = random_cubeset(rng, dim)
    b = random_cubeset(rng, dim)
    if cs_complement(cs_complement(a)) != a:
        return "complement is not an involution"
    if cs_complement(cs_union(a, b)) != cs_inter(cs_complement(a), cs_complement(b)):
        return "De Morgan failed"
    if cs_union(a, cs_inter(a, b)) != a:
        return "absorption failed"
    if cs_diff(a, b) != cs_inter(a, cs_complement(b)):
        return "difference is not meet-with-complement"


@_law("cubesets.segment-types", 200)
def check_segment_types(rng, _):
    n = rng.randint(1, 3)
    alpha = random_segment_bound(rng, n)
    if cs_order_type(initial_segment(n, alpha)) != alpha:
        return f"segment of {alpha} in w^({n}) has the wrong type"


def random_segment_bound(rng, n: int) -> Ordinal:
    """A random ordinal <= w^n."""
    if rng.random() < 0.1:
        return omega_power(n)
    terms = {}
    for _ in range(rng.randint(0, n)):
        terms[Ordinal(rng.randint(0, n - 1))] = rng.randint(1, 3)
    return Ordinal.from_terms(sorted(terms.items(), reverse=True))


@_law("cubesets.select", 500)
def check_select_consistency(rng, _):
    dim = rng.randint(1, 3)
    a = random_cubeset(rng, dim)
    t = cs_order_type(a)
    xi = random_segment_bound(rng, dim)
    defined = ord_cmp(xi, t) == LT
    try:
        p = cs_select(a, xi)
    except RangeError:
        return f"selection refused a valid index {xi}" if defined else None
    if not defined:
        return f"selection accepted {xi} >= type {t}"
    if not cs_member(a, p):
        return f"selected point {p} is not a member"
    if cs_rank(a, p) != xi:
        return f"rank does not invert selection at {xi}"
    eta = random_segment_bound(rng, dim)
    if ord_cmp(eta, t) == LT and eta != xi:
        q = cs_select(a, eta)
        if (ord_cmp(xi, eta) == LT) != (p < q):
            return "selection is not strictly increasing"


def _segment_columns(alpha: Ordinal) -> List[CubeSet]:
    """Columns of the dimension-2 coded segment of alpha < w^2."""
    whole = 0
    rest = 0
    for exponent, coeff in alpha.terms:
        if exponent == ONE:
            whole = coeff
        else:
            rest = coeff
    cols = [cs_full(1)] * whole
    if rest:
        cols.append(natset([True] * rest))
    return cols


def lex_sum_set(a: Ordinal, b: Ordinal) -> CubeSet:
    """A dimension-2 set realizing a-then-b, for a, b < w^2."""
    return CubeSet.node(_segment_columns(a) + _segment_columns(b), (cs_empty(1),))


@_law("cubesets.arith-vs-lex", 1)
def check_arithmetic_vs_lex(_rng, _):
    """Sums and products agree with the order types of explicit lex sets,
    for all w*i+j with i, j <= 3."""
    values = [
        Ordinal.from_terms(([(ONE, i)] if i else []) + ([(ZERO, j)] if j else []))
        for i in range(4)
        for j in range(4)
    ]
    for a in values:
        for b in values:
            if cs_order_type(lex_sum_set(a, b)) != ord_add(a, b):
                return f"lex sum disagrees at {a}, {b}"
            product = cs_product(initial_segment(2, b), initial_segment(2, a))
            if cs_order_type(product) != ord_mul(a, b):
                return f"lex product disagrees at {a}, {b}"


@_law("cubesets.separativity-witness", 150)
def check_separativity_witness(rng, _):
    """When a positive set is not almost-contained in another, the surplus
    is itself a copy and avoids the other set entirely.  A sample draws
    pairs until both the set and the surplus are positive."""
    for _attempt in range(80):
        dim = rng.randint(1, 3)
        a = random_cubeset(rng, dim)
        b = random_cubeset(rng, dim)
        c = cs_diff(a, b)
        if cs_fubini_positive(a) and cs_fubini_positive(c):
            break
    else:
        return "no witness instance in 80 attempts"
    if cs_order_type(c) != omega_power(dim):
        return f"surplus of a positive non-inclusion is not a copy (dim {dim})"
    if not cs_is_empty(cs_inter(c, b)):
        return "witness meets the set it must avoid"
    if not cs_is_empty(cs_diff(c, a)):
        return "witness leaks outside the left set"


# -- layered checks ----------------------------------------------------------------


def _natset_subset(a: CubeSet, b: CubeSet) -> bool:
    return cs_is_empty(cs_diff(a, b))


@_law("layered.level-sets", 500)
def check_level_set_laws(rng, _):
    a = random_layered(rng, cyclic_tails=True)
    c = random_layered(rng, cyclic_tails=True)
    b = ls_union(a, c)
    support = supp_natset(a)
    previous = None
    for m in range(9):
        s_m = s_set_natset(a, m)
        below = natset([True] * m, (False,))
        if not _natset_subset(s_m, cs_diff(support, below)):
            return f"S^{m} leaks outside supp minus {m}"
        if previous is not None and not _natset_subset(s_m, previous):
            return f"S^{m} is not contained in S^{m - 1}"
        previous = s_m
        if not _natset_subset(s_m, s_set_natset(b, m)):
            return f"S^{m} not monotone under union at level {m}"
        union_left = s_set_natset(ls_union(a, c), m)
        union_right = cs_union(s_set_natset(a, m), s_set_natset(c, m))
        if union_left != union_right:
            return f"S^{m} of a union is not the union of S^{m}"


@_law("layered.ideal-consistency", 500)
def check_ideal_consistency(rng, _):
    """Membership in the ideal agrees with emptiness/infinitude of the S^m
    and with the order-type collapse at w^w."""
    a = random_layered(rng, cyclic_tails=True)
    in_ideal = ls_in_ideal(a)
    bound = len(a.prefix) + 5
    empties = any(cs_is_empty(s_set_natset(a, m)) for m in range(bound))
    infinites = all(cs_fubini_positive(s_set_natset(a, m)) for m in range(bound))
    if in_ideal != empties:
        return "ideal membership disagrees with empty level sets"
    if (not in_ideal) != infinites:
        return "positivity disagrees with infinite level sets"
    if (ls_order_type(a) == OMEGA_OMEGA) == in_ideal:
        return "order type does not mirror ideal membership"


@_law("layered.ideal-inclusion", 500)
def check_ideal_inclusion(rng, _):
    a = random_layered(rng, cyclic_tails=True)
    b = random_layered(rng, cyclic_tails=True)
    diff = ls_diff(a, b)
    bound = len(diff.prefix) + 2
    witnessed = any(cs_is_empty(s_set_natset(diff, m)) for m in range(bound))
    if ls_subset_ideal(a, b) != witnessed:
        return "almost-inclusion disagrees with its witness"
    if not ls_subset_ideal(a, ls_union(a, b)):
        return "a set fails to almost-include into its union"


def random_fusion_instance(rng) -> Tuple[List[LayeredSet], Union[FinCof, CubeSet]]:
    """Inputs satisfying the fusion preconditions, with one spare set so the
    same list supports the nested run."""
    depth = rng.randint(2, 4)
    periodic = rng.random() < 0.3
    index: Union[FinCof, CubeSet]
    if periodic:
        index = natset((), (True, False))
    else:
        index = random_infinite_index_set(rng)
    sets = []
    for _ in range(depth):
        prefix = []
        for n in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3:
                prefix.append(False)
            elif roll < 0.6:
                prefix.append(True)
            else:
                prefix.append(random_cubeset(rng, n + 1))
        if periodic:
            # The cyclic tail is phased from the end of the prefix; keep the
            # full columns on the even indices the index set selects.
            tail = (True, False) if len(prefix) % 2 == 0 else (False, True)
        else:
            tail = (True,)
        sets.append(LayeredSet.make(prefix, tail))
    return sets, index


@_law("layered.fusion", 100)
def check_fusion_claims(rng, _):
    sets, index = random_fusion_instance(rng)
    inner = ls_fusion(sets[:-1], index)
    outer = ls_fusion(sets, index)
    if ls_in_ideal(inner) or ls_in_ideal(outer):
        return "a fused set fell into the ideal"
    if not ls_subset_ideal(outer, inner):
        return "nested fusion is not almost-decreasing"


# -- poset checks --------------------------------------------------------------------


@_law("posets.sq-product-small", 1)
def check_sq_product_exhaustive(_rng, _):
    small = []
    for n in (1, 2, 3):
        small.extend(all_preorders(n))
    for p in small:
        for q in small:
            lhs = sep_quot(poset_product(p, q))
            rhs = poset_product(sep_quot(p), sep_quot(q))
            if poset_iso(lhs, rhs) is None:
                return f"law fails at sizes {p.size} x {q.size}"
            if not is_separative(lhs):
                return "a separative quotient is not separative"


@_law("posets.sq-product-random", 500)
def check_sq_product_random(rng, _):
    p = random_preorder(rng, rng.randint(1, 5))
    q = random_preorder(rng, rng.randint(1, 5))
    lhs = sep_quot(poset_product(p, q))
    rhs = poset_product(sep_quot(p), sep_quot(q))
    if poset_iso(lhs, rhs) is None:
        return f"law fails at sizes {p.size} x {q.size}"


@_law("posets.sq-soundness", 200)
def check_sq_soundness(rng, _):
    p = random_preorder(rng, rng.randint(1, 6))
    sm = sep_mod(p)
    if not (p.le <= sm.le).all():
        return "the modification lost an inequality"
    if sep_mod(sm) != sm:
        return "the modification is not idempotent"
    sq = sep_quot(p)
    if not is_separative(sq):
        return "a quotient is not separative"
    if poset_iso(sep_quot(sq), sq) is None:
        return "the quotient is not idempotent"


@_law("posets.sq-respects-iso", 200)
def check_sq_respects_iso(rng, _):
    p = random_preorder(rng, rng.randint(1, 6))
    perm = list(range(p.size))
    rng.shuffle(perm)
    q = FinPoset(p.le[perm][:, perm])
    if poset_iso(sep_quot(p), sep_quot(q)) is None:
        return "isomorphic inputs with non-isomorphic quotients"


# -- factorizer checks -----------------------------------------------------------------


@_law("factorizer.goldens", 1)
def check_factorizer_goldens(_rng, _):
    base = PositivePart(QuotientAlgebra(ONE))
    for n in range(1, 7):
        expected = base if n == 1 else Power(base, n)
        if factorize(ord_mul(OMEGA, n)) != expected:
            return f"w*{n} did not factor into the {n}-th power"
    for n in range(1, 6):
        core = QuotientAlgebra(ONE) if n == 1 else ReducedPowerIter(QuotientAlgebra(ONE), n - 1)
        if factorize(omega_power(n)) != PositivePart(core):
            return f"w^{n} did not factor into depth {n - 1}"


@_law("factorizer.tail-drop", 200)
def check_tail_drop(rng, _):
    alpha = random_alpha_below_w_w2(rng)
    k = rng.randint(0, 19)
    if factorize(ord_add(alpha, k)) != factorize(alpha):
        return f"finite tail {k} changed the factorization of {alpha}"


@_law("factorizer.invariants", 1000)
def check_factor_invariants(rng, _):
    alpha = random_alpha_below_w_w2(rng)
    expr = factorize(alpha)
    factors = expr.factors if isinstance(expr, Product) else (expr,)
    last_key = None
    for factor in factors:
        power = 1
        if isinstance(factor, Power):
            power = factor.exponent
            factor = factor.inner
        if power < 1:
            return "a factor carries a non-positive power"
        if not isinstance(factor, PositivePart):
            return "a factor is not a positive part"
        core = factor.inner
        depth = 0
        if isinstance(core, ReducedPowerIter):
            depth = core.depth
            core = core.inner
            if depth < 1:
                return "a canonical factor kept rp^0"
        if not isinstance(core, QuotientAlgebra):
            return "a factor core is not a quotient algebra"
        if not (core.gamma == ONE or core.gamma.is_limit()):
            return "a quotient base is neither a limit nor 1"
        key = ord_add(core.gamma, depth)
        if last_key is not None and ord_cmp(last_key, key) != GT:
            return f"factors of {alpha} are not strictly decreasing"
        last_key = key


@_law("factorizer.render-roundtrip", 200)
def check_render_roundtrip(rng, _):
    alpha = random_alpha_below_w_w2(rng)
    expr = factorize(alpha)
    if parse_expr(render_expr(expr)) != expr:
        return f"text round trip failed for {alpha}"
    tower = iteration_form(alpha)
    if parse_expr(render_expr(tower)) != tower:
        return f"iteration round trip failed for {alpha}"


# -- suites ------------------------------------------------------------------------------


def run_suites(names: Optional[Sequence[str]] = None) -> Tuple[bool, List[str]]:
    """Run the named suites (all by default); returns overall success and
    one report line per check."""
    if names is None:
        names = list(SUITES)
    lines = []
    all_ok = True
    for suite in names:
        try:
            checks = SUITES[suite]
        except KeyError:
            raise RangeError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
        for fn in checks:
            result = fn()
            if result.ok:
                lines.append(f"ok   {result.name}")
            else:
                all_ok = False
                lines.append(f"FAIL {result.name}: {result.detail}")
    return all_ok, lines

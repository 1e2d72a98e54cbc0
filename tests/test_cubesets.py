import gc
import itertools
import random
import time
from functools import lru_cache, reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcopies import (
    CubeSet,
    DimensionError,
    EQ,
    GT,
    OMEGA,
    ONE,
    Ordinal,
    RangeError,
    SchemaError,
    ZERO,
    cs_bool,
    cs_complement,
    cs_empty,
    cs_fubini_positive,
    cs_full,
    cs_inter,
    cs_is_copy,
    cs_is_empty,
    cs_member,
    cs_order_type,
    cs_product,
    cs_rank,
    cs_select,
    cs_union,
    cube_from_json,
    cube_to_json,
    initial_segment,
    natset,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_to_point,
    parse_ordinal,
    point_to_ord,
)
from ordcopies.cubesets import _canonical, _minus, _ones, _repeat, _rotate, _whole_blocks
from ordcopies.layered import s_set_natset
from ordcopies.verify import (
    check_arithmetic_vs_lex,
    check_block_limit_table,
    random_cubeset,
    random_layered,
    random_ordinal,
    random_segment_bound,
)

o = parse_ordinal

bit = CubeSet.leaf


def nats(*bits, cycle=(0,)):
    return CubeSet.node([bit(b) for b in bits], [bit(b) for b in cycle])


EVENS = nats(cycle=(1, 0))
ODDS = nats(cycle=(0, 1))
EVEN_COLUMNS = CubeSet.node((), (cs_full(1), cs_empty(1)))


@st.composite
def cubesets(draw, dim=None):
    if dim is None:
        dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_cubeset(random.Random(seed), dim)


class TestRepresentation:
    def test_canonical_cycle_reduction(self):
        doubled = CubeSet.node((), [bit(1), bit(0), bit(1), bit(0)])
        assert doubled == EVENS
        assert len(doubled.cycle) == 2

    def test_prefix_absorption(self):
        padded = CubeSet.node([bit(1), bit(0), bit(1)], [bit(0), bit(1)])
        assert padded == EVENS

    def test_semantic_equality_is_structural(self):
        a = CubeSet.node([bit(1)], [bit(1)])
        assert a == cs_full(1)
        assert hash(a) == hash(cs_full(1))

    def test_dimension_cap(self):
        from ordcopies.errors import CapError

        with pytest.raises(CapError):
            cs_full(9)

    def test_cap_override(self, monkeypatch):
        from ordcopies.cubesets import cs_full as build_full

        monkeypatch.setenv("ORDCOPIES_NMAX", "6")
        build_full.cache_clear()
        try:
            assert cs_order_type(build_full(6)) == omega_power(6)
        finally:
            build_full.cache_clear()

    def test_mismatched_children_rejected(self):
        with pytest.raises(DimensionError):
            CubeSet.node([bit(1)], [cs_full(1)])

    def test_node_errors_in_order(self, monkeypatch):
        # An empty cycle, then a child that is not a cube set, then mixed
        # dimensions, then the cap: the first that applies is raised.
        from ordcopies import config
        from ordcopies.errors import CapError

        full2, full3 = cs_full(2), cs_full(3)
        caps = []
        monkeypatch.setattr(config, "dim_cap", lambda: caps.append(2) or 2)
        cases = [
            (("x", full3), (), SchemaError, "cycle must be nonempty"),
            ((full2,), (bit(1), "x"), SchemaError, "cube-set children must be cube sets"),
            ((full2,), (full3,), DimensionError, "all children must share a dimension"),
            ((), (full2,), CapError, "dimension 3 exceeds the cap 2"),
        ]
        for prefix, cycle, error, message in cases:
            with pytest.raises(error) as caught:
                CubeSet.node(prefix, cycle)
            assert str(caught.value) == message
        assert caps == [2]


class TestMembership:
    def test_full_contains_everything(self):
        assert cs_member(cs_full(2), (7, 3))

    def test_empty_contains_nothing(self):
        assert not cs_member(cs_empty(1), (5,))

    def test_odd_column_misses(self):
        assert not cs_member(EVEN_COLUMNS, (3, 0))
        assert cs_member(EVEN_COLUMNS, (4, 11))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            cs_member(cs_full(2), (1,))


class TestBooleanOps:
    def test_union_with_empty(self):
        assert cs_union(EVENS, cs_empty(1)) == EVENS

    def test_complement_involution(self):
        assert cs_complement(cs_complement(EVEN_COLUMNS)) == EVEN_COLUMNS

    def test_disjoint_residues(self):
        assert cs_is_empty(cs_inter(EVENS, ODDS))

    def test_dispatch(self):
        assert cs_bool("union", EVENS, ODDS) == cs_full(1)
        assert cs_bool("complement", EVENS) == ODDS
        with pytest.raises(SchemaError):
            cs_bool("xor", EVENS, ODDS)

    def test_operators(self):
        assert (EVENS | ODDS) == cs_full(1)
        assert (cs_full(1) - ODDS) == EVENS
        assert ~EVENS == ODDS

    @given(cubesets(), cubesets())
    @settings(max_examples=60)
    def test_de_morgan(self, a, b):
        if a.dim != b.dim:
            b = random_cubeset(random.Random(0), a.dim)
        assert ~(a | b) == (~a & ~b)
        assert a - b == (a & ~b)

    @given(cubesets(), cubesets())
    @settings(max_examples=60)
    def test_absorption(self, a, b):
        if a.dim != b.dim:
            b = random_cubeset(random.Random(0), a.dim)
        assert (a | (a & b)) == a
        assert (a & (a | b)) == a


class TestOrderType:
    def test_empty(self):
        assert cs_order_type(cs_empty(3)) == 0

    def test_full_is_the_whole_cube(self):
        for n in range(4):
            assert cs_order_type(cs_full(n)) == omega_power(n)

    def test_alternating_columns(self):
        three = CubeSet.node([bit(1)] * 3, [bit(0)])
        alternating = CubeSet.node((), (cs_full(1), three))
        assert cs_order_type(alternating) == o("w^(2)")

    def test_block_limit_closed_form(self):
        result = check_block_limit_table()
        assert result.ok, result.detail

    def test_finite_set(self):
        assert cs_order_type(nats(1, 1, 0, 1)) == 3

    @given(cubesets())
    @settings(max_examples=80)
    def test_bounded_by_ambient(self, a):
        assert cs_order_type(a) <= omega_power(a.dim)

    @given(cubesets(), cubesets())
    @settings(max_examples=80)
    def test_monotone(self, a, b):
        if a.dim != b.dim:
            b = random_cubeset(random.Random(1), a.dim)
        assert cs_order_type(a & b) <= cs_order_type(a) <= cs_order_type(a | b)


class TestIdealMembership:
    def test_full_positive(self):
        assert cs_fubini_positive(cs_full(2))

    def test_all_columns_finite(self):
        finite_cols = CubeSet.node((), (nats(1, 1),))
        assert not cs_fubini_positive(finite_cols)

    def test_even_columns_positive(self):
        assert cs_fubini_positive(EVEN_COLUMNS)

    @given(cubesets())
    @settings(max_examples=100)
    def test_agrees_with_order_type(self, a):
        assert cs_fubini_positive(a) == (cs_order_type(a) == omega_power(a.dim))

    @given(cubesets())
    @settings(max_examples=100)
    def test_indivisibility(self, a):
        target = omega_power(a.dim)
        assert cs_order_type(a) == target or cs_order_type(~a) == target


class TestEnumeration:
    def test_full_dim2(self):
        assert cs_select(cs_full(2), o("w*2+3")) == (2, 3)

    def test_minimum(self):
        assert cs_select(EVEN_COLUMNS, 0) == (0, 0)

    def test_evens(self):
        for k in range(6):
            assert cs_select(EVENS, k) == (2 * k,)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            cs_select(nats(1, 1), 2)
        with pytest.raises(RangeError):
            cs_select(cs_full(2), o("w^(2)"))

    def test_deep_cycle_skip(self):
        assert cs_select(EVENS, 1000) == (2000,)

    def test_block_boundaries(self):
        # Column types in the cycle are w and 3; walking across several
        # whole blocks must land exactly where direct ranking says.
        three = CubeSet.node([bit(1)] * 3, [bit(0)])
        a = CubeSet.node((), (cs_full(1), three))
        t = cs_order_type(a)
        assert t == o("w^(2)")
        for text in ("0", "w", "w+1", "w+2", "w+3", "w*2", "w*5+2", "w*7"):
            xi = o(text)
            p = cs_select(a, xi)
            assert cs_member(a, p)
            assert cs_rank(a, p) == xi

    @given(cubesets())
    @settings(max_examples=60)
    def test_rank_inverts(self, a):
        t = cs_order_type(a)
        if t == 0:
            return
        probe = o("w^(2)*2+w+3")
        xi = probe if probe < t else Ordinal(0)
        p = cs_select(a, xi)
        assert cs_member(a, p)
        assert cs_rank(a, p) == xi

    @given(cubesets(), st.lists(st.integers(0, 7), min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_members_are_reached(self, a, coords):
        p = tuple(coords[: a.dim])
        if cs_member(a, p):
            assert cs_select(a, cs_rank(a, p)) == p


def terms(alpha):
    """The CNF terms of an ordinal below w^w, with int exponents."""
    return [(int(e), c) for e, c in alpha.terms]


def _whole_blocks_by_bisection(block, xi):
    """The doubling-and-bisection search the closed form replaced: the
    largest q with block * q <= xi."""
    if xi < block:
        return 0
    hi = 1
    while ord_mul(block, hi) <= xi:
        hi <<= 1
    lo = hi >> 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ord_mul(block, mid) <= xi:
            lo = mid
        else:
            hi = mid
    return lo


class TestWholeBlocks:
    # Finite and infinite blocks, and remainders on both sides of theirs;
    # blocks are term lists, so every exponent is a natural number.
    BLOCKS = "1 2 3 5 w w+1 w+3 w*2 w*2+3 w*3+1 w^(2) w^(2)+w*2+3 w^(2)*2+1 w^(3)*2+w"
    REMAINDERS = "0 1 2 3 4 w w+1 w+3 w+4 w*2 w*2+3 w^(2) w^(2)+1 w^(2)+w*2 w^(2)+w*2+4 w^(5)"

    def test_closed_form_matches_bisection(self):
        pairs = 0
        for block in map(o, self.BLOCKS.split()):
            e = block.leading_exponent()
            for s in map(o, self.REMAINDERS.split()):
                if s >= omega_power(e):
                    continue
                for d in range(13):
                    xi = omega_power(e, d) + s if d else s
                    assert xi < block * OMEGA
                    expected = _whole_blocks_by_bisection(block, xi)
                    assert _whole_blocks(terms(block), terms(xi)) == expected
                    pairs += 1
        assert pairs > 1000

    def test_ties_on_the_leading_coefficient(self):
        block = [(1, 2), (0, 3)]
        assert _whole_blocks(block, [(1, 4), (0, 1)]) == 1
        assert _whole_blocks(block, [(1, 4), (0, 3)]) == 2
        assert _whole_blocks(block, [(1, 4), (0, 4)]) == 2
        assert _whole_blocks(block, [(1, 1), (0, 5)]) == 0


class TestPointCodes:
    def test_examples(self):
        assert point_to_ord((3, 5)) == o("w*3+5")
        assert point_to_ord((0, 0)) == 0
        assert point_to_ord((1, 2, 3)) == o("w^(2)+w*2+3")

    def test_inverses(self):
        assert ord_to_point(2, o("w*3+5")) == (3, 5)
        assert ord_to_point(3, o("w^(2)+w*2+3")) == (1, 2, 3)

    def test_range_check(self):
        with pytest.raises(RangeError):
            ord_to_point(2, o("w^(2)"))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    def test_round_trip(self, coords):
        p = tuple(coords)
        assert ord_to_point(len(p), point_to_ord(p)) == p


class TestSegmentsAndCopies:
    def test_segment_types(self):
        for text in ("0", "3", "w", "w+2", "w*3+1", "w^(2)"):
            alpha = o(text)
            assert cs_order_type(initial_segment(2, alpha)) == alpha

    def test_segment_rejects_large(self):
        with pytest.raises(RangeError):
            initial_segment(2, o("w^(3)"))

    def test_full_copy(self):
        assert cs_is_copy(cs_full(2), o("w^(2)"))

    def test_tail_points_needed(self):
        evens_in_col0 = CubeSet.node([EVENS], [cs_empty(1)])
        pair = CubeSet.node([cs_empty(1), nats(1, 1)], [cs_empty(1)])
        single = CubeSet.node([cs_empty(1), nats(1)], [cs_empty(1)])
        assert cs_is_copy(evens_in_col0 | pair, o("w+2"))
        assert not cs_is_copy(evens_in_col0 | single, o("w+2"))

    def test_ambient_check(self):
        with pytest.raises(RangeError):
            cs_is_copy(cs_full(2), o("w^(3)"))


class TestProduct:
    def test_realizes_ordinal_product(self):
        # type(first x second) = type(second) * type(first): the first
        # factor varies slowest.
        two = o("2")
        assert cs_order_type(cs_product(initial_segment(2, OMEGA), initial_segment(2, two))) == ord_mul(two, OMEGA)
        assert cs_order_type(cs_product(initial_segment(2, two), initial_segment(2, OMEGA))) == ord_mul(OMEGA, two)

    def test_lex_model_sweep(self):
        result = check_arithmetic_vs_lex()
        assert result.ok, result.detail


class TestJson:
    def test_schema_example(self):
        doc = {"dim": 2, "prefix": [], "cycle": [{"dim": 1, "prefix": [], "cycle": [1]}]}
        assert cube_from_json(doc) == cs_full(2)

    @given(cubesets())
    @settings(max_examples=60)
    def test_round_trip(self, a):
        assert cube_from_json(cube_to_json(a)) == a

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2, "prefix": []},
            {"dim": 0, "prefix": [], "cycle": []},
            {"dim": 2, "prefix": [], "cycle": []},
            {"dim": 1, "prefix": [2], "cycle": [0]},
            "full",
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(SchemaError):
            cube_from_json(doc)

    def test_dim_mismatch(self):
        doc = {"dim": 3, "prefix": [], "cycle": [1]}
        with pytest.raises(DimensionError):
            cube_from_json(doc)


# -- dimension-1 sets as masks, against plain bit lists -------------------------


def coprime(rng, dim, period):
    """The JSON of a subset of w^dim whose cycle has minimal length
    ``period`` at every level."""
    if dim == 1:
        bits = [1, 0] + [rng.randrange(2) for _ in range(period - 2)]
        return {"dim": 1, "prefix": [], "cycle": bits}
    cycle = [coprime(rng, dim - 1, period) for _ in range(period)]
    cycle[1] = cube_to_json(cs_empty(dim - 1))
    return {"dim": dim, "prefix": [], "cycle": cycle}


def coprime_sets(dim):
    """Seeded sets of periods 2, 3, 5 and 7, so a fold aligns to lcm 210."""
    rng = random.Random("coprime")
    return [cube_from_json(coprime(rng, dim, p)) for p in (2, 3, 5, 7)]


def leaf_canonical(prefix, cycle):
    """The canonical form of a leaf stream, computed leaf by leaf as the
    tuple representation did before subsets of w became masks."""
    n = len(cycle)
    for period in range(1, n):
        if n % period == 0 and cycle[period:] == cycle[:-period]:
            cycle = cycle[:period]
            break
    prefix = list(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = cycle[-1:] + cycle[:-1]
    return tuple(prefix), cycle


def stream(prefix, cycle, n):
    return [prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)] for i in range(n)]


def columns(a, n):
    return [bool(a.column(i).bit) for i in range(n)]


bit_streams = st.tuples(
    st.lists(st.booleans(), max_size=6), st.lists(st.booleans(), min_size=1, max_size=12)
)


class TestMasks:
    @given(bit_streams, bit_streams)
    @settings(max_examples=300, deadline=None)
    def test_against_bit_lists(self, x, y):
        a, b = natset(*x), natset(*y)
        n = max(len(x[0]), len(y[0])) + 3 * lcm(len(x[1]), len(y[1]))
        xs, ys = stream(*x, n), stream(*y, n)
        assert columns(cs_union(a, b), n) == [p or q for p, q in zip(xs, ys)]
        assert columns(cs_inter(a, b), n) == [p and q for p, q in zip(xs, ys)]
        assert columns(a - b, n) == [p and not q for p, q in zip(xs, ys)]
        assert columns(cs_complement(a), n) == [not p for p in xs]
        assert [cs_member(a, (i,)) for i in range(n)] == xs
        infinite = any(x[1])
        assert cs_order_type(a) == (OMEGA if infinite else Ordinal(sum(x[0])))
        assert cs_fubini_positive(a) == infinite
        for k, i in enumerate(i for i in range(n) if xs[i]):
            assert cs_select(a, k) == (i,)
            assert cs_rank(a, (i,)) == Ordinal(k)

    @given(bit_streams)
    @settings(max_examples=300, deadline=None)
    def test_canonical_form_matches_the_leaf_stream(self, x):
        leaves = tuple(map(bit, x[0])), tuple(map(bit, x[1]))
        a = natset(*x)
        assert (a.prefix, a.cycle) == leaf_canonical(*leaves)
        assert CubeSet.node(*leaves) is a

    def test_coprime_fold_builds_no_set_of_w_from_leaves(self, monkeypatch):
        import ordcopies.cubesets as cubesets

        built = []

        def refuse_leaves(name):
            inner = getattr(cubesets, name)

            def checked(*streams):
                for part in streams[:4]:
                    assert not any(c.dim == 0 for c in part), f"{name} got leaves"
                return inner(*streams)

            monkeypatch.setattr(cubesets, name, checked)

        refuse_leaves("_zip")
        refuse_leaves("_canonical")
        monkeypatch.setattr(cubesets, "_leaf_mask", lambda leaves: built.append(leaves))

        union = reduce(cs_union, coprime_sets(2))
        assert len(union.cycle) == 210
        assert cs_order_type(cs_complement(union)) == omega_power(2)
        assert built == []

    def test_repeat_and_rotate_against_bit_lists(self):
        rng = random.Random("repeat-rotate")
        for _ in range(3000):
            width = rng.randint(1, 40)
            bits = [rng.random() < 0.5 for _ in range(width)]
            mask = sum(1 << i for i, b in enumerate(bits) if b)
            total, k = rng.randint(0, 300), rng.randint(-100, 100)
            repeated = _repeat(mask, width, total)
            assert [bool(repeated >> i & 1) for i in range(total + 8)] == [
                i < total and bits[i % width] for i in range(total + 8)
            ]
            # The repunit product it replaced.
            units = -(-total // width)
            assert repeated == mask * (_ones(width * units) // _ones(width)) & _ones(total)
            turned = _rotate(mask, width, k)
            assert [bool(turned >> i & 1) for i in range(width)] == [
                bits[(i + k) % width] for i in range(width)
            ]

    def test_long_prefix_is_absorbed_in_linear_time(self):
        n = 10**6
        start = time.process_time()
        ones = natset([True] * n, (True,))
        one_point = natset([True] + [False] * (n - 1), (False,))
        elapsed = time.process_time() - start
        assert ones == cs_full(1)
        assert cs_order_type(one_point) == Ordinal(1) and len(one_point.prefix) == 1
        assert elapsed < 0.5


# -- period search by prime factors ---------------------------------------------


class TestPeriodSearch:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_cycle_mask_matches_the_leaf_stream(self, n):
        for m in range(1 << n):
            bits = [bool(m >> i & 1) for i in range(n)]
            for prefix in ((), (True,)):
                a = natset(prefix, bits)
                leaves = tuple(map(bit, prefix)), tuple(map(bit, bits))
                assert (a.prefix, a.cycle) == leaf_canonical(*leaves)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_object_stream_matches(self, n):
        # Every tuple over {0, 1, 2} up to length 8, over {0, 1} beyond; the
        # lengths 4, 8, 9 and 12 repeat a prime.
        alphabet = range(3 if n <= 8 else 2)
        for cycle in itertools.product(alphabet, repeat=n):
            for prefix in ((), (cycle[-1],), (2, cycle[-1])):
                assert _canonical(prefix, cycle) == leaf_canonical(prefix, cycle)

    def test_repeated_primes_reduce_fully(self):
        assert _canonical((), (0, 1) * 4) == ((), (0, 1))
        assert _canonical((), (0, 0, 1) * 3) == ((), (0, 0, 1))
        assert _canonical((), (1,) * 12) == ((), (1,))
        assert natset((), [True, False, False, False] * 3).cycle == (bit(1), bit(0), bit(0), bit(0))


# -- order types on int exponents -------------------------------------------------


@lru_cache(maxsize=None)
def reference_order_type(a):
    """The order type summed on Ordinal arithmetic, block sum and all;
    cached, since the reference walks ask for the same columns again."""
    if a.dim == 0:
        return ONE if a.bit else ZERO
    if a.dim == 1:
        if any(leaf.bit for leaf in a.cycle):
            return OMEGA
        return Ordinal(sum(1 for leaf in a.prefix if leaf.bit))
    total = ZERO
    for col in a.prefix:
        total = ord_add(total, reference_order_type(col))
    block = ZERO
    for col in a.cycle:
        block = ord_add(block, reference_order_type(col))
    if block.is_zero():
        return total
    limit = omega_power(ord_add(block.leading_exponent(), ONE))
    return ord_add(total, limit)


# A cycle column whose own prefix is taller than its cycle: a height that
# ignored prefix columns would type this w^(2), not w^(3).
TALL_PREFIX = CubeSet.node([], [CubeSet.node([cs_full(2)], [initial_segment(2, 1)])])


class TestOrderTypeByHeight:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_against_the_ordinal_sum(self, dim):
        rng = random.Random(f"order-type:{dim}")
        for _ in range(300):
            a, b = random_cubeset(rng, dim), random_cubeset(rng, dim)
            for x in (a, cs_complement(a), cs_union(a, b), cs_inter(a, b), a - b):
                assert cs_order_type(x) == reference_order_type(x)

    def test_a_tall_prefix_inside_the_cycle(self):
        assert cs_order_type(TALL_PREFIX) == reference_order_type(TALL_PREFIX) == omega_power(3)
        rest = cs_complement(TALL_PREFIX)
        assert cs_order_type(rest) == reference_order_type(rest)

    def test_no_ordinal_arithmetic(self, monkeypatch):
        import ordcopies.cubesets as cubesets
        import ordcopies.layered as layered

        for module in (cubesets, layered):
            for name in ("ord_add", "ord_mul", "left_difference"):
                assert not hasattr(module, name), f"{module.__name__} has {name}"
        assert not hasattr(layered, "cs_order_type")

        sets = [TALL_PREFIX, cs_complement(TALL_PREFIX), reduce(cs_union, coprime_sets(3))]
        sets += [random_cubeset(random.Random(i), 1 + i % 4) for i in range(50)]
        expected = [reference_order_type(a) for a in sets]
        rng = random.Random("no-ordinal-arithmetic")
        towers = [random_layered(rng, cyclic_tails=True) for _ in range(200)]
        levels = [[s_set_natset(a, m) for m in range(5)] for a in towers]

        def refuse(*args):
            raise AssertionError("ordinal arithmetic on the set path")

        monkeypatch.setattr(cubesets, "omega_power", refuse)
        assert [cs_order_type(a) for a in sets] == expected
        # S^m reads heights, so it answers without any order type.
        monkeypatch.setattr(cubesets, "cs_order_type", refuse)
        assert [[s_set_natset(a, m) for m in range(5)] for a in towers] == levels


# -- select and rank against the Ordinal walk that term lists replaced --------------


def reference_left_difference(a, b):
    """The unique x with a + x = b, for a <= b, on Ordinal terms."""
    c = ord_cmp(a, b)
    if c == GT:
        raise RangeError(f"{a} exceeds {b}; no left difference")
    if c == EQ:
        return ZERO
    for i, ((ea, ca), (eb, cb)) in enumerate(zip(a.terms, b.terms)):
        if ea != eb:
            return Ordinal._make(b.terms[i:])
        if ca != cb:
            return Ordinal._make(((eb, cb - ca),) + b.terms[i + 1 :])
    return Ordinal._make(b.terms[len(a.terms) :])


def reference_block_type(a):
    block = ZERO
    for col in a.cycle:
        block = ord_add(block, reference_order_type(col))
    return block


def reference_select(a, xi):
    """The xi-th member by the column walk on Ordinal arithmetic, at every
    dimension (a subset of w walks its leaves)."""
    if a.dim == 0:
        return ()
    for i, col in enumerate(a.prefix):
        t = reference_order_type(col)
        if xi < t:
            return (i,) + reference_select(col, xi)
        xi = reference_left_difference(t, xi)
    block = reference_block_type(a)
    skipped = _whole_blocks_by_bisection(block, xi)
    xi = reference_left_difference(ord_mul(block, skipped), xi)
    base = len(a.prefix) + skipped * len(a.cycle)
    for j, col in enumerate(a.cycle):
        t = reference_order_type(col)
        if xi < t:
            return (base + j,) + reference_select(col, xi)
        xi = reference_left_difference(t, xi)
    raise AssertionError("selection walked past its bound")


def reference_rank(a, point):
    if a.dim == 0:
        return ZERO
    i = point[0]
    explicit = len(a.prefix)
    total = ZERO
    for col in a.prefix[: min(i, explicit)]:
        total = ord_add(total, reference_order_type(col))
    if i > explicit:
        whole, partial = divmod(i - explicit, len(a.cycle))
        total = ord_add(total, ord_mul(reference_block_type(a), whole))
        for j in range(partial):
            total = ord_add(total, reference_order_type(a.cycle[j]))
    return ord_add(total, reference_rank(a.column(i), point[1:]))


@st.composite
def cnf_terms(draw):
    """An ordinal below w^w as int CNF terms; few exponents, so that pairs
    often share leading terms."""
    exponents = draw(st.lists(st.integers(0, 3), max_size=4, unique=True))
    return [(e, draw(st.integers(1, 3))) for e in sorted(exponents, reverse=True)]


seeded_ordinals = st.builds(
    lambda seed: random_ordinal(random.Random(seed), depth=2), st.integers(0, 2**32 - 1)
)


class TestSelectRankReference:
    def check(self, a, indices):
        """cs_select and cs_rank against the references on each index below
        the type; returns how many were checked."""
        t = cs_order_type(a)
        checked = 0
        for xi in indices:
            if not xi < t:
                continue
            p = cs_select(a, xi)
            assert p == reference_select(a, xi)
            assert cs_rank(a, p) == reference_rank(a, p) == xi
            checked += 1
        return checked

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_random_sets(self, dim):
        rng = random.Random(f"select-rank:{dim}")
        checked = 0
        for _ in range(150):
            a = random_cubeset(rng, dim)
            checked += self.check(a, [random_segment_bound(rng, dim) for _ in range(8)])
        assert checked > 300

    def test_tall_prefix_and_coprime_fold(self):
        rng = random.Random("select-rank:fold")
        sets = [TALL_PREFIX, cs_complement(TALL_PREFIX)]
        sets += [reduce(cs_union, coprime_sets(dim)) for dim in (2, 3)]
        for a in sets:
            indices = [random_segment_bound(rng, a.dim) for _ in range(40)]
            assert self.check(a, indices) > 10

    @given(cnf_terms(), cnf_terms())
    @settings(max_examples=300)
    def test_list_order_and_minus(self, x, y):
        a, b = Ordinal.from_terms(x), Ordinal.from_terms(y)
        assert ((x > y) - (x < y)) == ord_cmp(a, b)
        for lo, hi, lo_terms, hi_terms in ((a, b, x, y), (b, a, y, x)):
            if lo <= hi:
                assert _minus(lo_terms, hi_terms) == terms(reference_left_difference(lo, hi))
        for k in range(len(x) + 1):
            assert _minus(x[:k], x) == x[k:]

    @given(seeded_ordinals, seeded_ordinals)
    def test_left_difference_recombines(self, a, b):
        if a <= b:
            assert ord_add(a, reference_left_difference(a, b)) == b
        else:
            with pytest.raises(RangeError):
                reference_left_difference(a, b)


# -- the per-call apply cache, without timing ---------------------------------------


def distinct_column_pairs(a, b):
    """The distinct pairs of dimension-1 columns that a Boolean op on a and
    b aligns, found column by column."""
    if a.dim == 1:
        return {(a, b)}
    n = max(len(a.prefix), len(b.prefix)) + lcm(len(a.cycle), len(b.cycle))
    return set().union(*(distinct_column_pairs(a.column(i), b.column(i)) for i in range(n)))


class TestApplyCache:
    def test_union_fold_does_one_mask_op_per_distinct_pair(self, monkeypatch):
        sets = coprime_sets(3)
        ops = []
        masks = CubeSet._masks
        counted = classmethod(lambda cls, *m: ops.append(m) or masks(*m))
        monkeypatch.setattr(CubeSet, "_masks", counted)
        acc, distinct, done = sets[0], 0, 0
        for other in sets[1:]:
            distinct += len(distinct_column_pairs(acc, other))
            done -= len(ops)
            acc = cs_union(acc, other)
            done += len(ops)
        assert len(acc.cycle) == 210
        # Without the cache every aligned column pair is an op: 19,425 here,
        # against 1,254 distinct pairs.
        assert done <= 2 * distinct

    def test_ops_leave_no_reference_cycle(self):
        sets = coprime_sets(3)
        gc.collect()
        gc.disable()
        try:
            union = reduce(cs_union, sets)
            cs_complement(union)
            cs_order_type(union)
            assert gc.collect() == 0
        finally:
            gc.enable()

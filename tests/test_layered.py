import math
import operator
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordcopies import (
    CubeSet,
    DimensionError,
    FinCof,
    FusionPreconditionError,
    IdealError,
    LayeredSet,
    OMEGA_OMEGA,
    OrdcopiesError,
    RangeError,
    SchemaError,
    ZERO,
    cs_diff,
    cs_empty,
    cs_fubini_positive,
    cs_full,
    cs_inter,
    cs_is_empty,
    cs_member,
    cs_order_type,
    cube_to_json,
    layered_from_json,
    layered_to_json,
    ls_diff,
    ls_fusion,
    ls_in_ideal,
    ls_inter,
    ls_is_reduction,
    ls_order_type,
    ls_s_set,
    ls_subset_ideal,
    ls_supp,
    ls_union,
    natset,
    natset_to_fincof,
    omega_power,
    ord_add,
    parse_ordinal,
)
from ordcopies.cubesets import (
    _and_not,
    _bits,
    _canonical,
    _height,
    _lift,
    _ones,
    _unroll,
    _zip,
    cs_complement,
    cs_is_full,
)
from ordcopies.layered import (
    _check_prefix_cap,
    _level_table,
    as_natset,
    s_set_natset,
    supp_natset,
)
from ordcopies.verify import (
    check_fusion_claims,
    check_ideal_consistency,
    check_level_set_laws,
    random_fusion_instance,
    random_layered,
)

o = parse_ordinal

FULL = LayeredSet.full()
EMPTY = LayeredSet.empty()
EVEN_COLUMNS = LayeredSet.make((), (True, False))
EVENS = natset((), (True, False))


@st.composite
def layered_sets(draw, cyclic_tails=True):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_layered(random.Random(seed), cyclic_tails=cyclic_tails)


class TestFinCof:
    def test_membership(self):
        assert 3 in FinCof.finite({3, 5})
        assert 4 not in FinCof.finite({3, 5})
        assert 4 in FinCof.cofinite({3, 5})
        assert 3 not in FinCof.cofinite({3, 5})

    def test_natset_round_trip(self):
        for fc in (FinCof.finite({0, 4}), FinCof.cofinite({1, 2}), FinCof.finite()):
            assert natset_to_fincof(fc.to_natset()) == fc

    def test_json(self):
        a = FinCof.cofinite({5, 1})
        assert a.to_json() == {"kind": "cofinite", "exceptions": [1, 5]}
        assert FinCof.from_json(a.to_json()) == a
        with pytest.raises(SchemaError):
            FinCof.from_json({"kind": "open", "exceptions": []})


class TestRepresentation:
    def test_uniform_columns_become_flags(self):
        a = LayeredSet.make([cs_full(1), cs_empty(2)], "empty")
        assert a.prefix == (True,)

    def test_tail_absorbs_prefix(self):
        assert LayeredSet.make(["full", "full"], "full") == FULL

    def test_cyclic_tail_reduction(self):
        a = LayeredSet.make((), ("full", "empty", "full", "empty"))
        assert a == EVEN_COLUMNS

    def test_column_dimension_checked(self):
        with pytest.raises(DimensionError):
            LayeredSet.make([cs_full(2)], "empty")

    def test_prefix_cap(self):
        from ordcopies.errors import CapError

        with pytest.raises(CapError):
            LayeredSet.make(["empty"] * 30 + ["full"], "empty")


class TestCanonicalBooleanResults:
    """Boolean results normalize empty/full cube columns like make does."""

    COLUMN = natset([1, 0], (1, 0, 0))

    def test_difference_with_itself_is_empty(self):
        a = LayeredSet.make([self.COLUMN])
        assert ls_diff(a, a) == EMPTY
        assert hash(ls_diff(a, a)) == hash(EMPTY)
        assert ls_inter(a, LayeredSet.make([~self.COLUMN])) == EMPTY

    def test_union_with_complement_is_full_column(self):
        union = ls_union(LayeredSet.make([self.COLUMN]), LayeredSet.make([~self.COLUMN]))
        full_column = LayeredSet.make(["full"], "empty")
        assert union == full_column
        assert hash(union) == hash(full_column)
        assert layered_to_json(union) == {"prefix": ["full"], "tail": "empty"}


def in_level(a, m, n):
    """Column n of a is in S^m, by its order type: a full flag column n is
    w^(n+1), and a cube column reaches w^(m+1) or not."""
    col = a.column(n)
    if isinstance(col, bool):
        return col and n >= m
    return cs_order_type(col) >= omega_power(m + 1)


def reference_s_set(a, m):
    """S^m with the naturals below m taken off by a set difference."""
    bits = [col if isinstance(col, bool) else _height(col) > m for col in a.prefix]
    return cs_diff(natset(bits, a.tail), CubeSet._masks(_ones(m), m, 0, 1))


# The bool-tuple routes the layered sets ran on before their tails became
# masks, kept as references: they read ``.prefix`` and ``.tail`` only.


def parent_s_set_natset(a, m):
    bits = [col if isinstance(col, bool) else _height(col) > m for col in a.prefix]
    s = natset(bits, a.tail)
    explicit = max(s._plen, m)
    pmask, cmask = _unroll(s, explicit, s._clen)
    return CubeSet._masks(pmask >> m << m, explicit, cmask, s._clen)


def parent_supp_natset(a):
    return natset([col is not False for col in a.prefix], a.tail)


def parent_combine(prefix_a, tail_a, prefix_b, tail_b, bit_op):
    """``bit_op`` column by column over the lcm of the tails, as canonical
    (prefix, tail) tuples."""
    cube_op = _lift(bit_op)

    def flag_or_column(col):
        return False if cs_is_empty(col) else True if cs_is_full(col) else col

    def against_flag(if_out, if_in, col):
        return if_in if if_in == if_out else col if if_in else cs_complement(col)

    def col_op(x, y):
        if isinstance(x, bool):
            if isinstance(y, bool):
                return bit_op(x, y)
            return against_flag(bit_op(x, False), bit_op(x, True), y)
        if isinstance(y, bool):
            return against_flag(bit_op(False, y), bit_op(True, y), x)
        return flag_or_column(cube_op(x, y))

    return _canonical(*_zip(prefix_a, tail_a, prefix_b, tail_b, col_op))


def parent_subset_ideal(a, b):
    g = math.gcd(len(a.tail), len(b.tail))
    full = {(len(a.prefix) + x) % g for x, bit in enumerate(a.tail) if bit}
    return not any((len(b.prefix) + y) % g in full for y, bit in enumerate(b.tail) if not bit)


def as_index(s):
    fincof = natset_to_fincof(s)
    return s if fincof is None else fincof


def reference_json(prefix, tail):
    text = lambda flag: "full" if flag else "empty"
    return {
        "prefix": [text(col) if isinstance(col, bool) else cube_to_json(col) for col in prefix],
        "tail": text(tail[0]) if len(tail) == 1 else [text(flag) for flag in tail],
    }


LEVELS = [*range(12), 17, 40]


class TestAgainstTheParentRoutes:
    """Tails as masks, levels by height profile and the level table give
    what the bool-tuple routes gave, on 2,048 seeded sets."""

    SETS = 2048

    def sets(self, name):
        rng = random.Random(name)
        return [random_layered(rng, cyclic_tails=True) for _ in range(self.SETS)]

    def test_levels_and_support(self):
        samples = self.sets("mask-levels")
        assert any(len(a.tail) > 1 for a in samples)
        for a in samples:
            for m in LEVELS:
                expected = parent_s_set_natset(a, m)
                assert s_set_natset(a, m) == expected
                assert ls_s_set(a, m) == as_index(expected)
            assert supp_natset(a) == parent_supp_natset(a)
            assert ls_supp(a) == as_index(parent_supp_natset(a))

    def test_boolean_operations(self):
        samples = self.sets("mask-combine")
        ops = ((ls_union, operator.or_), (ls_inter, operator.and_), (ls_diff, _and_not))
        for a, b in zip(samples[::2], samples[1::2]):
            for ls_op, bit_op in ops:
                prefix, tail = parent_combine(a.prefix, a.tail, b.prefix, b.tail, bit_op)
                result = ls_op(a, b)
                assert (result.prefix, result.tail) == (prefix, tail)
                rebuilt = LayeredSet.make(prefix, tail)
                assert result == rebuilt and hash(result) == hash(rebuilt)
                assert layered_to_json(result) == reference_json(prefix, tail)

    def test_subset_ideal(self):
        samples = self.sets("mask-subset")
        pairs = list(zip(samples[::2], samples[1::2])) + [(a, a) for a in samples[:64]]
        answers = [ls_subset_ideal(a, b) for a, b in pairs]
        assert answers == [parent_subset_ideal(a, b) for a, b in pairs]
        assert set(answers) == {False, True}

    def test_long_tails_fold_to_the_same_residues(self):
        rng = random.Random("mask-subset-long")
        for _ in range(200):
            a, b = (
                LayeredSet.make(
                    ["full"] * rng.randint(0, 3),
                    [rng.random() < 0.97 for _ in range(rng.choice((6, 35, 60, 97, 210)))],
                )
                for _ in range(2)
            )
            assert ls_subset_ideal(a, b) == parent_subset_ideal(a, b)


class TestLevelTable:
    """The level table keeps levels within the prefix cap only, and its
    state never changes an answer."""

    def test_maxsize_is_pinned(self):
        assert _level_table.cache_info().maxsize == 4096

    def test_a_level_past_the_cap_is_not_kept(self):
        m = 10**6
        before = _level_table.cache_info().currsize
        assert ls_s_set(FULL, m) == as_index(parent_s_set_natset(FULL, m))
        assert ls_s_set(EVEN_COLUMNS, m) == parent_s_set_natset(EVEN_COLUMNS, m)
        assert _level_table.cache_info().currsize == before

    def test_answers_do_not_depend_on_the_table(self):
        rng = random.Random("level-table")
        samples = [random_layered(rng, cyclic_tails=True) for _ in range(512)]

        def answers():
            return [(ls_supp(a), *(ls_s_set(a, m) for m in LEVELS)) for a in samples]

        _level_table.cache_clear()
        cold = answers()
        assert answers() == cold
        for k in range(_level_table.cache_info().maxsize):
            _level_table((), k, 64, 0)
        assert _level_table.cache_info().currsize == _level_table.cache_info().maxsize
        assert answers() == cold
        assert cold == [
            (as_index(parent_supp_natset(a)), *(as_index(parent_s_set_natset(a, m)) for m in LEVELS))
            for a in samples
        ]


def reference_order_type(a):
    """The tower's order type as the Ordinal sum of its column types."""
    total = ZERO
    for n, col in enumerate(a.prefix):
        if isinstance(col, bool):
            col_type = omega_power(n + 1) if col else ZERO
        else:
            col_type = cs_order_type(col)
        total = ord_add(total, col_type)
    if any(a.tail):
        total = ord_add(total, OMEGA_OMEGA)
    return total


class TestByHeight:
    """S^m reads heights and the tower's type sums int terms; both against
    the order-type route, on seeded sets with cyclic tails."""

    SETS = 2048

    def test_level_sets_against_order_types(self):
        rng = random.Random("s-set-by-height")
        checked = 0
        for _ in range(self.SETS):
            a = random_layered(rng, cyclic_tails=True)
            # Past the prefix and every level, the tail repeats.
            columns = len(a.prefix) + 6 + 2 * len(a.tail)
            for m in range(6):
                s_m = s_set_natset(a, m)
                assert [cs_member(s_m, [n]) for n in range(columns)] == [
                    in_level(a, m, n) for n in range(columns)
                ]
                checked += 1
        assert checked == 6 * self.SETS

    def test_level_sets_against_a_set_difference(self):
        rng = random.Random("s-set-by-mask")
        for _ in range(self.SETS):
            a = random_layered(rng, cyclic_tails=True)
            for m in [*range(len(a.prefix) + 4), 9, 17, 40]:
                assert s_set_natset(a, m) == reference_s_set(a, m)

    def test_level_sets_take_no_set_difference(self, monkeypatch):
        rng = random.Random("s-set-no-diff")
        cases = [(random_layered(rng, cyclic_tails=True), m) for m in range(6) for _ in range(100)]
        expected = [reference_s_set(a, m) for a, m in cases]

        def refuse(*args):
            raise AssertionError("S^m took a set difference")

        monkeypatch.setattr("ordcopies.layered.cs_diff", refuse)
        assert [s_set_natset(a, m) for a, m in cases] == expected

    def test_order_type_against_the_ordinal_sum(self):
        rng = random.Random("ls-order-type")
        for _ in range(self.SETS):
            a = random_layered(rng, cyclic_tails=True)
            assert ls_order_type(a) == reference_order_type(a)


class TestUnalignedPeriods:
    """Level sets and fusion on tails whose period does not divide the
    index set's cycle, checked column by column against the definitions."""

    COLUMNS = 60

    def test_level_sets_against_coprime_index(self):
        # Tail period 3 against an index cycle of period 2 (lcm 6), with
        # levels past the prefix so the tail is read from a shifted phase.
        a = LayeredSet.make([natset([1], (0, 1)), "full"], (True, True, False))
        for m in range(6):
            s_m = s_set_natset(a, m)
            even_part = cs_inter(EVENS, s_m)
            for n in range(self.COLUMNS):
                assert cs_member(s_m, [n]) == in_level(a, m, n)
                assert cs_member(even_part, [n]) == (n % 2 == 0 and in_level(a, m, n))

    def test_fusion_against_longer_index_cycle(self):
        # The index set must lie almost inside every level set, so a cycle
        # coprime to the tail's would force a full tail; periods 4 and 6
        # still align only at their lcm 12.
        first = LayeredSet.make([natset([0, 1], (1,))], "full")
        even_last_coordinate = CubeSet.node((), (CubeSet.node((), (EVENS,)),))
        last = LayeredSet.make(["full", "empty", even_last_coordinate], (True, False, True, True))
        index = natset([1, 1, 1, 1], (0, 0, 0, 0, 0, 1))
        result = ls_fusion([first, last], index)
        for n in range(self.COLUMNS):
            surviving = cs_member(index, [n]) and all(
                in_level(a, m, n) for a in (first, last) for m in range(2)
            )
            assert result.column(n) == (last.column(n) if surviving else False)


class TestLevelSets:
    def test_full_tower(self):
        for m in (0, 3, 7):
            assert ls_s_set(FULL, m) == FinCof.cofinite(range(m))

    def test_empty(self):
        assert ls_s_set(EMPTY, 3) == FinCof.finite()

    def test_single_full_column(self):
        a = LayeredSet.make(["empty"] * 5 + ["full"], "empty")
        assert ls_s_set(a, 3) == FinCof.finite({5})
        assert ls_s_set(a, 7) == FinCof.finite()

    def test_periodic_result_stays_exact(self):
        s = ls_s_set(EVEN_COLUMNS, 0)
        assert isinstance(s, CubeSet)
        assert s == EVENS

    @given(layered_sets(cyclic_tails=False))
    @settings(max_examples=60)
    def test_uniform_tails_give_fincof(self, a):
        for m in range(4):
            assert isinstance(ls_s_set(a, m), FinCof)

    def test_laws_sample(self):
        result = check_level_set_laws(samples=60)
        assert result.ok, result.detail


class TestSupport:
    def test_full(self):
        assert ls_supp(FULL) == FinCof.cofinite()

    def test_empty(self):
        assert ls_supp(EMPTY) == FinCof.finite()

    def test_point_column(self):
        point = CubeSet.node(
            [CubeSet.node([CubeSet.leaf(1)], [CubeSet.leaf(0)])], [cs_empty(1)]
        )
        a = LayeredSet.make([cs_empty(1), point], "empty")
        assert ls_supp(a) == FinCof.finite({1})


class TestIdealMembership:
    def test_prefix_only_set(self):
        assert ls_in_ideal(LayeredSet.make([cs_full(1), "full"], "empty"))

    def test_full_tower_positive(self):
        assert not ls_in_ideal(FULL)

    def test_full_tail_with_cleared_prefix(self):
        assert not ls_in_ideal(LayeredSet.make(["empty"] * 3, "full"))

    def test_consistency_sample(self):
        result = check_ideal_consistency(samples=80)
        assert result.ok, result.detail

    def test_reads_the_tail_without_level_sets_or_order_types(self, monkeypatch):
        point = CubeSet.node([CubeSet.node([natset([True])], [cs_empty(1)])], [cs_empty(2)])
        samples = [
            LayeredSet.make([cs_full(1), "empty", point], (False, True)),
            LayeredSet.make([EVENS, cs_empty(2), point], (True, False, False)),
            LayeredSet.make([EVENS, cs_full(2), point], "empty"),
        ]
        rng = random.Random(15)
        samples += [random_layered(rng, cyclic_tails=True) for _ in range(300)]
        assert any(
            len(a.tail) > 1 and any(isinstance(col, CubeSet) for col in a.prefix) for a in samples
        )
        # The S^m route: the set is in the ideal iff some level set is empty.
        expected = [
            any(cs_is_empty(s_set_natset(a, m)) for m in range(len(a.prefix) + 2)) for a in samples
        ]
        assert expected[:3] == [False, False, True] and True in expected[3:]

        def refuse(*args):
            raise AssertionError("ideal membership built a level set or an order type")

        monkeypatch.setattr("ordcopies.layered.s_set_natset", refuse)
        monkeypatch.setattr("ordcopies.layered._height", refuse)
        monkeypatch.setattr("ordcopies.layered._type_terms", refuse)
        assert [ls_in_ideal(a) for a in samples] == expected


class TestIdealInclusion:
    def test_pointwise_subset(self):
        a = LayeredSet.make(["full", "full"], "full")
        assert ls_subset_ideal(a, FULL)

    def test_full_vs_prefix_only(self):
        assert not ls_subset_ideal(FULL, LayeredSet.make(["full", "full"], "empty"))

    def test_one_column_difference(self):
        minus3 = LayeredSet.make(["full"] * 3 + ["empty"], "full")
        assert ls_subset_ideal(FULL, minus3)

    @given(layered_sets(), layered_sets())
    @settings(max_examples=60)
    def test_matches_level_set_witness(self, a, b):
        diff = ls_diff(a, b)
        bound = len(diff.prefix) + 2
        witnessed = any(cs_is_empty(s_set_natset(diff, m)) for m in range(bound))
        assert ls_subset_ideal(a, b) == witnessed


class TestReduction:
    def test_whole_line_reduces_full(self):
        assert ls_is_reduction(FinCof.cofinite(), FULL, 8)

    def test_evens_reduce_full(self):
        assert ls_is_reduction(EVENS, FULL, 10)

    def test_whole_line_fails_even_columns(self):
        assert not ls_is_reduction(FinCof.cofinite(), EVEN_COLUMNS, 1)

    def test_requires_positive_target(self):
        with pytest.raises(IdealError):
            ls_is_reduction(FinCof.cofinite(), EMPTY, 3)


class TestFusion:
    def test_all_full_r2(self):
        result = ls_fusion([FULL, FULL, FULL], FinCof.cofinite())
        assert result == LayeredSet.make(["empty", "empty"], "full")

    def test_single_full_with_evens(self):
        result = ls_fusion([FULL], EVENS)
        assert result == EVEN_COLUMNS

    def test_tail_of_line(self):
        result = ls_fusion([FULL, FULL], FinCof.cofinite(range(5)))
        assert result == LayeredSet.make(["empty"] * 5, "full")

    def test_rejects_finite_index(self):
        with pytest.raises(IdealError):
            ls_fusion([FULL], FinCof.finite({1, 2, 3}))

    def test_reports_ideal_input(self):
        with pytest.raises(FusionPreconditionError) as exc:
            ls_fusion([FULL, EMPTY], FinCof.cofinite())
        assert exc.value.n == 1

    def test_reports_failing_level(self):
        odd_columns = LayeredSet.make((), (False, True))
        with pytest.raises(FusionPreconditionError) as exc:
            ls_fusion([FULL, odd_columns], FinCof.cofinite())
        assert (exc.value.m, exc.value.n) == (0, 1)

    def test_claims_sample(self):
        result = check_fusion_claims(samples=40)
        assert result.ok, result.detail

    def test_output_positive_and_nested(self):
        rng = random.Random(7)
        for _ in range(20):
            sets, index = random_fusion_instance(rng)
            inner = ls_fusion(sets[:-1], index)
            outer = ls_fusion(sets, index)
            assert not ls_in_ideal(inner)
            assert not ls_in_ideal(outer)
            assert ls_subset_ideal(outer, inner)


def random_index(rng):
    """A seeded dimension-1 index set, prefix and cycle of random lengths."""
    prefix = [rng.random() < 0.5 for _ in range(rng.randint(0, 5))]
    return natset(prefix, [rng.random() < 0.7 for _ in range(rng.randint(1, 6))])


def almost_inside(index, level):
    return not cs_fubini_positive(cs_diff(index, level))


def reference_is_reduction(s, a, m_max):
    """The level-by-level reduction test that the tail reading replaced."""
    if ls_in_ideal(a):
        raise IdealError("reduction is only defined against a positive set")
    index = as_natset(s)
    for m in range(m_max + 1):
        if cs_fubini_positive(cs_diff(index, s_set_natset(a, m))):
            return False
    return True


def reference_fusion(a_list, s):
    """Fusion with every level set S^0 ... S^r of every input, tested and
    intersected one by one, as it ran before the tail reading."""
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
        for m in range(r + 1):
            s_m = s_set_natset(a, m)
            if cs_fubini_positive(cs_diff(index, s_m)):
                raise FusionPreconditionError(
                    f"index set is not almost contained in S^{m} of input {n}",
                    m=m,
                    n=n,
                )
            surviving = cs_inter(surviving, s_m)
    _check_prefix_cap(surviving._plen)
    flags = (
        tuple(d == "1" for d in _bits(surviving._prefix, surviving._plen)),
        tuple(d == "1" for d in _bits(surviving._cycle, surviving._clen)),
    )
    last = a_list[r]
    return LayeredSet.make(*parent_combine(last.prefix, last.tail, *flags, operator.and_))


def outcome(f, *args):
    """The result of ``f``, or its error as (type, message, m, n)."""
    try:
        return f(*args)
    except OrdcopiesError as exc:
        return type(exc), str(exc), getattr(exc, "m", None), getattr(exc, "n", None)


class TestAlmostInclusionOffTheTails:
    """Every S^m agrees with the tail's full columns from some column on, so
    almost-inclusion in S^m has one answer for all m; the reductions,
    fusion and inclusion modulo the ideal read it once."""

    CASES = 600

    def test_level_independence(self):
        rng = random.Random("level-independence")
        answers = set()
        for _ in range(self.CASES):
            a = random_layered(rng, cyclic_tails=True)
            index = random_index(rng)
            levels = {almost_inside(index, s_set_natset(a, m)) for m in range(7)}
            assert levels == {almost_inside(index, supp_natset(a))}
            answers |= levels
        assert answers == {False, True}

    def test_reduction_against_the_level_loop(self):
        rng = random.Random("reduction-reference")
        seen = set()
        for _ in range(self.CASES):
            a = random_layered(rng, cyclic_tails=True)
            index = random_index(rng)
            m_max = rng.randint(-2, 5)
            expected = outcome(reference_is_reduction, index, a, m_max)
            assert outcome(ls_is_reduction, index, a, m_max) == expected
            seen.add(expected if isinstance(expected, bool) else expected[0])
        assert seen == {False, True, IdealError}

    def test_fusion_against_the_level_loop(self):
        rng = random.Random("fusion-reference")
        seen = set()
        for i in range(self.CASES):
            sets, index = random_fusion_instance(rng)
            if i % 3 == 1:
                sets = [random_layered(rng, cyclic_tails=True) for _ in range(rng.randint(1, 4))]
            if i % 4 == 2:
                index = random_index(rng)
            expected = outcome(reference_fusion, sets, index)
            assert outcome(ls_fusion, sets, index) == expected
            seen.add(type(expected) if isinstance(expected, LayeredSet) else expected[0])
        assert seen == {LayeredSet, FusionPreconditionError, IdealError}

    def test_subset_ideal_builds_no_difference(self, monkeypatch):
        rng = random.Random("subset-off-tails")
        pairs = [
            (random_layered(rng, cyclic_tails=True), random_layered(rng, cyclic_tails=True))
            for _ in range(self.CASES)
        ]
        expected = [ls_in_ideal(ls_diff(a, b)) for a, b in pairs]
        assert set(expected) == {False, True}

        def refuse(*args):
            raise AssertionError("inclusion modulo the ideal aligned the two sets")

        monkeypatch.setattr("ordcopies.layered.ls_diff", refuse)
        monkeypatch.setattr("ordcopies.layered._combine", refuse)
        monkeypatch.setattr("ordcopies.layered._repeat", refuse)
        monkeypatch.setattr("ordcopies.cubesets._zip", refuse)
        assert [ls_subset_ideal(a, b) for a, b in pairs] == expected

    def test_fusion_builds_one_level_set_per_input(self, monkeypatch):
        rng = random.Random("fusion-one-level")
        calls = []

        def counted(a, m):
            calls.append(m)
            return s_set_natset(a, m)

        monkeypatch.setattr("ordcopies.layered.s_set_natset", counted)
        for _ in range(60):
            sets, index = random_fusion_instance(rng)
            calls.clear()
            ls_fusion(sets, index)
            assert calls == [len(sets) - 1] * len(sets)

    def test_coprime_tails_answer_at_once(self):
        # Tails of lengths 3001 and 3003 align only over about 9 million
        # columns; their gcd is 1, so every position meets every other.
        a = LayeredSet.make((), (True,) + (False,) * 3000)
        b = LayeredSet.make((), (True,) + (False,) * 3002)
        start = time.process_time()
        answers = (ls_subset_ideal(a, b), ls_subset_ideal(b, a), ls_subset_ideal(a, a))
        elapsed = time.process_time() - start
        assert answers == (False, False, True)
        assert elapsed < 0.1


class TestFusionAlignment:
    """Fusion meets the last input's tail with the surviving cycle in one
    mask op: an 8,002-column tail against an index of period 8,006 aligns
    over about 32 million columns."""

    def test_long_coprime_periods_fuse_within_bounds(self):
        tail = [n % 2 == 0 or n == 1 for n in range(8002)]
        cycle = [n % 2 == 0 and n != 0 for n in range(8006)]
        a = LayeredSet.make((), tail)
        index = natset((), cycle)
        tracemalloc.start()
        start = time.process_time()
        try:
            result = ls_fusion([a], index)
            elapsed = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The index keeps only even columns, where the tail is full.
        assert result.prefix == () and result.tail == tuple(cycle)
        assert elapsed < 1.5
        assert peak < 100 * 2**20


class TestOrderType:
    def test_full_tower(self):
        assert ls_order_type(FULL) == OMEGA_OMEGA

    def test_two_full_columns(self):
        assert ls_order_type(LayeredSet.make(["full", "full"], "empty")) == o("w^(2)")

    def test_empty(self):
        assert ls_order_type(EMPTY) == 0

    @given(layered_sets())
    @settings(max_examples=80)
    def test_collapse_iff_positive(self, a):
        assert (ls_order_type(a) == OMEGA_OMEGA) == (not ls_in_ideal(a))


class TestJson:
    def test_schema_documents(self):
        doc = {"prefix": [], "tail": "full"}
        assert layered_from_json(doc) == FULL
        cyclic = {"prefix": [], "tail": ["full", "empty"]}
        assert layered_from_json(cyclic) == EVEN_COLUMNS

    def test_cube_columns(self):
        doc = {
            "prefix": [{"dim": 1, "prefix": [1], "cycle": [0]}],
            "tail": "empty",
        }
        a = layered_from_json(doc)
        assert ls_supp(a) == FinCof.finite({0})

    @given(layered_sets())
    @settings(max_examples=60)
    def test_round_trip(self, a):
        assert layered_from_json(layered_to_json(a)) == a

    def test_rejects(self):
        with pytest.raises(SchemaError):
            layered_from_json({"prefix": []})
        with pytest.raises(SchemaError):
            layered_from_json({"prefix": [], "tail": "sometimes"})

import random

import numpy as np
import pytest

from ordcopies import (
    CapError,
    FinPoset,
    all_preorders,
    antichain,
    chain,
    is_separative,
    poset_from_text,
    poset_iso,
    poset_product,
    poset_to_text,
    random_preorder,
    sep_mod,
    sep_quot,
)
from ordcopies.errors import DomainError, PosetFormatError
from ordcopies.verify import (
    check_sq_product_exhaustive,
    check_sq_respects_iso,
    check_sq_soundness,
)

ATOMS_AND_TOP = FinPoset(np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool))
DIAMOND = FinPoset(
    np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=bool)
)


class TestConstruction:
    def test_rejects_irreflexive(self):
        with pytest.raises(DomainError):
            FinPoset(np.zeros((2, 2), dtype=bool))

    def test_rejects_intransitive(self):
        le = np.eye(3, dtype=bool)
        le[0, 1] = le[1, 2] = True
        with pytest.raises(DomainError):
            FinPoset(le)

    def test_empty_poset(self):
        p = FinPoset(np.zeros((0, 0), dtype=bool))
        assert p.size == 0
        assert is_separative(p)

    def test_immutable(self):
        p = chain(2)
        with pytest.raises(ValueError):
            p.le[0, 1] = False


class TestSeparativity:
    def test_antichain(self):
        assert is_separative(antichain(3))

    def test_chain(self):
        assert not is_separative(chain(2))

    def test_two_atoms_and_top(self):
        assert is_separative(ATOMS_AND_TOP)


class TestSeparativeModification:
    def test_fixes_separative(self):
        assert sep_mod(ATOMS_AND_TOP) == ATOMS_AND_TOP
        assert sep_mod(antichain(4)) == antichain(4)

    def test_chain_collapses(self):
        assert sep_mod(chain(2)).le.all()

    def test_only_coarsens_and_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_preorder(rng, rng.randint(1, 6))
            sm = sep_mod(p)
            assert (p.le <= sm.le).all()
            assert sep_mod(sm) == sm


class TestSeparativeQuotient:
    def test_antichain_unchanged(self):
        assert sep_quot(antichain(3)) == antichain(3)

    def test_chain_to_point(self):
        assert sep_quot(chain(2)).size == 1

    def test_chain_times_antichain(self):
        q = sep_quot(poset_product(chain(2), antichain(2)))
        assert poset_iso(q, antichain(2)) is not None

    def test_first_index_represents_each_class(self):
        # 1 is the top, 2 and 3 are atoms, and 0 lies below 3 alone, so 0
        # and 3 are <=*-equivalent.  The class {0, 3} is kept as index 0.
        p = FinPoset(
            np.array([[1, 1, 0, 1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=bool)
        )
        assert poset_to_text(sep_quot(p)) == "3\n110\n010\n011\n"
        kept = [0, 1, 2]
        assert np.array_equal(sep_quot(p).le, sep_mod(p).le[np.ix_(kept, kept)])

    def test_soundness_sample(self):
        result = check_sq_soundness(samples=80)
        assert result.ok, result.detail


class TestProduct:
    def test_unit(self):
        assert poset_iso(poset_product(chain(3), antichain(1)), chain(3)) is not None

    def test_antichains(self):
        assert poset_iso(poset_product(antichain(2), antichain(2)), antichain(4)) is not None

    def test_chains_make_a_diamond(self):
        assert poset_iso(poset_product(chain(2), chain(2)), DIAMOND) is not None


class TestIsomorphism:
    def test_identity(self):
        assert poset_iso(chain(3), chain(3)) == [0, 1, 2]

    def test_chain_vs_antichain(self):
        assert poset_iso(chain(2), antichain(2)) is None

    def test_respects_relabelling(self):
        result = check_sq_respects_iso(samples=60)
        assert result.ok, result.detail

    def test_mapping_is_an_isomorphism(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_preorder(rng, rng.randint(1, 6))
            perm = list(range(p.size))
            rng.shuffle(perm)
            q = FinPoset(p.le[perm][:, perm])
            mapping = poset_iso(p, q)
            assert mapping is not None
            for i in range(p.size):
                for j in range(p.size):
                    assert p.le[i, j] == q.le[mapping[i], mapping[j]]

    def test_size_cap(self):
        with pytest.raises(CapError):
            poset_iso(antichain(31), antichain(31))


class TestEnumeration:
    def test_counts(self):
        assert [len(all_preorders(n)) for n in range(4)] == [1, 1, 4, 29]

    def test_product_law_small(self):
        result = check_sq_product_exhaustive()
        assert result.ok, result.detail


class TestTextFormat:
    def test_round_trip(self):
        assert poset_from_text(poset_to_text(DIAMOND)) == DIAMOND

    def test_accepts_spaces(self):
        text = "2\n1 1\n0 1\n"
        assert poset_from_text(text) == chain(2)

    @pytest.mark.parametrize(
        "text",
        ["", "x\n11\n01", "2\n11", "2\n111\n011", "2\n12\n01", "2\n00\n01"],
    )
    def test_rejects(self, text):
        with pytest.raises(PosetFormatError):
            poset_from_text(text)

    @pytest.mark.parametrize("size", ["\u0663", "\uff13"])  # ARABIC-INDIC and FULLWIDTH THREE
    def test_size_line_is_ascii(self, size):
        # int() reads both as 3, and the rows below would make a valid poset.
        with pytest.raises(PosetFormatError) as exc:
            poset_from_text(size + "\n100\n010\n001\n")
        assert str(exc.value) == f"first line must be the size, got {size!r}"

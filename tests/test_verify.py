"""The property runner: which samples each check draws, and how a failure
names the sample that broke."""

import hashlib
import inspect
import random
import re
import types

import ordcopies
from ordcopies import verify

# Each seeded check's rng, keyed by its seed, after the check ran: the five
# first samples, or the default count for the two checks that cycle through
# dimensions 1..3 and so reach dimension 3 only at sample 2000.
STREAM_DIGESTS = {
    "ordcopies:ordinals.laws": "96b8700155ac27cd",
    "ordcopies:ordinals.power-law": "cb41bc81b3319c09",
    "ordcopies:ordinals.cofinal-fold": "5beea19910855745",
    "ordcopies:ordinals.indecomposable-sums": "854d482aadecffa9",
    "ordcopies:cubesets.oracle-agreement": "77375b520bc413e6",
    "ordcopies:cubesets.indivisibility": "6181a85ad7c2d455",
    "ordcopies:cubesets.monotone-types": "a8dfe0c3be90fd8c",
    "ordcopies:cubesets.boolean-laws": "46860fd3537a6253",
    "ordcopies:cubesets.segment-types": "70b5bceccf06fac6",
    "ordcopies:cubesets.select": "6f2b410c1ce2f5bb",
    "ordcopies:cubesets.separativity-witness": "45faa5e8df634611",
    "ordcopies:layered.level-sets": "741d51760bc36f1f",
    "ordcopies:layered.ideal-consistency": "0ebc37ec95872cbc",
    "ordcopies:layered.ideal-inclusion": "0c3033b92c08647e",
    "ordcopies:layered.fusion": "fd93bf93a8141e33",
    "ordcopies:posets.sq-product-random": "73d425dd7690edbf",
    "ordcopies:posets.sq-soundness": "282df82ae9ef2828",
    "ordcopies:posets.sq-respects-iso": "8147ef2a359815bd",
    "ordcopies:factorizer.tail-drop": "d27f63f614989f4f",
    "ordcopies:factorizer.invariants": "714b43f3a64e8f94",
    "ordcopies:factorizer.render-roundtrip": "3f66cd83e4e7e41d",
}

ALL_DIMENSIONS = {"check_oracle_agreement", "check_indivisibility"}


def test_each_check_draws_the_pinned_samples(monkeypatch):
    streams = {}

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            streams[seed] = self

    monkeypatch.setattr(random, "Random", Recording)
    for checks in verify.SUITES.values():
        for check in checks:
            # verify declares each check's sample count; a fixed check has one.
            sampled = inspect.signature(check).parameters["samples"].default > 1
            if sampled and check.__name__ not in ALL_DIMENSIONS:
                result = check(samples=5)
            else:
                result = check()
            assert result.ok, result
    digests = {
        seed: hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]
        for seed, rng in streams.items()
    }
    assert digests == STREAM_DIGESTS


# Each suite and its checks, in the order `ordcopies verify` runs them.
SUITE_TABLE = [
    (
        "ordinals",
        [
            "check_ordinal_laws",
            "check_noncommutativity",
            "check_power_law",
            "check_cofinal_fold",
            "check_indecomposable_sums",
        ],
    ),
    (
        "cubesets",
        [
            "check_block_limit_table",
            "check_oracle_agreement",
            "check_indivisibility",
            "check_monotone_types",
            "check_boolean_laws",
            "check_segment_types",
            "check_select_consistency",
            "check_arithmetic_vs_lex",
            "check_separativity_witness",
        ],
    ),
    (
        "layered",
        [
            "check_level_set_laws",
            "check_ideal_consistency",
            "check_ideal_inclusion",
            "check_fusion_claims",
        ],
    ),
    (
        "posets",
        [
            "check_sq_product_exhaustive",
            "check_sq_product_random",
            "check_sq_soundness",
            "check_sq_respects_iso",
        ],
    ),
    (
        "factorizer",
        [
            "check_factorizer_goldens",
            "check_tail_drop",
            "check_factor_invariants",
            "check_render_roundtrip",
        ],
    ),
]


def test_each_law_joins_the_suite_that_prefixes_its_name():
    suites = verify.SUITES.items()
    assert [(suite, [check.__name__ for check in checks]) for suite, checks in suites] == SUITE_TABLE
    for suite, checks in verify.SUITES.items():
        for check in checks:
            assert check is getattr(verify, check.__name__)
            assert check(samples=0).name.partition(".")[0] == suite


def test_a_failure_names_its_sample_and_replays_alone():
    before = {suite: list(checks) for suite, checks in verify.SUITES.items()}

    @verify._law("planted", 50)
    def check_planted(rng, index):
        x = rng.random()
        if x > 0.9:
            return f"drew {x}"

    # A law defined outside ordcopies.verify joins no suite.
    assert verify.SUITES == before
    result = check_planted()
    match = re.fullmatch(r"drew \S+ \[planted:(\d+)\]", result.detail)
    assert not result.ok and match, result
    k = int(match.group(1))
    assert check_planted(samples=k).ok
    assert check_planted(samples=k + 1) == result


# The public names of the package, the API the tests rely on; a change to
# this list is a change to the contract.
PUBLIC_NAMES = [
    "CapError", "CubeSet", "DimensionError", "DomainError", "EQ", "ExprParseError",
    "FinCof", "FinPoset", "ForcingExpr", "FusionPreconditionError", "GT",
    "IdealError", "InputFormatError", "Iteration", "LT", "LayeredSet", "OMEGA",
    "OMEGA_OMEGA", "ONE", "OrdcopiesError", "Ordinal", "OrdinalParseError",
    "PosetFormatError", "PositivePart", "Power", "Product", "QuotientAlgebra",
    "RangeError", "ReducedPowerIter", "SchemaError", "ZERO", "all_preorders",
    "antichain", "as_natset", "chain", "cs_bool", "cs_complement", "cs_diff",
    "cs_empty", "cs_fubini_positive", "cs_full", "cs_inter", "cs_is_copy",
    "cs_is_empty", "cs_is_full", "cs_member", "cs_order_type", "cs_product",
    "cs_rank", "cs_select", "cs_union", "cube_from_json", "cube_to_json",
    "expr_from_json", "expr_simplify", "expr_to_json", "factorize",
    "initial_segment", "is_indecomposable", "is_separative", "iteration_form",
    "layered_from_json", "layered_to_json", "ls_diff", "ls_fusion", "ls_in_ideal",
    "ls_inter", "ls_is_reduction", "ls_order_type", "ls_s_set", "ls_subset_ideal",
    "ls_supp", "ls_union", "natset", "natset_to_fincof", "omega_power", "ord_add",
    "ord_cmp", "ord_mul", "ord_pow", "ord_to_point", "parse_expr", "parse_ordinal",
    "point_to_ord", "poset_from_text", "poset_iso", "poset_product",
    "poset_to_text", "random_preorder", "render_expr", "sep_mod", "sep_quot",
    "split_exponent",
]


def test_public_names_are_pinned():
    # The package loads its submodules on first use, so vars() lists only
    # what is loaded so far; dir() lists every name, and each must resolve.
    names = sorted(
        name
        for name in dir(ordcopies)
        if not name.startswith("_") and not isinstance(getattr(ordcopies, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert sorted(ordcopies.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ordcopies import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES

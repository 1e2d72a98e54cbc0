"""Acceptance suite: one test per criterion, at full sample size.

Each test prints a single pass/fail line (run pytest with -s to see them
as they happen; they are also shown in captured output on failure).
"""

import time

from ordcopies.verify import (
    check_arithmetic_vs_lex,
    check_cofinal_fold,
    check_factor_invariants,
    check_factorizer_goldens,
    check_fusion_claims,
    check_ideal_consistency,
    check_ideal_inclusion,
    check_indivisibility,
    check_level_set_laws,
    check_oracle_agreement,
    check_select_consistency,
    check_separativity_witness,
    check_sq_product_exhaustive,
    check_sq_product_random,
    check_sq_soundness,
    check_tail_drop,
)


def _report(criterion: str, checks, elapsed=None, budget=None):
    ok = all(c.ok for c in checks)
    detail = "; ".join(c.detail for c in checks if not c.ok)
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(f"{'PASS' if ok else 'FAIL'} {criterion}{timing}{' ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{criterion}: took {elapsed:.2f}s, budget {budget:.0f}s"


def _timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def test_criterion_01_oracle_agreement():
    result, elapsed = _timed(lambda: check_oracle_agreement(samples=3000))
    _report("criterion 1: positivity and order type decide the same ideal", [result], elapsed, 10.0)


def test_criterion_02_indivisibility():
    result = check_indivisibility(samples=3000)
    _report("criterion 2: a set or its complement is always a copy", [result])


def test_criterion_03_arithmetic_vs_lex_model():
    result, elapsed = _timed(lambda: check_arithmetic_vs_lex())
    _report("criterion 3: sums/products match explicit lex constructions", [result], elapsed, 30.0)


def test_criterion_04_cofinal_sum_law():
    result = check_cofinal_fold(samples=200)
    _report("criterion 4: increasing power sums collapse to the last term", [result])


def test_criterion_05_level_set_lemmas():
    checks = [
        check_level_set_laws(samples=500),
        check_ideal_consistency(samples=500),
        check_ideal_inclusion(samples=500),
    ]
    _report("criterion 5: level-set lemma suite on layered sets", checks)


def test_criterion_06_fusion_claims():
    result = check_fusion_claims(samples=100)
    _report("criterion 6: fusion stays positive and is almost-decreasing", [result])


def test_criterion_07_separative_quotient_product_law():
    def both():
        return [
            check_sq_product_exhaustive(),
            check_sq_product_random(samples=500),
            check_sq_soundness(samples=200),
        ]

    checks, elapsed = _timed(both)
    _report("criterion 7: sq distributes over products", checks, elapsed, 60.0)


def test_criterion_08_factorizer_goldens():
    checks = [
        check_factorizer_goldens(),
        check_tail_drop(samples=200),
        check_factor_invariants(samples=1000),
    ]
    _report("criterion 8: factorization goldens and tail drop", checks)


def test_criterion_09_enumeration_consistency():
    result = check_select_consistency(samples=500)
    _report("criterion 9: selection is total below the type and monotone", [result])


def test_criterion_10_separativity_witness():
    result = check_separativity_witness(samples=150)
    _report("criterion 10: the surplus of a non-inclusion witnesses separation", [result])

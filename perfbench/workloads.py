"""The benchmark's three workloads.

A workload is a list of operations per round.  An ``Op`` has a timed part,
``run(tracer)``, which makes the calls into the library (each through the
tracer, named ``<layer>.<op>``), and an untimed part, ``check(output)``,
which compares the output with a known answer, a second route or a round
trip and returns a description of what is wrong, or None.

- ``CliOneshot`` spawns one ``python -m ordcopies`` per op and compares its
  stdout with the public API's answer on the same input.
- ``PropertyMix`` replays the laws of the property suites on a fixed working
  set built once at set-up, so the same structures recur every round.
- ``AlignmentHeavy`` runs the scaling families on fresh inputs every round.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import ordcopies as oc

import inputs
import reference as ref

TINY = "tiny"


@dataclass
class Op:
    family: str  # "<layer>.<family>", e.g. "posets.chain"
    size: Any  # the family's size parameter, or None
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]


# Failures the benchmark expects today, by family and size.  Only the defect
# probes of ``AlignmentHeavy`` reach these sizes; a probe failure outside this
# table, or any failure of a timed op, makes the run's ``correct`` false.
KNOWN_DEFECTS = (
    (
        lambda family, size: family.startswith("posets.") and size >= 256,
        "posets._bool_matmul multiplies in uint8, so path counts of 256 or more wrap",
    ),
    (
        lambda family, size: family == "ordinals.nesting" and size >= 200,
        "recursive rendering of nested exponents exceeds the interpreter's recursion limit",
    ),
)


def known_defect(family, size):
    for matches, reason in KNOWN_DEFECTS:
        if isinstance(size, int) and matches(family, size):
            return reason
    return None


def _text_of(x):
    return oc.parse_ordinal(ref.o_text(x))


def _index_bits(s, n=64):
    """The first n members of an index set (FinCof or dimension-1 cube set)."""
    if isinstance(s, oc.FinCof):
        return [i in s for i in range(n)]
    return [oc.cs_member(s, [i]) for i in range(n)]


def _w_power_text(dim):
    return ref.o_text(ref.omega_power(ref.o_finite(dim)))


def _first_problem(pairs):
    for ok, message in pairs:
        if not ok:
            return message
    return None


# -- property-mix ----------------------------------------------------------------


class PropertyMix:
    """The verify suites' laws on a fixed, benchmark-seeded working set."""

    def __init__(self, seed, size):
        self.seed = seed
        self.tiny = size == TINY

    # Working-set sizes and op weights per round.  Both are large enough
    # that each seed's round averages over many random structures.
    POOLS = {
        "ords": 512, "small": 256, "finite": 256, "cubes_per_dim": 512, "layered": 2048,
        "fusions": 256, "posets": 256, "alphas": 512, "segments": 256,
    }
    SCALE = 32

    def prepare(self):
        rng = random.Random(f"{self.seed}:property-mix")
        self._decks = {}
        shrink = 256 if self.tiny else 1
        pools = {name: max(2, count // shrink) for name, count in self.POOLS.items()}

        def parsed(x):
            return x, oc.parse_ordinal(ref.o_text(x))

        self.ords = [parsed(inputs.random_ordinal(rng)) for _ in range(pools["ords"])]
        self.small = [
            parsed(inputs.random_ordinal(rng, depth=1, max_terms=2, max_coeff=2))
            for _ in range(pools["small"])
        ]
        self.finite = [
            parsed(inputs.random_ordinal(rng, depth=0, max_terms=2, max_coeff=2))
            for _ in range(pools["finite"])
        ]
        self.cubes = []
        for dim in (1, 2, 3):
            for _ in range(pools["cubes_per_dim"]):
                doc = inputs.random_cube(rng, dim)
                self.cubes.append((dim, doc, oc.cube_from_json(doc)))
        self.layered = []
        for _ in range(pools["layered"]):
            doc = inputs.random_layered(rng, cyclic_tails=True)
            self.layered.append(oc.layered_from_json(doc))
        self.fusions = []
        for _ in range(pools["fusions"]):
            docs, index = inputs.random_fusion_instance(rng)
            sets = [oc.layered_from_json(d) for d in docs]
            if index.get("kind") in ("finite", "cofinite"):
                index_set = oc.FinCof.from_json(index)
            else:
                index_set = oc.cube_from_json(index)
            self.fusions.append((sets, index_set))
        self.posets = []
        for _ in range(pools["posets"]):
            le = inputs.random_preorder(rng, rng.randint(1, 6))
            self.posets.append((le, oc.poset_from_text(inputs.poset_text(le))))
        self.alphas = [parsed(inputs.random_alpha(rng)) for _ in range(pools["alphas"])]
        self.segments = []
        for _ in range(pools["segments"]):
            n = rng.randint(1, 3)
            bound = inputs.random_segment_bound(rng, n)
            self.segments.append((n, bound, oc.parse_ordinal(ref.o_text(bound))))
        self.selects = []
        for dim, doc, cube in self.cubes:
            t = ref.cube_type(doc)
            xis = [inputs.random_segment_bound(rng, dim) for _ in range(6)]
            xis = [x for x in xis if ref.o_cmp(x, t) < 0]
            if xis:
                self.selects.append((doc, cube, [(x, _text_of(x)) for x in xis]))

        makers = (
            (self._ord_laws, 20),
            (self._ord_power, 10),
            (self._ord_roundtrip, 15),
            (self._cs_type, 30),
            (self._cs_bool, 20),
            (self._cs_select, 15),
            (self._cs_segment, 15),
            (self._cs_json, 10),
            (self._ls_levels, 30),
            (self._ls_ideal, 30),
            (self._ls_inclusion, 20),
            (self._ls_fusion, 10),
            (self._po_sq, 12),
            (self._po_product, 6),
            (self._po_text, 8),
            (self._fo_factorize, 15),
        )
        self.ops = []
        for make, weight in makers:
            for _ in range(max(1, weight // 8) if self.tiny else weight * self.SCALE):
                self.ops.append(make(rng))
        rng.shuffle(self.ops)

    def round(self, index):
        return self.ops

    def _draw(self, rng, name, items):
        """The next item of a pool, dealt in shuffled passes so that every
        item recurs equally often."""
        deck = self._decks.setdefault(name, [])
        if not deck:
            deck.extend(items)
            rng.shuffle(deck)
        return deck.pop()

    # Each maker draws its inputs from the working set and returns an Op.

    def _ord_laws(self, rng):
        (_, a), (_, b), (_, c) = (self._draw(rng, "ords", self.ords) for _ in range(3))

        def run(T):
            add = lambda x, y: T.call("ordinals.arith", oc.ord_add, x, y)
            mul = lambda x, y: T.call("ordinals.arith", oc.ord_mul, x, y)
            cmp = lambda x, y: T.call("ordinals.cmp", oc.ord_cmp, x, y)
            return (
                cmp(add(add(a, b), c), add(a, add(b, c))),
                cmp(mul(mul(a, b), c), mul(a, mul(b, c))),
                cmp(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
            )

        def check(out):
            return None if out == (0, 0, 0) else f"associativity/distributivity failed: {out}"

        return Op("ordinals.laws", None, run, check)

    def _ord_power(self, rng):
        (_, a), (_, b), (_, c) = (
            self._draw(rng, "small", self.small),
            self._draw(rng, "finite", self.finite),
            self._draw(rng, "finite", self.finite),
        )

        def run(T):
            arith = lambda f, x, y: T.call("ordinals.arith", f, x, y)
            cmp = lambda x, y: T.call("ordinals.cmp", oc.ord_cmp, x, y)
            pw, mul, add = oc.ord_pow, oc.ord_mul, oc.ord_add
            return (
                cmp(arith(pw, a, arith(add, b, c)), arith(mul, arith(pw, a, b), arith(pw, a, c))),
                cmp(arith(pw, arith(pw, a, b), c), arith(pw, a, arith(mul, b, c))),
            )

        def check(out):
            return None if out == (0, 0) else f"power law failed: {out}"

        return Op("ordinals.power", None, run, check)

    def _ord_roundtrip(self, rng):
        x, a = self._draw(rng, "ords", self.ords)
        expected = ref.o_text(x)

        def run(T):
            text = T.call("ordinals.render", str, a)
            back = T.call("ordinals.parse", oc.parse_ordinal, text)
            return text, T.call("ordinals.cmp", oc.ord_cmp, back, a)

        def check(out):
            text, cmp = out
            return _first_problem(
                [(text == expected, f"rendered {text!r}, expected {expected!r}"),
                 (cmp == 0, "parse(render(a)) != a")]
            )

        return Op("ordinals.roundtrip", None, run, check)

    def _cs_type(self, rng):
        dim, doc, a = self._draw(rng, "cubes", self.cubes)

        def run(T):
            return (
                T.call("cubesets.order_type", oc.cs_order_type, a),
                T.call("cubesets.fubini", oc.cs_fubini_positive, a),
            )

        def check(out):
            t, positive = out
            expected = ref.o_text(ref.cube_type(doc))
            return _first_problem(
                [(str(t) == expected, f"type {t}, reference {expected}"),
                 (positive == (str(t) == _w_power_text(dim)), "order type and Fubini positivity disagree")]
            )

        return Op("cubesets.type", dim, run, check)

    def _cs_bool(self, rng):
        dim = rng.randint(1, 3)
        pool = [c for d, _, c in self.cubes if d == dim]
        a, b = (self._draw(rng, f"cubes{dim}", pool) for _ in range(2))

        def run(T):
            bool_ = lambda f, *args: T.call("cubesets.bool", f, *args)
            comp = oc.cs_complement
            return (
                bool_(comp, bool_(comp, a)),
                bool_(comp, bool_(oc.cs_union, a, b)),
                bool_(oc.cs_inter, bool_(comp, a), bool_(comp, b)),
                bool_(oc.cs_union, a, bool_(oc.cs_inter, a, b)),
                bool_(oc.cs_diff, a, b),
                bool_(oc.cs_inter, a, bool_(comp, b)),
            )

        def check(out):
            involution, left, right, absorbed, diff, meet = out
            return _first_problem(
                [(involution == a, "complement is not an involution"),
                 (left == right, "De Morgan failed"),
                 (absorbed == a, "absorption failed"),
                 (diff == meet, "difference is not meet-with-complement")]
            )

        return Op("cubesets.bool", dim, run, check)

    def _cs_select(self, rng):
        doc, a, xis = self._draw(rng, "selects", self.selects)
        x, xi = rng.choice(xis)

        def run(T):
            point = T.call("cubesets.select_rank", oc.cs_select, a, xi)
            return point, T.call("cubesets.select_rank", oc.cs_rank, a, point)

        def check(out):
            point, rank = out
            return _first_problem(
                [(ref.cube_member(doc, point), f"selected point {point} is not a member"),
                 (str(rank) == ref.o_text(x), f"rank(select({ref.o_text(x)})) = {rank}")]
            )

        return Op("cubesets.select", None, run, check)

    def _cs_segment(self, rng):
        n, bound, alpha = self._draw(rng, "segments", self.segments)

        def run(T):
            segment = T.call("cubesets.build", oc.initial_segment, n, alpha)
            return (
                T.call("cubesets.order_type", oc.cs_order_type, segment),
                T.call("cubesets.copy", oc.cs_is_copy, segment, alpha),
            )

        def check(out):
            t, copy = out
            expected = ref.o_text(bound)
            return _first_problem(
                [(str(t) == expected, f"segment of {expected} in w^{n} has type {t}"),
                 (copy, f"segment of {expected} is not a copy of it")]
            )

        return Op("cubesets.segment", n, run, check)

    def _cs_json(self, rng):
        _, doc, a = self._draw(rng, "cubes", self.cubes)

        def run(T):
            return T.call("cubesets.build", oc.cube_from_json, oc.cube_to_json(a))

        def check(back):
            return None if back == a else "JSON round trip changed the set"

        return Op("cubesets.json", None, run, check)

    def _ls_levels(self, rng):
        a, c = (self._draw(rng, "layered", self.layered) for _ in range(2))

        def run(T):
            b = T.call("layered.bool", oc.ls_union, a, c)
            support = T.call("layered.supp", oc.ls_supp, a)
            levels = [
                tuple(T.call("layered.sset", oc.ls_s_set, x, m) for x in (a, b, c))
                for m in range(5)
            ]
            return support, levels

        def check(out):
            support, levels = out
            supp = _index_bits(support)
            previous = None
            for m, (sa, sb, sc) in enumerate(levels):
                bits_a, bits_b, bits_c = _index_bits(sa), _index_bits(sb), _index_bits(sc)
                if any(x and (not s or i < m) for i, (x, s) in enumerate(zip(bits_a, supp))):
                    return f"S^{m} leaks outside supp minus {m}"
                if previous is not None and any(x and not y for x, y in zip(bits_a, previous)):
                    return f"S^{m} is not contained in S^{m - 1}"
                if bits_b != [x or y for x, y in zip(bits_a, bits_c)]:
                    return f"S^{m} of a union is not the union of S^{m}"
                previous = bits_a
            return None

        return Op("layered.levels", None, run, check)

    def _ls_ideal(self, rng):
        a = self._draw(rng, "layered", self.layered)

        def run(T):
            return (
                T.call("layered.ideal", oc.ls_in_ideal, a),
                T.call("layered.order_type", oc.ls_order_type, a),
                [T.call("layered.sset", oc.ls_s_set, a, m) for m in range(len(a.prefix) + 5)],
            )

        def check(out):
            in_ideal, t, levels = out
            empties = any(not any(_index_bits(s)) for s in levels)
            return _first_problem(
                [(in_ideal == empties, "ideal membership disagrees with empty level sets"),
                 ((str(t) == "w^(w)") != in_ideal, "order type does not mirror ideal membership")]
            )

        return Op("layered.ideal", None, run, check)

    def _ls_inclusion(self, rng):
        a, b = (self._draw(rng, "layered", self.layered) for _ in range(2))

        def run(T):
            diff = T.call("layered.bool", oc.ls_diff, a, b)
            union = T.call("layered.bool", oc.ls_union, a, b)
            return (
                T.call("layered.ideal", oc.ls_subset_ideal, a, b),
                T.call("layered.ideal", oc.ls_subset_ideal, a, union),
                [T.call("layered.sset", oc.ls_s_set, diff, m) for m in range(len(diff.prefix) + 2)],
            )

        def check(out):
            subset, into_union, levels = out
            witnessed = any(not any(_index_bits(s)) for s in levels)
            return _first_problem(
                [(subset == witnessed, "almost-inclusion disagrees with its witness"),
                 (into_union, "a set fails to almost-include into its union")]
            )

        return Op("layered.inclusion", None, run, check)

    def _ls_fusion(self, rng):
        sets, index = self._draw(rng, "fusions", self.fusions)

        def run(T):
            inner = T.call("layered.fusion", oc.ls_fusion, sets[:-1], index)
            outer = T.call("layered.fusion", oc.ls_fusion, sets, index)
            return (
                T.call("layered.ideal", oc.ls_in_ideal, inner),
                T.call("layered.ideal", oc.ls_in_ideal, outer),
                T.call("layered.ideal", oc.ls_subset_ideal, outer, inner),
            )

        def check(out):
            inner_ideal, outer_ideal, nested = out
            return _first_problem(
                [(not inner_ideal and not outer_ideal, "a fused set fell into the ideal"),
                 (nested, "nested fusion is not almost-decreasing")]
            )

        return Op("layered.fusion", len(sets), run, check)

    def _po_sq(self, rng):
        le, p = self._draw(rng, "posets", self.posets)

        def run(T):
            quotient = T.call("posets.sep_quot", oc.sep_quot, p)
            return (
                T.call("posets.sep_mod", oc.sep_mod, p),
                quotient,
                T.call("posets.is_separative", oc.is_separative, p),
                T.call("posets.is_separative", oc.is_separative, quotient),
            )

        def check(out):
            modification, quotient, separative, quotient_separative = out
            return _first_problem(
                [(np.array_equal(modification.le, ref.sep_mod(le)), "sep_mod differs from the int64 reference"),
                 (np.array_equal(quotient.le, ref.sep_quot(le)), "sep_quot differs from the int64 reference"),
                 (separative == ref.is_separative(le), "is_separative differs from the int64 reference"),
                 (quotient_separative, "a separative quotient is not separative")]
            )

        return Op("posets.sq", le.shape[0], run, check)

    def _po_product(self, rng):
        small = [x for x in self.posets if x[0].shape[0] <= 5]
        (le_p, p), (le_q, q) = (self._draw(rng, "small_posets", small) for _ in range(2))

        def run(T):
            product = T.call("posets.product", oc.poset_product, p, q)
            lhs = T.call("posets.sep_quot", oc.sep_quot, product)
            rhs = T.call(
                "posets.product",
                oc.poset_product,
                T.call("posets.sep_quot", oc.sep_quot, p),
                T.call("posets.sep_quot", oc.sep_quot, q),
            )
            return product, T.call("posets.iso", oc.poset_iso, lhs, rhs)

        def check(out):
            product, mapping = out
            return _first_problem(
                [(np.array_equal(product.le, np.kron(le_p, le_q)), "product differs from the Kronecker reference"),
                 (mapping is not None, "sq(P x Q) is not isomorphic to sq(P) x sq(Q)")]
            )

        return Op("posets.product", le_p.shape[0] * le_q.shape[0], run, check)

    def _po_text(self, rng):
        le, p = self._draw(rng, "posets", self.posets)
        expected = inputs.poset_text(le)

        def run(T):
            text = T.call("posets.text", oc.poset_to_text, p)
            return text, T.call("posets.text", oc.poset_from_text, text)

        def check(out):
            text, back = out
            return _first_problem(
                [(text == expected, "poset text differs from the reference rendering"),
                 (np.array_equal(back.le, le), "text round trip changed the relation")]
            )

        return Op("posets.text", le.shape[0], run, check)

    def _fo_factorize(self, rng):
        x, alpha = self._draw(rng, "alphas", self.alphas)
        k = rng.randint(0, 19)
        expected = ref.factorize_text(x)

        def run(T):
            expr = T.call("forcing.factorize", oc.factorize, alpha)
            text = T.call("forcing.render", oc.render_expr, expr)
            shifted = T.call("ordinals.arith", oc.ord_add, alpha, k)
            return (
                expr,
                text,
                T.call("forcing.parse", oc.parse_expr, text),
                T.call("forcing.factorize", oc.factorize, shifted),
            )

        def check(out):
            expr, text, back, tail = out
            return _first_problem(
                [(text == expected, f"factorize gave {text!r}, the formula gives {expected!r}"),
                 (back == expr, "parse_expr(render_expr(e)) != e"),
                 (tail == expr, f"a finite tail {k} changed the factorization")]
            )

        return Op("forcing.factorize", None, run, check)


# -- alignment-heavy ----------------------------------------------------------------

# (dim, number of coprime operands, repetitions per round): the cycle lcm is
# the product of the first k primes, 6 -> 2310 at dim 2 and 6 -> 210 at dim 3.
CUBE_RUNGS = ((2, 2, 4), (2, 3, 4), (2, 4, 2), (2, 5, 1), (3, 2, 4), (3, 3, 2), (3, 4, 1))
# (number of coprime layered operands, repetitions): lcm 6, 30, 210.
LAYERED_RUNGS = ((2, 3), (3, 2), (4, 1))
# (m, repetitions) for chains, random pre-orders and products.
POSET_RUNGS = ((8, 4), (16, 4), (32, 3), (64, 2), (128, 2))
# (exponent nesting depth, repetitions).
NESTING_RUNGS = ((25, 3), (50, 3), (100, 3))
# Sizes in the known-defect table.  They run once per run as untimed defect
# probes, not in the timed rounds, so that a timed op never fails.
DEFECT_POSET_SIZES = (256, 512)
DEFECT_NESTING_DEPTHS = (200, 400)

TINY_CUBE_RUNGS = ((2, 2, 1), (2, 3, 1), (3, 2, 1))
TINY_LAYERED_RUNGS = ((2, 1),)
TINY_POSET_RUNGS = ((8, 1),)
TINY_NESTING_RUNGS = ((25, 1),)
TINY_DEFECT_POSET_SIZES = (256,)
TINY_DEFECT_NESTING_DEPTHS = (200,)


def _lcm_of(k):
    result = 1
    for p in inputs.PRIMES[:k]:
        result *= p
    return result


class AlignmentHeavy:
    """The scaling families on fresh inputs every round."""

    def __init__(self, seed, size):
        self.seed = seed
        self.tiny = size == TINY
        self.counts = {"cubesets.bool.aligned_cols": 0, "cubesets.bool.result_leaves": 0}
        self._rounds = {}

    def prepare(self):
        self._rounds = {0: self._generate(0)}

    def round(self, index):
        ops = self._rounds.pop(index, None)
        return ops if ops is not None else self._generate(index)

    def _generate(self, index):
        rng = random.Random(f"{self.seed}:alignment-heavy:{index}")
        tiny = self.tiny
        ops = []
        for dim, k, reps in TINY_CUBE_RUNGS if tiny else CUBE_RUNGS:
            ops += [self._cube_op(rng, dim, k) for _ in range(reps)]
        for k, reps in TINY_LAYERED_RUNGS if tiny else LAYERED_RUNGS:
            ops += [self._layered_op(rng, k) for _ in range(reps)]
        for m, reps in TINY_POSET_RUNGS if tiny else POSET_RUNGS:
            for _ in range(reps):
                ops += [chain_op(m), self._preorder_op(rng, m), self._product_op(rng, m)]
        for depth, reps in TINY_NESTING_RUNGS if tiny else NESTING_RUNGS:
            ops += [nesting_op(rng, depth) for _ in range(reps)]
        rng.shuffle(ops)
        return ops

    def defect_probes(self):
        """One op per family at each known-defect size, on seeded inputs."""
        rng = random.Random(f"{self.seed}:defect-probes")
        tiny = self.tiny
        ops = []
        for m in TINY_DEFECT_POSET_SIZES if tiny else DEFECT_POSET_SIZES:
            ops += [chain_op(m), self._preorder_op(rng, m), self._product_op(rng, m)]
        for depth in TINY_DEFECT_NESTING_DEPTHS if tiny else DEFECT_NESTING_DEPTHS:
            ops.append(nesting_op(rng, depth))
        return ops

    def _cube_op(self, rng, dim, k):
        docs = [inputs.coprime_cube(rng, dim, p) for p in inputs.PRIMES[:k]]
        points = [[rng.randrange(3 * _lcm_of(k)) for _ in range(dim)] for _ in range(16)]
        counts = self.counts

        def fold(T, f, sets):
            acc = sets[0]
            for other in sets[1:]:
                if T.enabled:
                    counts["cubesets.bool.aligned_cols"] += ref.aligned_columns(
                        oc.cube_to_json(acc), oc.cube_to_json(other)
                    )
                acc = T.call("cubesets.bool", f, acc, other)
            if T.enabled:
                counts["cubesets.bool.result_leaves"] += ref.cube_leaves(oc.cube_to_json(acc))
            return acc

        def run(T):
            sets = [T.call("cubesets.build", oc.cube_from_json, d) for d in docs]
            union = fold(T, oc.cs_union, sets)
            inter = fold(T, oc.cs_inter, sets)
            comp = T.call("cubesets.bool", oc.cs_complement, union)
            return (
                union,
                inter,
                comp,
                T.call("cubesets.order_type", oc.cs_order_type, union),
                T.call("cubesets.fubini", oc.cs_fubini_positive, union),
            )

        def check(out):
            union, inter, comp, t, positive = out
            if positive != (str(t) == _w_power_text(dim)):
                return "order type and Fubini positivity disagree"
            for point in points:
                members = [ref.cube_member(d, point) for d in docs]
                in_union = oc.cs_member(union, point)
                if in_union != any(members):
                    return f"union wrong at {point}"
                if oc.cs_member(inter, point) != all(members):
                    return f"intersection wrong at {point}"
                if oc.cs_member(comp, point) == in_union:
                    return f"complement wrong at {point}"
            return None

        return Op(f"cubesets.coprime-dim{dim}", _lcm_of(k), run, check)

    def _layered_op(self, rng, k):
        docs = [inputs.coprime_layered(rng, p) for p in inputs.PRIMES[:k]]

        def run(T):
            sets = [T.call("layered.build", oc.layered_from_json, d) for d in docs]
            union = sets[0]
            for other in sets[1:]:
                union = T.call("layered.bool", oc.ls_union, union, other)
            levels = [
                [T.call("layered.sset", oc.ls_s_set, x, m) for x in [union] + sets]
                for m in range(4)
            ]
            return (
                levels,
                T.call("layered.ideal", oc.ls_subset_ideal, sets[0], union),
                T.call("layered.ideal", oc.ls_in_ideal, union),
                T.call("layered.order_type", oc.ls_order_type, union),
            )

        def check(out):
            levels, subset, in_ideal, t = out
            for m, (of_union, *parts) in enumerate(levels):
                expected = [any(bits) for bits in zip(*(_index_bits(s) for s in parts))]
                if _index_bits(of_union) != expected:
                    return f"S^{m} of a union is not the union of S^{m}"
            return _first_problem(
                [(subset, "a set fails to almost-include into its union"),
                 (not in_ideal, "a set with a full tail lies in the ideal"),
                 (str(t) == "w^(w)", f"a set with a full tail has type {t}")]
            )

        return Op("layered.coprime", _lcm_of(k), run, check)

    def _preorder_op(self, rng, m):
        le = inputs.random_preorder(rng, m, density=min(0.3, 4.0 / m))
        text = inputs.poset_text(le)

        def run(T):
            p = T.call("posets.text", oc.poset_from_text, text)
            return (
                T.call("posets.sep_quot", oc.sep_quot, p),
                T.call("posets.is_separative", oc.is_separative, p),
            )

        def check(out):
            quotient, separative = out
            return _first_problem(
                [(np.array_equal(quotient.le, ref.sep_quot(le)), "sep_quot differs from the int64 reference"),
                 (separative == ref.is_separative(le), "is_separative differs from the int64 reference")]
            )

        return Op("posets.preorder", m, run, check)

    def _product_op(self, rng, m):
        a = 1 << (m.bit_length() - 1) // 2
        le_p = inputs.random_preorder(rng, a)
        le_q = inputs.random_preorder(rng, m // a)
        texts = inputs.poset_text(le_p), inputs.poset_text(le_q)

        def run(T):
            p, q = (T.call("posets.text", oc.poset_from_text, t) for t in texts)
            product = T.call("posets.product", oc.poset_product, p, q)
            return (
                product,
                T.call("posets.sep_quot", oc.sep_quot, product),
                T.call("posets.sep_quot", oc.sep_quot, p),
                T.call("posets.sep_quot", oc.sep_quot, q),
            )

        def check(out):
            product, quotient, qp, qq = out
            le = np.kron(le_p, le_q)
            return _first_problem(
                [(np.array_equal(product.le, le), "product differs from the Kronecker reference"),
                 (np.array_equal(quotient.le, ref.sep_quot(le)), "sep_quot differs from the int64 reference"),
                 (quotient.size == qp.size * qq.size, "|sq(P x Q)| != |sq(P)| * |sq(Q)|")]
            )

        return Op("posets.product", m, run, check)


def chain_op(m):
    """sep_quot and is_separative of the chain on m points, whose answers
    are known: one point, and not separative once m >= 2."""
    le = inputs.chain_matrix(m)
    text = inputs.poset_text(le)

    def run(T):
        p = T.call("posets.text", oc.poset_from_text, text)
        return (
            T.call("posets.sep_quot", oc.sep_quot, p),
            T.call("posets.is_separative", oc.is_separative, p),
        )

    def check(out):
        quotient, separative = out
        return _first_problem(
            [(quotient.size == 1, f"sep_quot(chain({m})) has {quotient.size} points, not 1"),
             (separative == (m == 1), f"is_separative(chain({m})) = {separative}")]
        )

    return Op("posets.chain", m, run, check)


def nesting_op(rng, depth):
    """Parse, compare, add, multiply, render and factorize an ordinal whose
    exponents nest ``depth`` levels deep."""
    text, expected = inputs.tower(rng, depth)

    def run(T):
        a = T.call("ordinals.parse", oc.parse_ordinal, text)
        b = T.call("ordinals.arith", oc.ord_add, a, 1)
        square = T.call("ordinals.arith", oc.ord_mul, a, a)
        expr = T.call("forcing.factorize", oc.factorize, a)
        rendered = T.call("forcing.render", oc.render_expr, expr)
        return (
            T.call("ordinals.cmp", oc.ord_cmp, a, b),
            T.call("ordinals.cmp", oc.ord_cmp, a, square),
            T.call("ordinals.render", str, a),
            rendered,
            expr,
            T.call("forcing.parse", oc.parse_expr, rendered),
        )

    def check(out):
        lt, lt_square, rendered_a, rendered, expr, back = out
        return _first_problem(
            [(lt == oc.LT and lt_square == oc.LT, "a < a + 1 < a * a failed"),
             (rendered_a == text, "str(parse(text)) != text"),
             (rendered == expected, f"factorize gave {rendered[:60]!r}..., the formula differs"),
             (back == expr, "parse_expr(render_expr(e)) != e")]
        )

    return Op("ordinals.nesting", depth, run, check)


# -- cli-oneshot ----------------------------------------------------------------------


def run_child(cmd, env, workdir):
    """Run one child process to completion.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  Output goes
    through anonymous temporary files, so a chatty child cannot block on a
    full pipe, and the child is reaped with wait4 to read its own resource
    usage.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            child.returncode,
            out.read().decode("utf-8"),
            err.read().decode("utf-8"),
            usage.ru_maxrss,
        )


class CliOneshot:
    """One ``python -m ordcopies <command>`` at a time, closed loop."""

    def __init__(self, seed, size, env, workdir):
        self.seed = seed
        self.tiny = size == TINY
        self.env = env
        self.workdir = workdir
        self.child_rss_kb = 0

    def prepare(self):
        rng = random.Random(f"{self.seed}:cli-oneshot")
        # A fresh directory each time: rewriting a file in place can cost
        # far more than writing a new one, depending on the file system.
        directory = tempfile.mkdtemp(dir=self.workdir)

        def write(name, content):
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            return path

        cubes = []
        for i in range(6):
            doc = inputs.random_cube(rng, 1 + i % 2)
            cubes.append((write(f"cube{i}.json", json.dumps(doc)), doc))
        layered = []
        for i in range(6):
            doc = inputs.random_layered(rng, max_prefix=3, cyclic_tails=True)
            layered.append((write(f"layer{i}.json", json.dumps(doc)), doc))
        fusions = []
        for i in range(2):
            docs, index = inputs.random_fusion_instance(rng)
            paths = [write(f"fusion{i}_{j}.json", json.dumps(d)) for j, d in enumerate(docs)]
            fusions.append((paths, docs, write(f"fusion{i}_s.json", json.dumps(index)), index))
        posets = []
        for i in range(6):
            le = inputs.random_preorder(rng, rng.randint(2, 5))
            posets.append((write(f"poset{i}.txt", inputs.poset_text(le)), le))

        # Each group cycles through its subcommands, so every seed runs the
        # same mix of subcommands; the seed picks the inputs and the order.
        commands = []
        groups = (
            lambda i: self._ord_command(rng, i),
            lambda i: self._set_command(rng, i, cubes),
            lambda i: self._layer_command(rng, i, layered, fusions),
            lambda i: self._poset_command(rng, i, posets),
            lambda i: self._factorize_command(rng, i),
        )
        per_group = 2 if self.tiny else 16
        for make in groups:
            commands += [make(i) for i in range(per_group)]
        rng.shuffle(commands)
        self.ops = [self._op(argv, expect) for argv, expect in commands]

    def round(self, index):
        return self.ops

    def _op(self, argv, expect):
        group = argv[0]

        def run(T):
            return T.call(f"cli.{group}", self.spawn, argv)

        def check(out):
            code, stdout, stderr = out
            if code != 0:
                return f"exit {code}: {stderr.strip()[:200]}"
            expected = expect()
            if stdout != expected:
                return f"stdout {stdout[:80]!r} differs from the API's {expected[:80]!r}"
            return None

        return Op(f"cli.{group}", None, run, check)

    def spawn(self, argv):
        code, stdout, stderr, rss_kb = run_child(
            [sys.executable, "-m", "ordcopies"] + argv, self.env, self.workdir
        )
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return code, stdout, stderr

    # Each command maker returns argv and a function giving the API's answer,
    # rendered the way the CLI documents it.

    def _ord_command(self, rng, i):
        a = inputs.random_ordinal(rng, depth=1, max_terms=2)
        b = inputs.random_ordinal(rng, depth=0, max_terms=2, max_coeff=3)
        ta, tb = ref.o_text(a), ref.o_text(b)
        op = _nth(("add", "mul", "pow", "cmp", "classify"), i)
        if op == "classify":
            return ["ord", "classify", ta], lambda: _classify_text(oc.parse_ordinal(ta))

        def expect():
            x, y = oc.parse_ordinal(ta), oc.parse_ordinal(tb)
            if op == "cmp":
                return {oc.LT: "LT", oc.EQ: "EQ", oc.GT: "GT"}[oc.ord_cmp(x, y)] + "\n"
            result = {"add": oc.ord_add, "mul": oc.ord_mul, "pow": oc.ord_pow}[op](x, y)
            return f"{result}\n"

        return ["ord", op, ta, tb], expect

    def _set_command(self, rng, i, cubes):
        path, doc = rng.choice(cubes)
        dim = doc["dim"]
        load = lambda: oc.cube_from_json(doc)
        op = _nth(("type", "member", "ideal", "select", "copy"), i)
        t = ref.cube_type(doc)
        if op == "select" and t:
            xis = [x for x in (inputs.random_segment_bound(rng, dim) for _ in range(6)) if ref.o_cmp(x, t) < 0]
            xi = ref.o_text(xis[0] if xis else ref.ZERO)
            return (
                ["set", "select", "--file", path, xi],
                lambda: json.dumps(list(oc.cs_select(load(), oc.parse_ordinal(xi)))) + "\n",
            )
        if op == "member":
            point = [rng.randrange(8) for _ in range(dim)]
            return (
                ["set", "member", "--file", path, json.dumps(point)],
                lambda: _bool_text(ref.cube_member(doc, point)),
            )
        if op == "ideal":
            return ["set", "ideal", "--file", path], lambda: _bool_text(not oc.cs_fubini_positive(load()))
        if op == "copy":
            alpha = ref.o_text(inputs.random_segment_bound(rng, dim))
            return (
                ["set", "copy", "--file", path, alpha],
                lambda: _bool_text(oc.cs_is_copy(load(), oc.parse_ordinal(alpha))),
            )
        return ["set", "type", "--file", path], lambda: ref.o_text(t) + "\n"

    def _layer_command(self, rng, i, layered, fusions):
        (path, doc), (other, other_doc) = rng.choice(layered), rng.choice(layered)
        load = lambda: oc.layered_from_json(doc)
        op = _nth(("sset", "supp", "ideal", "subset", "type", "fusion"), i)
        if op == "fusion":
            paths, docs, index_path, index = rng.choice(fusions)

            def expect():
                sets = [oc.layered_from_json(d) for d in docs]
                if index.get("kind") in ("finite", "cofinite"):
                    s = oc.FinCof.from_json(index)
                else:
                    s = oc.cube_from_json(index)
                return json.dumps(oc.layered_to_json(oc.ls_fusion(sets, s))) + "\n"

            argv = ["layer", "fusion"]
            for p in paths:
                argv += ["--file", p]
            return argv + ["--s", index_path], expect
        if op == "sset":
            m = rng.randint(0, 3)
            return ["layer", "sset", "--file", path, str(m)], lambda: _index_json(oc.ls_s_set(load(), m))
        if op == "supp":
            return ["layer", "supp", "--file", path], lambda: _index_json(oc.ls_supp(load()))
        if op == "ideal":
            return ["layer", "ideal", "--file", path], lambda: _bool_text(oc.ls_in_ideal(load()))
        if op == "subset":
            return (
                ["layer", "subset", "--file", path, "--other", other],
                lambda: _bool_text(oc.ls_subset_ideal(load(), oc.layered_from_json(other_doc))),
            )
        return ["layer", "type", "--file", path], lambda: f"{oc.ls_order_type(load())}\n"

    def _poset_command(self, rng, i, posets):
        (path, le), (other, le_q) = rng.choice(posets), rng.choice(posets)
        op = _nth(("sq", "sm", "sep", "product", "iso"), i)
        p = lambda: oc.FinPoset(le)
        if op == "sq":
            return ["poset", "sq", "--file", path], lambda: inputs.poset_text(ref.sep_quot(le))
        if op == "sm":
            return ["poset", "sm", "--file", path], lambda: inputs.poset_text(ref.sep_mod(le))
        if op == "sep":
            return ["poset", "sep", "--file", path], lambda: _bool_text(ref.is_separative(le))
        if op == "product":
            return (
                ["poset", "product", "--file", path, "--other", other],
                lambda: inputs.poset_text(np.kron(le, le_q)),
            )

        def expect():
            mapping = oc.poset_iso(p(), oc.FinPoset(le_q))
            return "none\n" if mapping is None else " ".join(map(str, mapping)) + "\n"

        return ["poset", "iso", "--file", path, "--other", other], expect

    def _factorize_command(self, rng, i):
        alpha = inputs.random_alpha(rng)
        text = ref.o_text(alpha)
        fmt = _nth(("text", "text", "json", "latex", "iterate"), i)
        if fmt == "text":
            return ["factorize", text], lambda: ref.factorize_text(alpha) + "\n"
        if fmt == "iterate":
            return (
                ["factorize", "--iterate", text],
                lambda: oc.render_expr(oc.iteration_form(oc.parse_ordinal(text))) + "\n",
            )
        return (
            ["factorize", "--format", fmt, text],
            lambda: oc.render_expr(oc.factorize(oc.parse_ordinal(text)), fmt) + "\n",
        )


def _nth(choices, i):
    return choices[i % len(choices)]


def _bool_text(value):
    return ("true" if value else "false") + "\n"


def _index_json(s):
    if isinstance(s, oc.FinCof):
        return json.dumps(s.to_json()) + "\n"
    return json.dumps(oc.cube_to_json(s)) + "\n"


def _classify_text(a):
    if a.is_zero():
        return "kind: zero\nindecomposable: false\n"
    kind = "limit" if a.is_limit() else "successor"
    gamma, r = oc.split_exponent(a)
    indecomposable = "true" if oc.is_indecomposable(a) else "false"
    return f"kind: {kind}\nindecomposable: {indecomposable}\ngamma: {gamma}\nr: {r}\n"

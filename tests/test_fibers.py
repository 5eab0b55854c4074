import ast
import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wordfibers.fibers as fibers
from wordfibers.errors import BudgetExceeded, CapExceeded, EmptyWordError
from wordfibers.fibers import (
    eval_automorphic,
    fiber_distribution,
    max_fiber,
    pi_w,
    rewrite_coset_equation,
)
from wordfibers.groups import (
    AutSet,
    automorphism_group,
    identity_autset,
    inner_automorphisms,
    make_group,
    subgroup_handle,
    subgroups,
)
from wordfibers.words import Letter, ReducedWord, parse_word
from wreath_oracle import (
    WREATH_WORDS,
    dense_wreath_counts,
    draw_wreath_parts,
    factor_rows,
)

COMMUTATOR = parse_word("[x1,x2]")
SQUARE = parse_word("x1^2")
XY = parse_word("x1 x2")


@contextlib.contextmanager
def two_tuples_per_batch(g, w):
    """Batches of two tuples, each still one block over the whole argument
    space: a search of w on g that scans more than two tuples spans several
    batches, and with threads > 1 it is split over a pool."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "_BATCH_ELEMENTS", 2 * g.order**w.num_variables)
        yield


def identity_rows(g, w):
    """The identity on every letter: one table row per letter."""
    return np.tile(np.arange(g.order), (w.length, 1))


def fresh(a):
    """A copy of A that keeps no exact scans (``a.searches``), with the
    content table of scans (`fibers._SCANS`) emptied, so an exact
    `max_fiber` on it scans again: the oracle shares no scan.  The emptied
    entries stay kept on the sets that hold them."""
    fibers._SCANS.clear()
    return AutSet(a.group, a.tables, kind=a.kind)


# independent oracle: evaluate an automorphic word map by plain loops
def eval_oracle(g, w, auts, args):
    acc = 0
    order = {v: i for i, v in enumerate(w.variables)}
    for let, alpha in zip(w.letters, auts):
        x = int(alpha[args[order[let.var]]])
        if let.sign < 0:
            x = g.inv(x)
        acc = g.mul(acc, x)
    return acc


# independent oracle: per-target maxima by exhaustive python loops
def per_target_oracle(g, w, autset):
    d = w.num_variables
    best = [0] * g.order
    for auts in itertools.product(autset.tables, repeat=w.length):
        counts = [0] * g.order
        for args in itertools.product(range(g.order), repeat=d):
            counts[eval_oracle(g, w, auts, args)] += 1
        for t in range(g.order):
            best[t] = max(best[t], counts[t])
    return best


# independent oracle: the fiber sizes of one tuple by a loop over G^d
def dist_oracle(g, w, auts):
    counts = [0] * g.order
    for args in itertools.product(range(g.order), repeat=w.num_variables):
        counts[eval_oracle(g, w, auts, args)] += 1
    return counts


class TestEvalWord:
    """The plain word map: `eval_automorphic` with the identity on every letter."""

    @staticmethod
    def eval_word(g, w, args):
        return eval_automorphic(g, w, identity_rows(g, w), args)

    def test_single_variable_is_identity_map(self):
        g = make_group("sym:3")
        w = parse_word("x1")
        for x in range(6):
            assert self.eval_word(g, w, (x,)) == x

    def test_commutator_vanishes_on_abelian(self):
        g = make_group("cyc:6")
        for a in range(6):
            for b in range(6):
                assert self.eval_word(g, COMMUTATOR, (a, b)) == 0

    def test_square_on_c4(self):
        g = make_group("cyc:4")
        assert self.eval_word(g, SQUARE, (1,)) == 2

    def test_arity_mismatch(self):
        g = make_group("cyc:4")
        with pytest.raises(ValueError):
            self.eval_word(g, COMMUTATOR, (1,))


class TestEvalAutomorphic:
    def test_identity_tuple_equals_plain_map_exhaustively(self):
        g = make_group("sym:3")
        ident = identity_rows(g, COMMUTATOR)
        for a in range(6):
            for b in range(6):
                assert eval_automorphic(g, COMMUTATOR, ident, (a, b)) == eval_oracle(
                    g, COMMUTATOR, ident, (a, b)
                )

    def test_single_letter_with_inversion(self):
        g = make_group("cyc:3")
        invert = np.array([0, 2, 1])
        w = parse_word("x1")
        for x in range(3):
            assert eval_automorphic(g, w, invert[None], (x,)) == g.inv(x)

    def test_commutator_with_mixed_tuple_on_c3(self):
        g = make_group("cyc:3")
        invert, ident = [0, 2, 1], [0, 1, 2]
        auts = np.array([invert, ident, ident, ident])
        got = eval_automorphic(g, COMMUTATOR, auts, (1, 0))
        assert got == eval_oracle(g, COMMUTATOR, auts, (1, 0)) == 1

    def test_tuple_length_mismatch(self):
        g = make_group("cyc:3")
        with pytest.raises(ValueError):
            eval_automorphic(g, SQUARE, np.arange(3)[None], (1,))
        with pytest.raises(ValueError):  # rows of the wrong width
            eval_automorphic(g, SQUARE, np.zeros((2, 4), dtype=np.int32), (1,))

    @pytest.mark.parametrize("spec, word", [
        ("sym:3", "x1^-1 x2 x1^2"), ("dih:4", "[x1,x2]"), ("q8", "x1 x2 x3^-1 x2"),
    ])
    def test_columns_equal_scalar_calls(self, spec, word):
        g = make_group(spec)
        aut = automorphism_group(g)
        w = parse_word(word)
        rng = np.random.default_rng(5)
        auts = aut.tables[rng.integers(0, len(aut), w.length)]
        cols = np.indices((g.order,) * w.num_variables).reshape(w.num_variables, -1)
        got = eval_automorphic(g, w, auts, cols)
        scalar = [eval_automorphic(g, w, auts, tuple(int(x) for x in col)) for col in cols.T]
        assert all(type(v) is int for v in scalar)
        assert got.tolist() == scalar
        assert scalar == [eval_oracle(g, w, auts, tuple(col)) for col in cols.T.tolist()]


class TestFiberDistribution:
    def test_squares_in_c2(self):
        g = make_group("cyc:2")
        dist = fiber_distribution(g, SQUARE, identity_rows(g, SQUARE))
        assert dist.counts.tolist() == [2, 0]

    def test_product_word_is_flat_everywhere(self):
        g = make_group("sym:3")
        aut = automorphism_group(g)
        tup = aut.tables[[3, 1]]
        dist = fiber_distribution(g, XY, tup)
        assert dist.counts.tolist() == [6] * 6

    def test_squares_in_d6(self):
        g = make_group("dih:3")
        dist = fiber_distribution(g, SQUARE, identity_rows(g, SQUARE))
        assert dist.counts.tolist() == [4, 1, 1, 0, 0, 0]

    def test_counts_sum_to_group_power(self):
        for spec, w in [("dih:4", COMMUTATOR), ("q8", SQUARE), ("alt:4", XY)]:
            g = make_group(spec)
            dist = fiber_distribution(g, w, identity_rows(g, w))
            assert int(dist.counts.sum()) == g.order**w.num_variables

    def test_matches_pointwise_oracle(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        tup = aut.tables[[5, 2, 7, 0]]
        dist = fiber_distribution(g, COMMUTATOR, tup)
        oracle = [0] * 8
        for a in range(8):
            for b in range(8):
                oracle[eval_oracle(g, COMMUTATOR, tup, (a, b))] += 1
        assert dist.counts.tolist() == oracle

    def test_budget(self):
        g = make_group("alt:4")
        with pytest.raises(BudgetExceeded):
            fiber_distribution(g, COMMUTATOR, identity_rows(g, COMMUTATOR), budget=10)

    def test_empty_word_rejected(self):
        g = make_group("cyc:2")
        with pytest.raises(EmptyWordError):
            fiber_distribution(g, ReducedWord(()), ())


class TestPiW:
    def test_d6_square(self):
        g = make_group("dih:3")
        value, prop = pi_w(g, SQUARE)
        assert value == 4 and prop == Fraction(2, 3)

    def test_abelian_commutator(self):
        g = make_group("cyc:4")
        value, prop = pi_w(g, COMMUTATOR)
        assert value == 16 and prop == 1

    def test_odd_cyclic_square_bijective(self):
        value, prop = pi_w(make_group("cyc:3"), SQUARE)
        assert value == 1 and prop == Fraction(1, 3)


class TestMaxFiber:
    def test_product_word_flat(self):
        g = make_group("sym:3")
        res = max_fiber(g, XY, automorphism_group(g))
        assert res.value == 6 and res.proportion == Fraction(1, 6)
        assert res.status == "exact"
        assert res.witness_tuple_indices == (0, 0)
        assert res.witness_target == 0

    def test_identity_only_square_on_c2(self):
        g = make_group("cyc:2")
        res = max_fiber(g, SQUARE, identity_autset(g))
        assert res.value == 2 and res.proportion == 1

    def test_d6_inner_square(self):
        g = make_group("dih:3")
        res = max_fiber(g, SQUARE, inner_automorphisms(g))
        assert res.value >= 4
        assert res.witness_target == 0

    def test_witness_reproduces_value(self):
        g = make_group("dih:4")
        a = automorphism_group(g)
        res = max_fiber(g, COMMUTATOR, a)
        assert res.witness_tuple.tolist() == a.tables[list(res.witness_tuple_indices)].tolist()
        dist = fiber_distribution(g, COMMUTATOR, res.witness_tuple)
        assert int(dist.counts[res.witness_target]) == res.value

    def test_fixed_target(self):
        g = make_group("dih:3")
        res_any = max_fiber(g, SQUARE, inner_automorphisms(g))
        res_one = max_fiber(g, SQUARE, inner_automorphisms(g), target=1)
        assert res_one.value <= res_any.value
        assert res_one.witness_target == 1

    def test_tie_goes_to_the_least_tuple_then_the_least_target(self):
        # q8 under Inn, x1^2: target 1 (-1) is reached 6 times by tuple 0,
        # target 0 only by tuple 1; no tuple reaches targets 2..7
        g = make_group("q8")
        a = inner_automorphisms(g)
        res = max_fiber(g, SQUARE, a)
        assert (res.value, res.witness_target, res.witness_tuple_indices) == (6, 1, (0, 0))
        assert res.target_values.tolist() == [6, 6] + [0] * 6
        assert res.target_tuple_numbers.tolist() == [1, 0] + [-1] * 6
        zero = max_fiber(g, SQUARE, a, target=0)
        assert (zero.value, zero.witness_target, zero.witness_tuple_indices) == (6, 0, (0, 1))
        unreached = max_fiber(g, SQUARE, a, target=2)
        assert (unreached.value, unreached.witness_target) == (0, 2)
        assert unreached.witness_tuple_indices == (0, 0)
        assert unreached.witness_tuple.tolist() == a.tables[[0, 0]].tolist()
        with two_tuples_per_batch(g, SQUARE):
            for threads in (1, 2):
                again = max_fiber(g, SQUARE, fresh(a), threads=threads)
                assert (again.witness_target, again.witness_tuple_indices) == (1, (0, 0))

    def test_trivial_group(self):
        # the general search covers the one tuple and the one target
        g = make_group("cyc:1")
        for a in (identity_autset(g), inner_automorphisms(g), automorphism_group(g)):
            for w in (SQUARE, XY, COMMUTATOR):
                res = max_fiber(g, w, a)
                assert (res.value, res.proportion, res.witness_target) == (1, 1, 0)
                assert res.status == "exact" and res.witness_tuple_indices == (0,) * w.length
                assert res.witness_tuple.tolist() == [[0]] * w.length
                assert (res.tuples_examined, res.evaluations) == (1, 1)
                assert (res.tuples_scanned, res.evaluations_performed) == (1, 1)
                assert res.target_values.tolist() == [1]
                assert res.target_tuple_numbers.tolist() == [0]

    def test_the_module_reads_no_random_stream(self):
        # the one search is exact: fibers.py neither imports nor reads
        # numpy.random
        tree = ast.parse(Path(fibers.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "random", ast.unparse(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any("random" in name for name in names), ast.unparse(node)

    @pytest.mark.parametrize("keyword", [{"mode": "sample"}, {"samples": 10}, {"seed": 3}],
                             ids=["mode", "samples", "seed"])
    def test_the_retired_sampling_keywords_are_refused(self, keyword):
        # max_fiber takes no sampling parameter, so a caller that still
        # passes one is told so instead of getting an exact result
        g = make_group("dih:4")
        with pytest.raises(TypeError, match=f"'{next(iter(keyword))}'"):
            max_fiber(g, SQUARE, automorphism_group(g), **keyword)

    # Each limit splits the rows in normal form into several batches: 3 and
    # 9 tuples a batch for cyc:5 and alt:4, 7 for sym:3, one for dih:4, and
    # for x1 x2 x1 on dih:4 one tuple's 64 arguments in blocks of 16.
    @pytest.mark.parametrize("spec, word, target, limit, batches", [
        ("cyc:5", "x1^2", None, 5 * 3, [3, 1]),
        ("alt:4", "x1^2", 1, 12 * 9, [9, 9, 6]),
        ("dih:4", "x1^2", 2, 8, [1] * 8),
        ("sym:3", "[x1,x2]", None, 36 * 7, [7] * 5 + [1]),
        ("dih:4", "x1 x2 x1", None, 16, [1] * 8),
    ])
    def test_an_exact_scan_in_several_batches_matches_brute_force(
        self, monkeypatch, spec, word, target, limit, batches
    ):
        g, w = make_group(spec), parse_word(word)
        a = automorphism_group(g)
        best, per_vals, per_idx = brute_force_search(g, w, a, [target])
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", limit)
        seen, real = [], fibers._BatchEvaluator.counts
        monkeypatch.setattr(fibers._BatchEvaluator, "counts",
                            lambda ev, digits: seen.append(len(c := real(ev, digits))) or c)
        for threads in (1, 2):
            seen.clear()
            res = max_fiber(g, w, fresh(a), target=target, threads=threads)
            assert (res.value, res.witness_target, res.witness_tuple_indices) == best[target]
            assert res.target_values.tolist() == per_vals.tolist()
            assert res.target_tuple_numbers.tolist() == per_idx.tolist()
            # two threads split the rows in two ranges, each in batches
            if threads == 1:
                assert seen == batches
            assert sum(seen) == sum(batches) and max(seen) <= batches[0]
            assert res.tuples_scanned == sum(batches) == len(a) ** (w.length - w.num_variables)
            assert res.evaluations_performed == res.tuples_scanned * g.order**w.num_variables

    def test_per_target_matches_python_oracle(self):
        g = make_group("sym:3")
        inn = inner_automorphisms(g)
        got = max_fiber(g, COMMUTATOR, inn)
        assert got.target_values.tolist() == per_target_oracle(g, COMMUTATOR, inn)

    def test_per_target_matches_oracle_with_full_aut_on_xy(self):
        g = make_group("cyc:4")
        aut = automorphism_group(g)
        got = max_fiber(g, parse_word("x1 x2 x1"), aut)
        assert got.target_values.tolist() == per_target_oracle(g, parse_word("x1 x2 x1"), aut)

    def test_thread_count_does_not_change_results(self):
        g = make_group("dih:4")
        a = automorphism_group(g)
        one = max_fiber(g, COMMUTATOR, a, threads=1)
        with two_tuples_per_batch(g, COMMUTATOR):
            four = max_fiber(g, COMMUTATOR, fresh(a), threads=4)
        assert (one.value, one.witness_tuple_indices, one.witness_target) == (
            four.value,
            four.witness_tuple_indices,
            four.witness_target,
        )
        assert one.target_values.tolist() == four.target_values.tolist()
        assert one.target_tuple_numbers.tolist() == four.target_tuple_numbers.tolist()

    def test_a_pool_opens_only_for_a_scan_of_several_batches(self, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        g = make_group("dih:4")
        a = automorphism_group(g)
        one_batch = max_fiber(g, COMMUTATOR, fresh(a), threads=2)
        assert one_batch.tuples_scanned == 64 and pools == []
        with two_tuples_per_batch(g, COMMUTATOR):
            split = max_fiber(g, COMMUTATOR, fresh(a), threads=2)
        assert pools == [2]
        assert split.target_values.tolist() == one_batch.target_values.tolist()
        assert split.target_tuple_numbers.tolist() == one_batch.target_tuple_numbers.tolist()

    def test_budget_error(self):
        g = make_group("alt:4")
        with pytest.raises(BudgetExceeded):
            max_fiber(g, COMMUTATOR, automorphism_group(g), budget=1000)

    def test_chunked_argument_path_matches_batched(self, monkeypatch):
        g = make_group("dih:4")
        a = automorphism_group(g)
        batched = max_fiber(g, COMMUTATOR, a)
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 7)
        chunked = max_fiber(g, COMMUTATOR, fresh(a))
        assert batched.target_values.tolist() == chunked.target_values.tolist()
        assert batched.target_tuple_numbers.tolist() == chunked.target_tuple_numbers.tolist()
        assert batched.witness_tuple_indices == chunked.witness_tuple_indices
        assert batched.value == int(batched.target_values.max())

    def test_monotone_in_autset(self):
        for spec, w in [("dih:4", SQUARE), ("sym:3", COMMUTATOR), ("q8", SQUARE)]:
            g = make_group(spec)
            chain = [identity_autset(g), inner_automorphisms(g), automorphism_group(g)]
            values = [max_fiber(g, w, a).value for a in chain]
            assert values == sorted(values)
            plain, _ = pi_w(g, w)
            assert plain <= values[0]

    def test_isomorphism_invariance_under_relabelling(self):
        g = make_group("sym:3")
        rng = np.random.default_rng(3)
        relabel = np.concatenate([[0], 1 + rng.permutation(5)]).astype(np.int64)
        table = np.empty((6, 6), dtype=np.int32)
        for a in range(6):
            for b in range(6):
                table[relabel[a], relabel[b]] = relabel[g.mul(a, b)]
        from wordfibers.groups import FiniteGroup, is_isomorphic

        h = FiniteGroup(6, table=table, spec="relabelled sym:3")
        h.validate()
        assert is_isomorphic(g, h)[0]
        for w in (SQUARE, COMMUTATOR):
            assert (
                max_fiber(g, w, automorphism_group(g)).value
                == max_fiber(h, w, automorphism_group(h)).value
            )


# Block sizes for the kernel: the default; a batch of 2 tuples in one block
# (n^d = 36); one tuple in one block; chunks of 12, which divide 36; chunks
# of 7, which do not.
KERNEL_BLOCKS = [None, 72, 36, 12, 7]
# inverse letters, repeated variables, a free letter before a first letter
KERNEL_WORDS = ["x1^-1 x2 x1^2", "[x1,x2]", "x1^2 x2^-2"]


class TestKernelAgainstOracle:
    @pytest.fixture(params=KERNEL_BLOCKS, ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", request.param)
        return request.param

    @pytest.mark.parametrize("word", KERNEL_WORDS)
    def test_normal_form_batches_with_identity_letters(self, block, word):
        g = make_group("sym:3")
        a = automorphism_group(g)
        w = parse_word(word)
        ev = fibers._BatchEvaluator(g, w, a.tables)
        free = fibers._free_letters(w, a)
        assert len(free) < w.length
        rows = np.arange(min(ev.batch_size(), len(a) ** len(free)))
        assert len(rows) == {None: len(a) ** len(free), 72: 2}.get(block, 1)
        digits, _ = fibers._tuple_digits(rows, len(a), w.length, free)
        assert sum(dig is None for dig in digits) == w.num_variables
        counts = ev.counts(digits)
        for r in rows:
            tup = [a.tables[0 if dig is None else int(dig[r])] for dig in digits]
            assert counts[r].tolist() == dist_oracle(g, w, tup)

    @pytest.mark.parametrize("word", KERNEL_WORDS)
    def test_fiber_distribution(self, block, word):
        g = make_group("sym:3")
        a = automorphism_group(g)
        w = parse_word(word)
        rng = np.random.default_rng(11)
        for _ in range(3):
            tup = a.tables[rng.integers(0, len(a), w.length)]
            assert fiber_distribution(g, w, tup).counts.tolist() == dist_oracle(g, w, tup)

    @pytest.mark.parametrize("word", KERNEL_WORDS)
    def test_per_target_maxima(self, block, word):
        w = parse_word(word)
        g = make_group("sym:3")
        unclosed_g, unclosed = doubling_autset()
        for grp, a in ((g, automorphism_group(g)), (unclosed_g, unclosed)):
            got = max_fiber(grp, w, a)
            assert got.target_values.tolist() == per_target_oracle(grp, w, a)


# independent oracle: the fiber sizes of one tuple by itertools.product over
# G^d, every argument tuple evaluated by eval_automorphic
def product_counts(g, w, auts):
    args = np.array(list(itertools.product(range(g.order), repeat=w.num_variables)))
    values = eval_automorphic(g, w, np.asarray(auts), list(args.T))
    return np.bincount(values, minlength=g.order).tolist()


def counting_argument_blocks(monkeypatch):
    """Wrap the kernel's block rule; returns the list of (start, argument
    tuples) of every block it yields."""
    built = []
    real = fibers._argument_blocks

    def counting(n, d, b):
        for start, cols in real(n, d, b):
            built.append((start, int(np.prod(np.broadcast_shapes(*(c.shape for c in cols))))))
            yield start, cols

    monkeypatch.setattr(fibers, "_argument_blocks", counting)
    return built


class TestArgumentBlocks:
    # (n, d, b, limit): d = 1; several trailing axes in one block; a batch
    # of 2 tuples in one block; lead chunks of 2 assignments, the last of
    # one; lead chunks with no trailing axis; blocks of one tuple
    @pytest.mark.parametrize("n, d, b, limit, blocks", [
        (5, 1, 1, None, 1),
        (3, 4, 1, None, 1),
        (4, 3, 2, 200, 1),
        (3, 4, 1, 20, 5),
        (4, 3, 3, 10, 22),
        (3, 3, 1, 1, 27),
        (2, 5, 4, 16, 8),
    ])
    def test_every_tuple_once_at_its_index(self, monkeypatch, n, d, b, limit, blocks):
        if limit is not None:
            monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", limit)
        per = max(1, fibers._BATCH_ELEMENTS // b)
        tuples, starts = [], []
        for start, cols in fibers._argument_blocks(n, d, b):
            assert len(cols) == d
            shape = np.broadcast_shapes(*(c.shape for c in cols))
            size = int(np.prod(shape))
            assert size <= per
            block = np.stack([np.broadcast_to(c, shape).ravel() for c in cols], axis=1)
            for j in range(d):
                column = fibers._arg_slice(n, d, j, start, start + size)
                assert block[:, j].tolist() == column.tolist()
            # position p of the block is argument tuple start + p
            assert start == len(tuples)
            tuples.extend(map(tuple, block.tolist()))
            starts.append(start)
        assert len(starts) == blocks
        assert tuples == list(itertools.product(range(n), repeat=d))


# split words: inverse letters; a segment with the non-consecutive variables
# x1, x3; all-identity segments on the left (x1 x2^2) and on the right
# (x1^2 x2, x1 x2^-1 x1 x3) of a normal-form batch
SPLIT_WORDS = ["x1^2 x2^-2", "x2 x1 x3^2 x1", "x1 x2^2", "x1^2 x2", "x1 x2^-1 x1 x3"]


def reference_fold(table, left, right):
    """The per-element fold: for each a in the support of the left counts,
    the row left[a] * right is added at the positions x -> a*x, row a of
    the table."""
    out = np.zeros((max(len(left), len(right)), len(table)), dtype=np.int64)
    for a in np.flatnonzero(left.any(axis=0)):
        out[:, table[a]] += left[:, a, None] * right
    return out


def recording_gathers(arr, sizes):
    """A view of ``arr`` that appends the size of every array read from it
    by indexing to ``sizes``, and hands out plain arrays."""

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            got = super().__getitem__(key).view(np.ndarray)
            sizes.append(got.size)
            return got

    return arr.view(Recorded)


class TestSplitWords:
    @pytest.mark.parametrize("word, segments", [
        ("x1 x2 x3 x4", [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ("x2 x1 x3^2 x1", [(0, 1), (1, 5)]),
        ("x1 x2^-1 x1 x3", [(0, 3), (3, 4)]),
        ("[x1,x2] x3^2", [(0, 4), (4, 6)]),
        ("x1 x2 x1", [(0, 3)]),
    ])
    def test_cuts_go_where_no_earlier_variable_recurs(self, word, segments):
        assert fibers._segments(parse_word(word)) == segments

    def test_segment_counts_are_not_class_functions(self):
        # On alt:4, x1^2 under the rows (identity, alpha_j) of Aut has counts
        # that are not class functions, and u v and v u differ for two such
        # segments, so the brute-force tests below see the fold order.
        g = make_group("alt:4")
        a = automorphism_group(g)
        counts = [product_counts(g, SQUARE, a.tables[[0, j]]) for j in range(len(a))]
        assert any(len({c[x] for x in cls}) > 1 for c in counts for cls in g.conjugacy_classes)
        w = parse_word("x1^2 x2^2")
        assert any(
            product_counts(g, w, a.tables[[0, j, 0, k]])
            != product_counts(g, w, a.tables[[0, k, 0, j]])
            for j, k in itertools.combinations(range(len(a)), 2)
        )

    @pytest.mark.parametrize("block", [None, 7], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("word", SPLIT_WORDS)
    def test_normal_form_batches_match_brute_force(self, monkeypatch, block, word):
        if block is not None:
            monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", block)
        g = make_group("alt:4")
        a = automorphism_group(g)
        w = parse_word(word)
        ev = fibers._BatchEvaluator(g, w, a.tables)
        assert len(fibers._segments(w)) > 1
        free = fibers._free_letters(w, a)
        rows = np.arange(min(ev.batch_size(), len(a) ** len(free)))
        assert len(rows) == (len(a) ** len(free) if block is None else 1)
        digits, _ = fibers._tuple_digits(rows, len(a), w.length, free)
        counts = ev.counts(digits)
        assert counts.shape == (len(rows), g.order)
        for r in rows:
            tup = a.tables[[0 if dig is None else int(dig[r]) for dig in digits]]
            assert counts[r].tolist() == product_counts(g, w, tup)

    @pytest.mark.parametrize("word", SPLIT_WORDS)
    def test_sampled_batches_match_brute_force(self, word):
        g = make_group("alt:4")
        a = automorphism_group(g)
        w = parse_word(word)
        rng = np.random.default_rng(5)
        draws = rng.integers(0, len(a), size=(9, w.length))
        counts = fibers._BatchEvaluator(g, w, a.tables).counts(list(draws.T))
        for row, combo in zip(counts, draws):
            assert row.tolist() == product_counts(g, w, a.tables[combo])

    @pytest.mark.parametrize("spec, word", [("alt:4", "x1^2 x2^-2"), ("sym:3", "x1 x2^-1 x1 x3")])
    def test_searches_match_brute_force(self, spec, word):
        w = parse_word(word)
        g = make_group(spec)
        unclosed_g, unclosed = doubling_autset()
        for grp, a in ((g, inner_automorphisms(g)), (unclosed_g, unclosed)):
            best, per_vals, per_idx = brute_force_search(grp, w, a, [None])
            for threads in (1, 2):
                with two_tuples_per_batch(grp, w):
                    res = max_fiber(grp, w, fresh(a), threads=threads)
                assert (res.value, res.witness_target, res.witness_tuple_indices) == best[None]
                assert res.target_values.tolist() == per_vals.tolist()
                assert res.target_tuple_numbers.tolist() == per_idx.tolist()
                assert res.evaluations_performed == res.tuples_scanned * grp.order**w.num_variables

    @pytest.mark.parametrize("word", ["x1 x2 x3 x1^-1", "x1 x2 x1 x3^2"])
    def test_chunked_sweep_matches_brute_force(self, monkeypatch, word):
        # 20 values a block: the unsplit word's 216 arguments, and the 36 of
        # the split word's first segment, are swept in several chunks
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 20)
        built = counting_argument_blocks(monkeypatch)
        g = make_group("sym:3")
        a = automorphism_group(g)
        w = parse_word(word)
        rng = np.random.default_rng(2)
        for _ in range(3):
            tup = a.tables[rng.integers(0, len(a), w.length)]
            assert fiber_distribution(g, w, tup).counts.tolist() == product_counts(g, w, tup)
        assert len({start for start, _ in built}) > 1

    def test_split_word_builds_only_segment_arguments(self, monkeypatch):
        built = counting_argument_blocks(monkeypatch)
        assert pi_w(make_group("alt:5"), parse_word("x1 x2 x3 x4")) == (216000, Fraction(1, 60))
        assert sum(size for _, size in built) == 4 * 60

    def test_counts_beyond_64_bits_are_refused_before_any_argument(self, monkeypatch):
        built = counting_argument_blocks(monkeypatch)
        w = parse_word(" ".join(f"x{i}" for i in range(1, 12)))
        with pytest.raises(CapExceeded):
            pi_w(make_group("sym:5"), w, budget=10**30)
        assert built == []

    # (left rows, right rows): one tuple on the left broadcast over a batch
    # on the right, the reverse, and a batch on both sides; blocks of
    # ``per`` elements a, None for the default size (the whole support)
    @pytest.mark.parametrize("per", [None, 1, 2, 5], ids=lambda k: f"per{k}")
    @pytest.mark.parametrize("rows", [(1, 3), (3, 1), (3, 3)], ids=str)
    def test_blocked_fold_matches_the_per_element_fold(self, monkeypatch, rows, per):
        g = make_group("alt:4")
        n, b = g.order, max(rows)
        rng = np.random.default_rng(11)
        left = rng.integers(0, 40, size=(rows[0], n))
        left[:, rng.permutation(n)[: n // 3]] = 0  # a support short of G
        right = rng.integers(0, 40, size=(rows[1], n))
        limit = fibers._COMPOSE_BLOCK_ELEMENTS
        if per is not None:
            limit = per * b * n
            monkeypatch.setattr(fibers, "_COMPOSE_BLOCK_ELEMENTS", limit)
        ev = fibers._BatchEvaluator(g, XY, identity_rows(g, XY))
        lefts, rights = [], []
        got = ev._fold(recording_gathers(left, lefts), recording_gathers(right, rights))
        assert got.tolist() == reference_fold(g.table, left, right).tolist()
        support = np.count_nonzero(left.any(axis=0))
        assert len(rights) == (1 if per is None else -(-support // per))
        assert max(lefts + rights) <= limit

    @pytest.mark.parametrize("spec, word", [("alt:4", "x1^2 x2^-2"), ("sym:3", "x2 x1 x3^2 x1")])
    def test_batches_of_several_tuples_fold_one_element_a_block(self, monkeypatch, spec, word):
        # a block of one element a for b tuples: k = 1 on every fold
        g = make_group(spec)
        a = automorphism_group(g)
        w = parse_word(word)
        ev = fibers._BatchEvaluator(g, w, a.tables)
        free = fibers._free_letters(w, a)
        rows = np.arange(min(ev.batch_size(), len(a) ** len(free)))
        digits, _ = fibers._tuple_digits(rows, len(a), w.length, free)
        want = ev.counts(digits)
        monkeypatch.setattr(fibers, "_COMPOSE_BLOCK_ELEMENTS", len(rows) * g.order)
        assert len(rows) > 1 and ev.counts(digits).tolist() == want.tolist()
        for r in rows:
            tup = a.tables[[0 if dig is None else int(dig[r]) for dig in digits]]
            assert want[r].tolist() == product_counts(g, w, tup)

    def test_counts_past_2_to_the_53_are_exact(self):
        # the squares of 10 variables on alt:5: 60^10 argument tuples, and
        # fibers past 2^53 that float64 cannot hold (on sym:5 the squares of
        # 9 variables have fibers that large, but every one is a multiple of
        # a power of 2 that float64 holds exactly)
        g = make_group("alt:5")
        w = parse_word(" ".join(f"x{i}^2" for i in range(1, 11)))
        squares = [0] * g.order
        for x in range(g.order):
            squares[g.table[x, x]] += 1
        want = [1] + [0] * (g.order - 1)
        for _ in range(10):
            nxt = [0] * g.order
            for a in range(g.order):
                for x in range(g.order):
                    nxt[g.table[a, x]] += want[a] * squares[x]
            want = nxt
        assert sum(want) == g.order**10
        assert any(v > 2**53 and float(v) != v for v in want)
        got = fiber_distribution(g, w, identity_rows(g, w), budget=10**19)
        assert got.counts.tolist() == want

    def test_inverse_table_is_read_only_for_inverse_letters(self):
        from wordfibers.groups import FiniteGroup

        g = FiniteGroup(6, table=make_group("sym:3").table.copy(), spec="copy of sym:3")
        for word, reads in ((parse_word("x1^2 x2"), False), (COMMUTATOR, True)):
            ev = fibers._BatchEvaluator(g, word, identity_rows(g, word))
            counts = ev.counts([np.array([i]) for i in range(word.length)])
            assert counts.sum() == g.order**word.num_variables
            assert ("inv_table" in vars(g)) == reads


# reference for the exact search: every tuple of A^l in mixed-radix order,
# each counted by `product_counts`
def brute_force_search(g, w, a, targets):
    """Per entry of `targets` (None: any target) the best (value, target,
    letter indices); and the per-target maxima with first-attaining indices."""
    best = {t: (-1, None, None) for t in targets}
    per_vals = np.zeros(g.order, dtype=np.int64)
    per_idx = np.full(g.order, -1, dtype=np.int64)
    for idx, combo in enumerate(itertools.product(range(len(a)), repeat=w.length)):
        counts = np.array(product_counts(g, w, a.tables[list(combo)]))
        for t in targets:
            at = int(np.argmax(counts)) if t is None else t
            if counts[at] > best[t][0]:
                best[t] = (int(counts[at]), at, combo)
        better = counts > per_vals
        per_idx[better] = idx
        per_vals[better] = counts[better]
    return best, per_vals, per_idx


# x1^-1 x2 x1^2 starts on an inverse letter; in x1^2 x2^2 a free letter comes
# before a first letter, so scanned rows and full tuple indices differ.
NORMAL_FORM_WORDS = ["x1^2", "x1 x2 x1", "[x1,x2]", "x1^-1 x2 x1^2", "x1^2 x2^2"]
# Aut(q8) and Aut(alt:4) have 24 elements: their 4-letter words cover 331,776
# tuples, too many for the reference loop; TestNormalFormSearch pins them.
NORMAL_FORM_CASES = [
    (spec, auts, word)
    for spec in ["cyc:4", "sym:3", "dih:4", "q8", "alt:4", "prod:(cyc:2)x(cyc:2)"]
    for auts in ["inn", "aut"]
    for word in NORMAL_FORM_WORDS
    if not (spec in ("q8", "alt:4") and auts == "aut" and len(parse_word(word).letters) == 4)
]


def doubling_autset():
    """{id, x -> 2x} on cyc:5: not closed, since doubling twice is x -> 4x."""
    g = make_group("cyc:5")
    return g, AutSet(g, np.array([[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]]), kind="custom")


@pytest.fixture(params=["every-row", "orbits"])
def scan_by(request, monkeypatch):
    """Each exact scan of the test scans every row in normal form, or one
    per conjugation orbit wherever A is closed, whatever
    `fibers._orbits_pay` estimates; the fixture's value says which."""
    orbits = request.param == "orbits"
    monkeypatch.setattr(fibers, "_orbits_pay", lambda *args: orbits)
    return orbits


def orbit_count(g, w, a):
    """The orbits of a closed A on the tuples in normal form under
    simultaneous conjugation, by listing them: every tuple of the free
    letters (the later occurrences of each variable), each orbit once."""
    n, m = g.order, len(a)
    rows = [tuple(r) for r in a.tables.tolist()]
    number = {r: i for i, r in enumerate(rows)}
    conj = [
        [number[tuple(beta[alpha[inv[x]]] for x in range(n))] for alpha in rows]
        for beta, inv in ((b, np.argsort(b).tolist()) for b in rows)
    ]
    free = len(w.letters) - w.num_variables
    seen, orbits = set(), 0
    for combo in itertools.product(range(m), repeat=free):
        if combo not in seen:
            orbits += 1
            seen.update(tuple(conj[b][x] for x in combo) for b in range(m))
    return orbits


@functools.lru_cache(maxsize=None)
def brute_force_case(spec, table, rows, word):
    """`brute_force_search` for targets None and 1, once per group table,
    set rows and word, both scans of `scan_by` comparing against it."""
    g = make_group(spec)
    assert g.table.tobytes() == table
    a = AutSet(g, np.frombuffer(rows, dtype=np.int32).reshape(-1, g.order), kind="custom")
    return brute_force_search(g, parse_word(word), a, [None, 1])


class TestNormalFormSearch:
    def _check_against_brute_force(self, g, w, a):
        best, per_vals, per_idx = brute_force_case(
            g.spec, g.table.tobytes(), a.tables.tobytes(), str(w)
        )
        for threads in (1, 2):
            # one scan per thread count; target 1 reads the kept scan
            kept = fresh(a)
            for target in (None, 1):
                with two_tuples_per_batch(g, w):
                    res = max_fiber(g, w, kept, target=target, threads=threads)
                value, witness_target, indices = best[target]
                assert (res.value, res.witness_target, res.witness_tuple_indices) == (
                    value, witness_target, indices
                ), (target, threads)
                assert res.tuples_examined == len(a) ** w.length
                assert res.evaluations == res.tuples_examined * g.order**w.num_variables
                assert res.target_values.tolist() == per_vals.tolist()
                assert res.target_tuple_numbers.tolist() == per_idx.tolist()
        return res

    @pytest.mark.parametrize("spec, auts, word", NORMAL_FORM_CASES)
    def test_matches_brute_force(self, spec, auts, word, scan_by):
        g = make_group(spec)
        a = inner_automorphisms(g) if auts == "inn" else automorphism_group(g)
        w = parse_word(word)
        res = self._check_against_brute_force(g, w, a)
        if scan_by and len(a) > 1 and w.length > w.num_variables:
            scanned = orbit_count(g, w, a)
        else:
            scanned = len(a) ** (w.length - w.num_variables)
        assert res.tuples_scanned == scanned
        assert res.evaluations_performed == scanned * g.order**w.num_variables

    @pytest.mark.parametrize("word", NORMAL_FORM_WORDS)
    def test_unclosed_set_falls_back_to_the_full_scan(self, word, scan_by):
        g, a = doubling_autset()
        assert not a.is_closed
        w = parse_word(word)
        res = self._check_against_brute_force(g, w, a)
        assert res.tuples_scanned == 2**w.length
        assert res.evaluations_performed == res.evaluations

    def test_closure_of_a_custom_set_is_computed(self, scan_by):
        g = make_group("dih:4")
        a = AutSet(g, automorphism_group(g).tables, kind="custom")
        assert a.is_closed
        res = self._check_against_brute_force(g, COMMUTATOR, a)
        assert res.tuples_scanned == (28 if scan_by else 8**2)

    # Taken from the full |A|^l scan at the commit before the normal-form
    # search: (value, target, indices) for any target and for target 1, then
    # the per-target maxima and their first tuple indices.  Aut(q8) and
    # Aut(alt:4) are both S4, whose 576 pairs fall into 43 orbits under
    # conjugation (Burnside: (24^2 + 6*4^2 + 3*8^2 + 8*3^2 + 6*4^2) / 24).
    @pytest.mark.parametrize("spec, word, any_target, target_one, values, indices", [
        ("q8", "[x1,x2]", (40, 0, (0, 0, 0, 0)), (40, 1, (0, 0, 1, 4)),
         [40, 40, 24, 24, 24, 24, 24, 24], [0, 28, 76, 52, 42, 46, 36, 32]),
        ("q8", "x1^-1 x2 x1^2", (8, 0, (0, 0, 0, 0)), (8, 1, (0, 0, 0, 0)),
         [8] * 8, [0] * 8),
        ("alt:4", "[x1,x2]", (48, 0, (0, 0, 0, 0)), (24, 1, (0, 0, 1, 3)),
         [48, 24, 24, 48, 24, 24, 24, 24, 48, 24, 24, 48],
         [0, 27, 51, 36, 63, 39, 42, 66, 45, 54, 30, 33]),
        ("alt:4", "x1^-1 x2 x1^2", (12, 0, (0, 0, 0, 0)), (12, 1, (0, 0, 0, 0)),
         [12] * 12, [0] * 12),
        ("q8", "x1^2 x2^2", (40, 0, (0, 0, 0, 0)), (40, 1, (0, 0, 0, 1)),
         [40, 40, 24, 24, 24, 24, 24, 24], [0, 1, 3, 2, 18, 22, 12, 9]),
        ("alt:4", "x1^2 x2^2", (48, 0, (0, 3, 0, 3)), (24, 1, (0, 0, 0, 1)),
         [48, 24, 24, 48, 24, 24, 24, 24, 48, 24, 24, 48],
         [1731, 1, 2, 1734, 23, 22, 10, 11, 1736, 14, 13, 1744]),
    ])
    def test_matches_pinned_full_scans(self, spec, word, any_target, target_one, values, indices,
                                       scan_by):
        g = make_group(spec)
        a = automorphism_group(g)
        w = parse_word(word)
        for threads in (1, 2):
            kept = fresh(a)
            for target, expected in ((None, any_target), (1, target_one)):
                with two_tuples_per_batch(g, w):
                    res = max_fiber(g, w, kept, target=target, threads=threads)
                assert (res.value, res.witness_target, res.witness_tuple_indices) == expected
                assert res.target_values.tolist() == values
                assert res.target_tuple_numbers.tolist() == indices
                assert res.tuples_examined == 24**4
                assert res.tuples_scanned == (43 if scan_by else 24**2)

    def test_alt5_commutator_over_aut_is_exact(self):
        # |G| k(G) = 60 * 5 commuting pairs: the identity's fiber, the largest.
        # Aut(alt:5) is S5, whose 14,400 pairs fall into 161 conjugation orbits
        g = make_group("alt:5")
        res = max_fiber(g, COMMUTATOR, automorphism_group(g))
        assert res.status == "exact"
        assert (res.value, res.witness_target, res.witness_tuple_indices) == (300, 0, (0, 0, 0, 0))
        assert res.tuples_scanned == 161
        assert res.tuples_examined == 120**4
        assert res.evaluations_performed == 161 * 3600

    def test_tuple_numbering_past_64_bits_is_refused_before_the_search(self):
        # 168^9 tuples overflow int64, although the normal form scans one
        g = make_group("pow:(cyc:2)^3")
        w = parse_word("x1 x2 x3 x4 x5 x6 x7 x8 x9")
        with pytest.raises(CapExceeded):
            max_fiber(g, w, automorphism_group(g), budget=10**12)

    def test_budget_bounds_the_performed_work(self, scan_by):
        # the budget is checked on the scan of every row in normal form,
        # which the orbit scan's 43 rows never exceed
        g = make_group("alt:4")
        a = automorphism_group(g)
        needed = 24**2 * 12**2
        performed = max_fiber(g, COMMUTATOR, a, budget=needed).evaluations_performed
        assert performed == (43 * 12**2 if scan_by else needed)
        with pytest.raises(BudgetExceeded):
            max_fiber(g, COMMUTATOR, a, budget=needed - 1)
        g5, unclosed = doubling_autset()
        full = 2**4 * 5**2
        assert max_fiber(g5, COMMUTATOR, unclosed, budget=full).tuples_scanned == 2**4
        with pytest.raises(BudgetExceeded):
            max_fiber(g5, COMMUTATOR, unclosed, budget=full - 1)


def battery_scans(out):
    """(group, word, set) of each of the 50 exact scans of the shipped
    battery, run with its reports written to `out`; each set keeps its
    scan."""
    from wordfibers import cli

    seen = []
    real = fibers._scan_normal_forms

    def record(ev, a, *args):
        seen.append((ev.g, ev.w, a))
        return real(ev, a, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "_scan_normal_forms", record)
        cli.run_command(["verify", "battery", "--out", str(out)], stdout=io.StringIO())
    assert len(seen) == 50
    return seen


class TestOrbitScan:
    """The orbit scan rebuilds the records of the scan of every row in
    normal form in full: values and tuple numbers."""

    @staticmethod
    def records(g, w, a, orbits, threads=1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fibers, "_orbits_pay", lambda *args: orbits)
            mp.setattr(os, "cpu_count", lambda: 2)
            return fibers._search_all_tuples(g, w, fresh(a), 10**12, threads)

    def assert_same_records(self, g, w, a):
        every = self.records(g, w, a, False)
        for threads in (1, 2):
            for batches in (contextlib.nullcontext(), two_tuples_per_batch(g, w)):
                with batches:
                    got = self.records(g, w, a, True, threads)
                for mine, theirs in zip(got[:2], every[:2]):
                    assert np.array_equal(mine, theirs), (g.spec, str(w), threads)

    def test_every_scan_of_the_battery(self, tmp_path):
        for g, w, a in battery_scans(tmp_path):
            self.assert_same_records(g, w, a)

    @pytest.mark.parametrize("word", ["[x1,x2]", "x1^2 x2^2"])
    def test_alt5_under_aut(self, word):
        g = make_group("alt:5")
        self.assert_same_records(g, parse_word(word), automorphism_group(g))

    @pytest.mark.parametrize("spec, word, orbits", [
        # the measured crossover: the orbit scan loses at 4.6e3 scanned
        # evaluations and wins from 3.7e4
        ("dih:4", "[x1,x2]", False), ("q8", "x1^3", False), ("q8", "[x1,x2]", True),
        ("alt:5", "[x1,x2]", True), ("alt:5", "x1^2 x2^2", True), ("cyc:4", "[x1,x2]", False),
    ])
    def test_the_estimate_follows_the_measured_crossover(self, spec, word, orbits):
        g = make_group(spec)
        a, w = automorphism_group(g), parse_word(word)
        scanned = len(a) ** (w.length - w.num_variables)
        ev = fibers._BatchEvaluator(g, w, a.tables)
        assert fibers._orbits_pay(ev, len(a), scanned) == orbits
        res = max_fiber(g, w, a)
        assert (res.tuples_scanned < scanned) == orbits

    def test_a_set_whose_table_would_not_fit_scans_every_row(self, monkeypatch, scan_by):
        g = make_group("q8")
        a = automorphism_group(g)
        monkeypatch.setattr(fibers, "_CONJUGATION_ENTRIES", 24**2 - 1)
        assert max_fiber(g, COMMUTATOR, a).tuples_scanned == 24**2
        assert "conjugation" not in vars(a)


class TestWitnessNumbers:
    """The records hold a number per target and no letters: `max_fiber`
    decodes each witness from its number alone."""

    @staticmethod
    def assert_numbers_carry_the_witnesses(g, w, a):
        """Every target's decoded tuple reaches the target's record value
        there, and encodes back to its number; number -1, a target no tuple
        reaches, decodes as the identity.  Returns the targets at -1."""
        res = max_fiber(g, w, a, budget=10**12)
        vals, nums = res.target_values, res.target_tuple_numbers
        m, l = len(a), w.length
        counts = {}
        for t in range(g.order):
            got = max_fiber(g, w, a, target=t, budget=10**12)
            letters = got.witness_tuple_indices
            assert got.witness_tuple.tolist() == a.tables[list(letters)].tolist()
            if letters not in counts:
                counts[letters] = fiber_distribution(g, w, got.witness_tuple, 10**12).counts
            assert counts[letters][t] == vals[t] == got.value, (g.spec, str(w), t)
            number = max(int(nums[t]), 0)
            assert sum(x * m ** (l - 1 - i) for i, x in enumerate(letters)) == number
        return int((nums == -1).sum())

    def test_every_scan_of_the_battery(self, tmp_path):
        unreached = sum(
            self.assert_numbers_carry_the_witnesses(g, w, a) for g, w, a in battery_scans(tmp_path)
        )
        assert unreached > 0

    @pytest.mark.parametrize("word", ["[x1,x2]", "x1^2 x2^2"])
    def test_alt5_under_aut(self, word):
        g = make_group("alt:5")
        self.assert_numbers_carry_the_witnesses(g, parse_word(word), automorphism_group(g))

    def test_number_minus_one_is_the_identity_tuple(self):
        g = make_group("cyc:4")
        a = automorphism_group(g)
        res = max_fiber(g, SQUARE, a, target=1)
        assert res.target_tuple_numbers[1] == -1
        assert (res.value, res.witness_tuple_indices) == (0, (0, 0))
        assert res.witness_tuple.tolist() == identity_rows(g, SQUARE).tolist()

    @pytest.mark.parametrize("per_batch", [1, 7, 50])
    def test_the_numbers_do_not_depend_on_the_batch_size(self, monkeypatch, per_batch):
        # sym:4 under Aut, x1^2 x2^2: the orbit representatives of the 576
        # rows in normal form, scanned per_batch tuples at a time on one or
        # two threads, give the records of the scan in one batch; products
        # of two squares are even, so the 12 odd targets stay at -1
        g, w = make_group("sym:4"), parse_word("x1^2 x2^2")
        a = automorphism_group(g)
        whole = max_fiber(g, w, fresh(a))
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", per_batch * g.order**w.num_variables)
        for threads in (1, 2):
            kept = fresh(a)
            got = max_fiber(g, w, kept, threads=threads)
            assert got.tuples_scanned < 24**2
            assert_same_result(got, whole)
            assert self.assert_numbers_carry_the_witnesses(g, w, kept) == 12


def assert_same_result(got, want):
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


class TestSearchMemo:
    """`max_fiber` keeps each exact scan on A (``a.searches``), keyed by the
    group object and the word, and builds every later exact result for them
    from it; a set that misses there finds a scan of equal content
    (`fibers._SCANS`)."""

    def test_a_second_call_reads_the_kept_scan(self, scans):
        g = make_group("alt:4")
        a = automorphism_group(g)
        first = max_fiber(g, COMMUTATOR, a)
        for k, target in enumerate((None, 1, 5)):
            hit = max_fiber(g, COMMUTATOR, a, target=target)
            assert len(scans) == 1 + k
            assert_same_result(hit, max_fiber(g, COMMUTATOR, fresh(a), target=target))
            assert len(scans) == 2 + k  # a fresh set scans again
        assert_same_result(max_fiber(g, COMMUTATOR, a), first)

    def test_the_scan_is_kept_per_word_and_group_object(self, scans):
        g = make_group("dih:4")
        a = automorphism_group(g)
        square, commutator = max_fiber(g, SQUARE, a), max_fiber(g, COMMUTATOR, a)
        assert len(scans) == 2 and square.value != commutator.value
        assert max_fiber(g, SQUARE, a).value == square.value
        assert max_fiber(g, COMMUTATOR, a).value == commutator.value
        assert len(scans) == 2
        # a new group object is a new key on A, and its equal table finds
        # the scan by content
        twin = make_group("dih:4")
        assert max_fiber(twin, SQUARE, a).value == square.value
        assert len(scans) == 2
        assert list(a.searches) == [(g, SQUARE), (g, COMMUTATOR), (twin, SQUARE)]

    def test_kept_records_are_read_only(self):
        g = make_group("sym:3")
        a = automorphism_group(g)
        res = max_fiber(g, SQUARE, a)
        for array in (res.target_values, res.target_tuple_numbers):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # the witness tuple is the caller's own copy of A's rows
        res.witness_tuple[:] = 0
        again = max_fiber(g, SQUARE, a)
        assert again.witness_tuple.tolist() == a.tables[list(again.witness_tuple_indices)].tolist()

    def test_a_hit_refuses_a_smaller_budget_as_a_miss_does(self, scans):
        g = make_group("alt:4")
        a = automorphism_group(g)
        needed = 24**2 * 12**2
        with pytest.raises(BudgetExceeded) as miss:
            max_fiber(g, COMMUTATOR, a, budget=needed - 1)
        assert not a.searches
        kept = max_fiber(g, COMMUTATOR, a, budget=needed)
        with pytest.raises(BudgetExceeded) as hit:
            max_fiber(g, COMMUTATOR, a, budget=needed - 1)
        assert str(hit.value) == str(miss.value)
        assert_same_result(max_fiber(g, COMMUTATOR, a, budget=needed), kept)
        assert len(scans) == 1

    def test_a_hit_after_a_two_thread_miss_equals_a_one_thread_search(self, monkeypatch, scans):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        g = make_group("dih:4")
        a = automorphism_group(g)
        with two_tuples_per_batch(g, COMMUTATOR):
            max_fiber(g, COMMUTATOR, a, threads=2)
        assert len(scans) == 2  # one range per thread
        for target in (None, 0, 3):
            assert_same_result(max_fiber(g, COMMUTATOR, a, target=target),
                               max_fiber(g, COMMUTATOR, fresh(a), target=target))

    def test_threads_sharing_one_set_get_the_scans_of_fresh_sets(self):
        # several callers on one A, and on a set of equal content over a
        # group of equal table, at once, switching threads often: a miss on
        # two threads scans twice and keeps the first scan stored
        g, twin = make_group("dih:4"), make_group("dih:4")
        a = automorphism_group(g)
        b = AutSet(twin, a.tables.copy(), kind="full")
        words = [SQUARE, COMMUTATOR, XY, parse_word("x1 x2 x1")] * 3
        jobs = [(grp, w, s) for w in words for grp, s in ((g, a), (twin, b))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(lambda job: max_fiber(*job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert len(a.searches) == len(b.searches) == 4
        for (grp, w, s), res in zip(jobs, results):
            assert_same_result(res, max_fiber(grp, w, fresh(s)))


class TestSharedScans:
    """A set that misses its own kept scans finds a scan by content: G's
    table, A's rows, A's closedness and the word (`fibers._SCANS`)."""

    @staticmethod
    def twin(a):
        """A new group object with a's group's table, and a new set with a
        copy of a's rows."""
        g = make_group(a.group.spec)
        return g, AutSet(g, a.tables.copy(), kind=a.kind)

    def test_equal_tables_and_rows_share_one_scan(self, scans):
        g = make_group("dih:4")
        a = automorphism_group(g)
        first = max_fiber(g, COMMUTATOR, a)
        twin, b = self.twin(a)
        for target in (None, 0, 3):
            assert_same_result(max_fiber(twin, COMMUTATOR, b, target=target),
                               max_fiber(g, COMMUTATOR, a, target=target))
        assert len(scans) == 1
        assert b.searches[(twin, COMMUTATOR)] is a.searches[(g, COMMUTATOR)]
        assert_same_result(max_fiber(twin, COMMUTATOR, fresh(b)), first)
        assert len(scans) == 2

    def test_a_different_row_table_word_or_closedness_scans_again(self, scans):
        g = make_group("dih:4")
        max_fiber(g, SQUARE, automorphism_group(g))
        max_fiber(g, SQUARE, inner_automorphisms(g))  # other rows
        max_fiber(g, SQUARE, identity_autset(g))
        cyc = make_group("cyc:8")
        max_fiber(cyc, SQUARE, identity_autset(cyc))  # the identity rows, another table
        max_fiber(g, COMMUTATOR, automorphism_group(g))  # another word
        assert len(scans) == 5
        # the same rows taken as closed: a normal-form scan, not the full one
        c, unclosed = doubling_autset()
        taken = AutSet(c, unclosed.tables, kind="full")
        full, normal = max_fiber(c, SQUARE, unclosed), max_fiber(c, SQUARE, taken)
        assert len(scans) == 7
        assert (full.tuples_scanned, normal.tuples_scanned) == (4, 2)

    def test_a_digest_collision_scans_again(self, monkeypatch, scans):
        # with every digest equal, only the full comparison of the arrays
        # tells the scans apart
        monkeypatch.setattr(fibers, "_digest", lambda array: 0)
        g, cyc = make_group("dih:4"), make_group("cyc:8")
        sets = [(g, automorphism_group(g)), (g, inner_automorphisms(g)),
                (cyc, identity_autset(cyc)), (g, identity_autset(g))]
        results = [max_fiber(grp, SQUARE, a) for grp, a in sets]
        assert len(scans) == 4
        for (grp, a), res in zip(sets, results):
            assert_same_result(res, max_fiber(grp, SQUARE, fresh(a)))

    def test_a_shared_hit_refuses_the_budget_a_miss_refuses(self, scans):
        g = make_group("alt:4")
        a = automorphism_group(g)
        needed = 24**2 * 12**2
        twin, b = self.twin(a)
        with pytest.raises(BudgetExceeded) as miss:
            max_fiber(twin, COMMUTATOR, b, budget=needed - 1)
        max_fiber(g, COMMUTATOR, a, budget=needed)
        with pytest.raises(BudgetExceeded) as hit:
            max_fiber(twin, COMMUTATOR, b, budget=needed - 1)
        assert str(hit.value) == str(miss.value)
        assert not b.searches and len(scans) == 1
        max_fiber(twin, COMMUTATOR, b, budget=needed)
        assert len(scans) == 1 and list(b.searches) == [(twin, COMMUTATOR)]

    def test_the_table_forgets_a_scan_with_its_last_set(self, scan_table):
        g = make_group("dih:4")
        a = AutSet(g, automorphism_group(g).tables, kind="full")
        twin, b = self.twin(a)
        max_fiber(g, SQUARE, a)
        max_fiber(twin, SQUARE, b)
        assert len(scan_table) == 1
        del a
        assert len(scan_table) == 1  # b holds it
        del b
        assert len(scan_table) == 0


def center_handle(g):
    return subgroup_handle(g, g.center)


class TestRewrite:
    def test_single_letter_beta_is_restriction(self):
        g = make_group("sym:3")
        aut = automorphism_group(g)
        from wordfibers.groups import subgroups

        sub = next(s for s in subgroups(g) if s.order == 3)
        w = parse_word("x1")
        alpha = aut.tables[4]
        res = rewrite_coset_equation(g, sub, w, alpha[None, None], [(3,)])
        assert res.beta.shape == (1, 1, 3)
        for i, n_elem in enumerate(res.n_elements):
            assert res.n_elements[res.beta[0, 0, i]] == alpha[n_elem]

    def test_commutator_closed_form(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        n = center_handle(g)
        rng = np.random.default_rng(7)
        for _ in range(25):
            auts = aut.tables[rng.integers(0, len(aut), 4)]
            base = tuple(int(x) for x in rng.integers(0, 8, 2))
            res = rewrite_coset_equation(g, n, COMMUTATOR, auts[None], [base])
            a1, a2, a3, a4 = (lambda x, row=row: int(row[x]) for row in auts)
            g1, g2 = base
            c2 = a1(g1)
            c3 = g.mul(g.mul(a1(g1), a2(g2)), g.inv(a3(g1)))
            c4 = g.mul(c3, g.inv(a4(g2)))
            expected = [
                lambda x: a1(x),
                lambda x: g.mul(g.mul(c2, a2(x)), g.inv(c2)),
                lambda x: g.mul(g.mul(c3, a3(x)), g.inv(c3)),
                lambda x: g.mul(g.mul(c4, a4(x)), g.inv(c4)),
            ]
            for i in range(4):
                for pos, n_elem in enumerate(res.n_elements):
                    got = res.n_elements[res.beta[0, i, pos]]
                    assert got == expected[i](n_elem)

    @pytest.mark.parametrize(
        "spec,sub_order,word",
        [
            ("dih:4", 2, "x1^2"),
            ("dih:4", 2, "[x1,x2]"),
            ("sym:3", 3, "x1^3"),
            ("alt:4", 4, "x1 x2 x1"),
        ],
    )
    def test_two_sided_equivalence_exhaustive(self, spec, sub_order, word):
        g = make_group(spec)
        aut = automorphism_group(g)
        from wordfibers.groups import subgroups

        n = next(
            s for s in subgroups(g) if s.order == sub_order and s.characteristic
        )
        w = parse_word(word)
        rng = np.random.default_rng(13)
        for _ in range(10):
            auts = aut.tables[rng.integers(0, len(aut), w.length)]
            base = tuple(int(x) for x in rng.integers(0, g.order, w.num_variables))
            res = rewrite_coset_equation(g, n, w, auts[None], [base])
            for combo in itertools.product(range(n.order), repeat=w.num_variables):
                shifted = tuple(
                    g.mul(n.elements[c], b) for c, b in zip(combo, base)
                )
                lhs = eval_automorphic(g, w, auts, shifted) == res.target[0]
                rhs = eval_automorphic(res.n_group, w, res.beta[0], combo) == 0
                assert lhs == rhs

    @pytest.mark.parametrize("spec, sub_order, word", [
        ("dih:4", 2, "[x1,x2]"),
        ("alt:4", 4, "x1 x2^-1 x1"),
        ("alt:4", 4, "x1^-1 x2 x3^-1 x1"),
    ])
    def test_batch_rows_equal_single_calls(self, spec, sub_order, word):
        g = make_group(spec)
        aut = automorphism_group(g)
        n = next(s for s in subgroups(g) if s.order == sub_order and s.characteristic)
        w = parse_word(word)
        rng = np.random.default_rng(3)
        auts = aut.tables[rng.integers(0, len(aut), (7, w.length))]
        bases = rng.integers(0, g.order, (7, w.num_variables))
        batch = rewrite_coset_equation(g, n, w, auts, bases)
        assert batch.beta.shape == (7, w.length, n.order)
        assert batch.target.shape == (7,) and batch.conjugators.shape == (7, w.length)
        for t in range(7):
            one = rewrite_coset_equation(g, n, w, auts[t : t + 1], bases[t : t + 1])
            assert one.beta.shape == (1, w.length, n.order)
            assert one.target.shape == (1,) and one.conjugators.shape == (1, w.length)
            assert (batch.beta[t] == one.beta[0]).all()
            assert batch.target[t] == one.target[0]
            assert (batch.conjugators[t] == one.conjugators[0]).all()
        again = rewrite_coset_equation(g, n, w, auts, bases, target=batch.target)
        assert (again.beta == batch.beta).all()
        with pytest.raises(ValueError, match="does not satisfy"):
            rewrite_coset_equation(g, n, w, auts, bases, target=batch.target ^ 1)
        with pytest.raises(ValueError, match="base entries per trial"):
            rewrite_coset_equation(g, n, w, auts, bases[:6])
        with pytest.raises(ValueError, match="automorphism rows"):
            rewrite_coset_equation(g, n, w, auts[:, 1:], bases)
        with pytest.raises(ValueError, match="automorphism rows"):
            rewrite_coset_equation(g, n, w, auts[0], bases[0])

    def test_row_moving_n_is_refused(self):
        g = make_group("dih:4")
        n = center_handle(g)
        z = n.elements[1]
        outside = next(x for x in range(g.order) if x not in n.elements)
        row = np.arange(g.order)
        row[[z, outside]] = row[[outside, z]]  # a permutation, not an automorphism
        with pytest.raises(ValueError, match="must stabilize N"):
            rewrite_coset_equation(g, n, parse_word("x1"), row[None, None], [(0,)])

    def test_row_moving_n_is_refused_under_python_O(self):
        # the refusal is no assert, which -O would strip
        import wordfibers

        src = str(Path(wordfibers.__file__).resolve().parents[1])
        script = (
            "import numpy as np\n"
            "from wordfibers.fibers import rewrite_coset_equation\n"
            "from wordfibers.groups import make_group, subgroup_handle\n"
            "from wordfibers.words import parse_word\n"
            "g = make_group('dih:4')\n"
            "n = subgroup_handle(g, g.center)\n"
            "outside = next(x for x in range(8) if x not in n.elements)\n"
            "row = np.arange(8)\n"
            "row[[n.elements[1], outside]] = [outside, n.elements[1]]\n"
            "try:\n"
            "    rewrite_coset_equation(g, n, parse_word('x1'), row[None, None], [(0,)])\n"
            "except ValueError as err:\n"
            "    print(err)\n"
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "conjugated automorphism must stabilize N"

    def test_wrong_target_rejected(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        n = center_handle(g)
        value = eval_automorphic(g, SQUARE, aut.tables[[0, 0]], (3,))
        bad = (value + 1) % 8
        with pytest.raises(ValueError):
            rewrite_coset_equation(g, n, SQUARE, aut.tables[[[0, 0]]], [(3,)], target=bad)


# -- word systems and counts on direct powers ------------------------------------


def word_of(*pairs):
    """A word with the given (variable, sign) letters, variables not renamed."""
    return ReducedWord(tuple(Letter(v, s) for v, s in pairs))


# independent oracle: joint counts of a word system by a loop over every
# assignment of its variables, word 0 the most significant digit of a bin
def system_oracle(g, words, auts):
    variables = sorted({let.var for w in words for let in w.letters})
    counts = [0] * g.order ** len(words)
    for args in itertools.product(range(g.order), repeat=len(variables)):
        value = dict(zip(variables, args))
        key, rows = 0, iter(auts)
        for w in words:
            word_rows = [next(rows) for _ in w.letters]
            key = key * g.order + eval_oracle(g, w, word_rows, [value[v] for v in w.variables])
        counts[key] += 1
    return counts


# two words sharing x2, one with an inverse letter; three words, one of them
# a single inverse letter
SYSTEMS = [
    [word_of((1, 1), (2, 1)), word_of((2, -1), (3, 1), (2, 1))],
    [word_of((1, 1), (1, 1)), word_of((1, 1), (2, 1)), word_of((2, -1))],
]


class TestWordSystems:
    @pytest.mark.parametrize("block", [None, 20], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("system", SYSTEMS, ids=["shared", "three"])
    def test_joint_counts_match_brute_force(self, monkeypatch, block, system):
        if block is not None:
            monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", block)
        g = make_group("sym:3")
        a = automorphism_group(g)
        letters = sum(w.length for w in system)
        draws = np.random.default_rng(3).integers(0, len(a), size=(5, letters))
        ev = fibers._BatchEvaluator(g, system, a.tables)
        # a block of 20 values holds one tuple, swept in chunks
        assert (ev.batch_size() == 1) == (block is not None)
        step = min(ev.batch_size(), len(draws))
        counts = np.concatenate([
            ev.counts(list(draws[lo : lo + step].T)) for lo in range(0, len(draws), step)
        ])
        assert counts.shape == (len(draws), g.order ** len(system))
        for row, combo in zip(counts, draws):
            assert row.tolist() == system_oracle(g, system, a.tables[combo])
        # an identity letter (None) is broadcast over the batch
        digits = list(draws[:step].T)
        digits[1] = None
        combos = draws[:step].copy()
        combos[:, 1] = 0
        for row, combo in zip(ev.counts(digits), combos):
            assert row.tolist() == system_oracle(g, system, a.tables[combo])

    def test_a_system_of_one_is_the_single_word(self):
        g = make_group("alt:4")
        a = automorphism_group(g)
        w = parse_word("x1^2 x2^-1 x3 x2")
        single, system = (fibers._BatchEvaluator(g, x, a.tables) for x in (w, [w]))
        assert system.segments == single.segments
        assert len(single.segments) == 2
        draws = list(np.random.default_rng(1).integers(0, len(a), size=(6, w.length)).T)
        assert system.counts(draws).tolist() == single.counts(draws).tolist()

    def test_bins_beyond_32_bits_are_refused(self):
        g = make_group("alt:5")
        with pytest.raises(CapExceeded):
            fibers._BatchEvaluator(g, [word_of((1, 1))] * 6, automorphism_group(g).tables)


# (group, n, word, tuples): few tuples where the table of S^n is large
WREATH_CASES = [
    (spec, n, word, 24)
    for spec, n in (("sym:3", 2), ("sym:3", 3), ("dih:4", 2), ("alt:4", 2))
    for word in WREATH_WORDS
] + [("alt:5", 2, word, 24 if word.count("x") == 1 else 3) for word in WREATH_WORDS]


class TestWreathCounts:
    @pytest.mark.parametrize("spec, n, word, k", WREATH_CASES,
                             ids=lambda c: str(c).replace(" ", ""))
    def test_rows_match_the_table_of_the_power(self, spec, n, word, k):
        s, w = make_group(spec), parse_word(word)
        base = automorphism_group(s)
        parts = draw_wreath_parts(np.random.default_rng(6), len(base), n, k * w.length)
        base_indices, sigmas = (x.reshape(k, w.length, n) for x in parts)
        factors = fibers.wreath_counts(s, w, base, n, base_indices, sigmas)
        got = factor_rows(factors, k, s.order, n)
        assert got.tolist() == dense_wreath_counts(s, w, base, n, base_indices, sigmas).tolist()

    def test_tuples_with_joined_coordinates_are_covered(self):
        # sigma of the second x1 differs from the first's: coordinates 0 and 1
        # read each other's copies and form one component
        s, w = make_group("sym:3"), SQUARE
        base = inner_automorphisms(s)
        base_indices = np.array([[[1, 2], [3, 4]], [[5, 0], [2, 2]]])
        sigmas = np.array([[[0, 1], [1, 0]], [[1, 0], [1, 0]]])
        got = factor_rows(fibers.wreath_counts(s, w, base, 2, base_indices, sigmas), 2, 6, 2)
        assert got.tolist() == dense_wreath_counts(s, w, base, 2, base_indices, sigmas).tolist()
        assert [fibers._components(np.array(p)) for p in ([[0, 1], [1, 0]], [[0, 1], [0, 1]])] == [
            [[0, 1]], [[0], [1]]]

    @pytest.mark.parametrize("word", ["x1", "x1 x2^-1"])
    def test_first_letters_split_every_coordinate(self, monkeypatch, word):
        # after the relabelling every first letter reads its own coordinate's
        # copy, so a word of first letters has n components of one
        # coordinate, whatever the permutations; without it, a permutation
        # would join the coordinates it moves (exact, but counted on S^|C|)
        systems = []

        class Recording(fibers._BatchEvaluator):
            def __init__(self, g, w, aut_tables):
                systems.append(w)
                super().__init__(g, w, aut_tables)

        monkeypatch.setattr(fibers, "_BatchEvaluator", Recording)
        s, w = make_group("sym:3"), parse_word(word)
        base = automorphism_group(s)
        parts = draw_wreath_parts(np.random.default_rng(2), len(base), 3, 8 * w.length)
        base_indices, sigmas = (x.reshape(8, w.length, 3) for x in parts)
        assert len({p.tobytes() for p in sigmas}) > 1
        fibers.wreath_counts(s, w, base, 3, base_indices, sigmas)
        assert systems and all(len(system) == 1 for system in systems)

    def test_refuses_counts_of_one_tuple_beyond_a_block(self, monkeypatch):
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 35)
        s = make_group("sym:3")
        with pytest.raises(CapExceeded):
            fibers.wreath_counts(s, SQUARE, automorphism_group(s), 2,
                                 np.zeros((1, 2, 2), dtype=int), np.zeros((1, 2, 2), dtype=int))

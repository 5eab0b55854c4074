"""Word map and automorphic word map evaluation, fiber counting, maximization.

Argument tuples (g_1, ..., g_d) are flattened to a single index with g_1 most
significant: index = sum_k g_k * n^(d-k).  Automorphism tuples drawn from an
enumerated AutSet of size m are likewise numbered in mixed radix with the
first letter most significant, which fixes the deterministic search order and
tie-breaking.  The exact search scans only the tuples in normal form (see
`_search_all_tuples`), or one tuple per conjugation orbit of them, but
reports every tuple index in this full numbering.
One tuple of letter automorphisms is an (l, |G|) array, row i the table of
the automorphism on letter i.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, CapExceeded, EmptyWordError
from .groups import (
    _COMPOSE_BLOCK_ELEMENTS,
    AutSet,
    FiniteGroup,
    SubgroupHandle,
    _require_characteristic,
)
from .words import Letter, ReducedWord

DEFAULT_BUDGET = 10**8
_BATCH_ELEMENTS = 1 << 22
# the largest |A|^2 whose conjugation table the orbit scan builds
_CONJUGATION_ENTRIES = 1 << 22
# read once: `np.iinfo` builds a new object on every call
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)

# every exact scan some AutSet keeps, indexed by what it depends on
# (`_search_all_tuples`); an entry leaves when the last set holding it goes
_SCANS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass
class FiberDistribution:
    """Exact fiber sizes of one automorphic word map, indexed by target element."""

    counts: np.ndarray
    order: int
    arity: int

    @property
    def total(self) -> int:
        return self.order**self.arity

    def max_fiber(self) -> tuple[int, int]:
        """(size, least target attaining it)."""
        target = int(np.argmax(self.counts))
        return int(self.counts[target]), target


@dataclass
class MaxFiberResult:
    """``tuples_examined`` counts the automorphism tuples the result covers
    (all |A|^l of them in exact mode) and ``tuples_scanned`` those actually
    evaluated: in exact mode the tuples in normal form, or one per orbit of
    them where the orbit scan runs (see `max_fiber`); ``evaluations`` and
    ``evaluations_performed`` count the argument tuples accounted for, |G|^d
    per covered or scanned tuple.  A word that splits into segments (see
    `_BatchEvaluator`) accounts for them without evaluating each one.

    The scan's records are two arrays: ``target_values[g]`` is the largest
    fiber at target g over the tuples covered, P^(A)(G, g) in exact mode,
    and ``target_tuple_numbers[g]`` the number of the least tuple attaining
    it: its full mixed-radix index in exact mode, its draw number in sample
    mode (0 is the identity tuple); -1 for a target no tuple reaches.  The
    witness is decoded from its number alone: ``witness_tuple_indices`` are
    the AutSet indices of its letters, and ``witness_tuple`` their tables,
    one per row; number -1 decodes as the identity tuple."""

    value: int
    proportion: Fraction
    witness_tuple: np.ndarray
    witness_target: int
    status: str  # "exact" or "lower_bound"
    tuples_examined: int
    evaluations: int
    tuples_scanned: int
    evaluations_performed: int
    target_values: np.ndarray
    target_tuple_numbers: np.ndarray
    witness_tuple_indices: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None


def _letter_args(w: ReducedWord) -> list[tuple[int, int]]:
    """(argument position, sign) of each letter of w, its variables' arguments
    given in ascending variable order."""
    pos = {v: i for i, v in enumerate(w.variables)}
    return [(pos[let.var], let.sign) for let in w.letters]


def _letter_tables(g: FiniteGroup, w: ReducedWord, auts: np.ndarray) -> np.ndarray:
    tables = np.asarray(auts)
    if tables.shape != (w.length, g.order):
        raise ValueError(
            f"expected {w.length} automorphism rows of {g.order} entries, got {tables.shape}"
        )
    return tables


def eval_automorphic(
    g: FiniteGroup,
    w: ReducedWord,
    auts: np.ndarray,
    args: Sequence[int] | Sequence[np.ndarray],
) -> int | np.ndarray:
    """Substitute args, in ascending variable order, into the word, the i-th
    letter first passed through the automorphism in row i of the (l, |G|)
    array `auts`.

    With one array of K elements per variable in `args`, evaluates K argument
    tuples at once and returns an array of K values."""
    tables = _letter_tables(g, w, auts)
    if len(args) != w.num_variables:
        raise ValueError(f"expected {w.num_variables} arguments, got {len(args)}")
    acc = _word_values(g, _letter_args(w), tables, args)
    return acc if np.ndim(acc) else int(acc)


def _word_values(g: FiniteGroup, letters, rows, args):
    """The one letter loop of every word evaluation, unchecked: letter i,
    (j, sign) in `letters`, reads row i at argument ``args[j]``, and the
    values are composed in g.

    A row is read on its last axis, so it may be one table, (|G|,), or one
    table per tuple, (b, |G|) (or (b, |N|) for the coset rows of
    `check_rewrite`), whose values gain a leading axis of b; arguments and
    values broadcast.  `np.take` keeps the values C-contiguous, which
    ``row[:, x]`` does not, so a block's values reshape without a copy.  A
    row None is the identity.  An inverse letter reads the inverted row
    ``g.inv_table[row]``, which is exact for any row; inverting the argument
    instead would need the row to be a homomorphism, and the left-side rows
    of `check_rewrite` are not.  A product is read from the flattened table
    at acc*|G| + x, a 1-D gather, which numpy runs about twice as fast as
    the 2-D ``table[acc, x]``; the row stride n is typed so that acc*n + x
    cannot overflow, int64 once n*n exceeds int32."""
    flat = g.table.ravel()
    n = g.order if g.order**2 < 2**31 else np.int64(g.order)
    acc = None
    for (j, sign), row in zip(letters, rows):
        x = args[j]
        if sign < 0:
            row = g.inv_table if row is None else g.inv_table[row]
        if row is not None:
            x = np.take(row, x, axis=-1)
        acc = x if acc is None else flat[acc * n + x]
    return acc


def _require_word(w: ReducedWord) -> None:
    if w.length < 1:
        raise EmptyWordError("fiber computations require a nonempty word")


def _arg_slice(n: int, d: int, var_rank: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    idx //= n ** (d - 1 - var_rank)
    idx %= n
    return idx.astype(np.int32)


def _argument_blocks(n: int, d: int, b: int):
    """The one block rule: the blocks in which b tuples at once sweep the
    n^d argument tuples, as (first argument index, columns) in index order.

    A block has an axis for each of the t last variables, as many as have
    n^t within `_BATCH_ELEMENTS // b`, and a first axis for a range of
    assignments of the d - t leading ones.  Column j, variable j's
    arguments, is a vector along its variable's axis (the leading ones along
    the range), so a word composed from the columns broadcasts over only
    the axes of the variables it reads.  A lead assignment a heads the
    tuples a*n^t onwards, so position p of a block, in row-major order, is
    argument tuple start + p, with start the first lead assignment times
    n^t."""
    per = max(1, _BATCH_ELEMENTS // b)
    t = 0
    while t < d and n ** (t + 1) <= per:
        t += 1
    lead, step = n ** (d - t), max(1, per // n**t)
    trailing = [
        np.arange(n, dtype=np.int32).reshape([n if a == j else 1 for a in range(t + 1)])
        for j in range(1, t + 1)
    ]
    for lo in range(0, lead, step):
        hi = min(lo + step, lead)
        cols = [_arg_slice(n, d - t, r, lo, hi).reshape([-1] + [1] * t) for r in range(d - t)]
        yield lo * n**t, cols + trailing


def fiber_distribution(
    g: FiniteGroup,
    w: ReducedWord,
    auts: np.ndarray,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Exact fiber sizes over the whole argument space, for the letter
    automorphisms in the rows of the (l, |G|) array `auts`.  The budget bounds
    the |G|^d argument tuples accounted for (see `_BatchEvaluator`)."""
    _require_word(w)
    tables = _letter_tables(g, w, auts)
    d = w.num_variables
    if g.order**d > budget:
        raise BudgetExceeded(f"{g.order}^{d} evaluations exceed budget {budget}")
    ev = _BatchEvaluator(g, w, tables)
    counts = ev.counts([np.array([i]) for i in range(w.length)])[0]
    return FiberDistribution(counts=counts, order=g.order, arity=d)


def pi_w(g: FiniteGroup, w: ReducedWord, budget: int = DEFAULT_BUDGET) -> tuple[int, Fraction]:
    """Maximum fiber size of the plain word map, and its proportion of |G|^d."""
    _require_word(w)
    identity = np.broadcast_to(np.arange(g.order, dtype=np.int32), (w.length, g.order))
    dist = fiber_distribution(g, w, identity, budget=budget)
    value, _ = dist.max_fiber()
    return value, Fraction(value, dist.total)


# -- exhaustive / sampled search over automorphism tuples ----------------------


def _free_letters(w: ReducedWord, a: AutSet) -> list[int]:
    """Positions of the letters whose automorphism the exact search varies:
    every later occurrence of a variable when A is closed, every letter when
    it is not (see `_search_all_tuples`)."""
    if not a.is_closed:
        return list(range(w.length))
    seen: set[int] = set()
    free = []
    for i, let in enumerate(w.letters):
        if let.var in seen:
            free.append(i)
        seen.add(let.var)
    return free


def _tuple_digits(
    rows: np.ndarray, m: int, l: int, free: Sequence[int]
) -> tuple[list[Optional[np.ndarray]], np.ndarray]:
    """Per-letter AutSet indices of scanned rows, and their full tuple indices.

    The base-m digits of each row go to the free letters, the first of them
    most significant; every other letter is the identity, index 0, given as
    None.  The full index reads all l letters in mixed radix, so it increases
    with the row.
    """
    digits: list[Optional[np.ndarray]] = [None] * l
    full = np.zeros_like(rows)
    for j, i in enumerate(free):
        digits[i] = (rows // m ** (len(free) - 1 - j)) % m
        full = full + digits[i] * m ** (l - 1 - i)
    return digits, full


class _BatchEvaluator:
    """Fiber counts for batches of automorphism tuples, the one fiber-count kernel.

    It counts one word, or a word system: J words over shared variables,
    each letter with its own automorphism row, whose joint values go to n^J
    bins keyed in mixed radix, the first word most significant.  The digits
    of `counts` are given per letter, the words' letters one word after
    another.  A single word is a system of one.

    A single word is cut into segments: a cut goes after letter i when no
    variable of letters 0..i occurs after i, so consecutive segments have
    pairwise disjoint variable sets, and each is as short as that allows.
    Each segment's counts come from enumerating only its own n^(d_k)
    arguments, and the counts of the word are their group-algebra
    convolution, folded in word order: with L the counts of the letters so
    far and R those of the next segment, a*x gets L[a] * R[x] for every a and
    x, summed by `_fold` over blocks of the support of L.  This is exact:
    the segments take independent arguments, so an argument tuple of the
    whole word is one argument tuple per segment, and its value is the
    product of the segment values in word order; each letter still goes
    through its own automorphism row, so the segment counts are those of
    the tuple itself.  The fold keeps the left factor on
    the left, as a nonabelian group needs.  A word that does not split is one
    segment, enumerated as a whole, and so is a system of several words.

    Every segment is counted by one method, `_joint_counts`, on the block
    rule `_argument_blocks` and the letter loop `_word_values`.  Blocks hold
    at most `_BATCH_ELEMENTS` word values: b = `batch_size()` tuples over a
    segment's whole argument space when n^d and n^J fit, else one tuple over
    consecutive argument blocks.  Row r of a block is offset by r*n^J for
    one shared bincount.  The offsets stay in int32 because b*n^J <=
    `_BATCH_ELEMENTS` when b > 1, and n^J is refused beyond int32 (a single
    word has J = 1 and n within the group order cap).  Counts are int64, so
    argument spaces beyond its range are refused.
    """

    def __init__(
        self,
        g: FiniteGroup,
        w: ReducedWord | Sequence[ReducedWord],
        aut_tables: np.ndarray,
    ):
        words = (w,) if isinstance(w, ReducedWord) else tuple(w)
        self.g = g
        self.w = w
        self.at = aut_tables
        self.n = g.order
        letters = [let for word in words for let in word.letters]
        d = len({let.var for let in letters})
        self.total_args = self.n**d
        if self.total_args > _INT64_MAX:
            raise CapExceeded(f"{self.n}^{d} argument tuples exceed the 64-bit fiber counts")
        self.bins = self.n ** len(words)
        if self.bins > _INT32_MAX:
            raise CapExceeded(f"{self.n}^{len(words)} joint bins exceed the 32-bit keys")
        if len(words) == 1:
            parts = [(lo, hi, [letters[lo:hi]]) for lo, hi in _segments(words[0])]
        else:
            parts = [(0, len(letters), [word.letters for word in words])]
        # each segment: its letters, its variable count, and each word's
        # letters as (segment rank of the variable, ascending, sign)
        self.segments = []
        for lo, hi, part in parts:
            rank = {v: r for r, v in enumerate(sorted({x.var for x in letters[lo:hi]}))}
            plan = [[(rank[x.var], x.sign) for x in word] for word in part]
            self.segments.append((lo, hi, len(rank), plan))

    def batch_size(self) -> int:
        return max(1, min(_BATCH_ELEMENTS // max(self.total_args, self.bins), 1 << 16))

    def counts(self, digit_arrays: list[Optional[np.ndarray]]) -> np.ndarray:
        """(b, n^J) fiber counts for at most `batch_size()` tuples given by
        per-letter AutSet indices.  A None letter is the identity on every
        tuple, whose values have no batch axis, so a prefix of such letters
        is composed once per block; a segment of None letters has (1, n)
        counts, broadcast in the fold; with every letter None, b is 1."""
        res = None
        for lo, hi, d, plan in self.segments:
            h = self._joint_counts(d, plan, digit_arrays[lo:hi])
            res = h if res is None else self._fold(res, h)
        return res

    def _joint_counts(self, d, plan, digit_arrays) -> np.ndarray:
        """(b, n^J) joint counts of the J words of one segment over its d
        variables: each word is composed by `_word_values` over a block's
        broadcast columns, and only the joint key spans the whole block."""
        n, bins = self.n, self.n ** len(plan)
        rows = [None if dig is None else self.at[dig] for dig in digit_arrays]
        b = max((len(row) for row in rows if row is not None), default=1)
        offs = np.arange(0, b * bins, bins, dtype=np.int32)[:, None]
        counts = np.zeros(b * bins, dtype=np.int64)
        for _, cols in _argument_blocks(n, d, b):
            key, i = None, 0
            for word in plan:
                res = _word_values(self.g, word, rows[i : i + len(word)], cols)
                key = res if key is None else key * n + res
                i += len(word)
            if b > 1:
                key = key.reshape(b, -1) + offs
            counts += np.bincount(key.ravel(), minlength=b * bins)
        return counts.reshape(b, bins)

    def _fold(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Counts of the product of two independent segments, left first.

        The product a*x = c gets L[a] * R[x], so out[c] is the sum over a of
        L[a] * R[ldiv[a, c]], with ldiv[a, c] = x the left quotient a^-1 c.
        Row a of ldiv is scattered from row a of the table, ldiv[a, a*x] = x,
        so no inverse table is read.  The support of L is taken in blocks of
        k elements a, with k*b*n <= `_COMPOSE_BLOCK_ELEMENTS` for b tuples:
        a block gathers R through its k rows of ldiv, (b, k, n), and adds one
        int64 product, L's block (b, 1, k) on the left, to out.  One tuple on
        a group of order at most 362 is one block.  The product is exact:
        every term is >= 0 and every sum at most n^d, which the evaluator
        refuses beyond int64."""
        table, n = self.g.table, self.n
        b = max(len(left), len(right))
        out = np.zeros((b, n), dtype=np.int64)
        support = np.flatnonzero(left.any(axis=0))
        k = max(1, _COMPOSE_BLOCK_ELEMENTS // (b * n))
        for lo in range(0, len(support), k):
            a = support[lo : lo + k]
            ldiv = np.empty((len(a), n), dtype=np.intp)
            ldiv[np.arange(len(a))[:, None], table[a]] = np.arange(n)
            out += (left[:, None, a] @ right[:, ldiv])[:, 0]
        return out


def _segments(w: ReducedWord) -> list[tuple[int, int]]:
    """(first letter, end letter) of each segment of `_BatchEvaluator`."""
    last = {let.var: i for i, let in enumerate(w.letters)}
    segments = []
    lo = reach = 0
    for i, let in enumerate(w.letters):
        reach = max(reach, last[let.var])
        if reach == i:
            segments.append((lo, i + 1))
            lo = i + 1
    return segments


def _normal_form_batches(
    ev: _BatchEvaluator,
    start: int,
    stop: int,
    free: Sequence[int],
    reps: Optional[np.ndarray] = None,
    step: Optional[int] = None,
):
    """Scanned rows start..stop-1 of the exact search in batches of `step`
    (default `batch_size()`), their digits filling the `free` letters, with
    their full indices (`_tuple_digits`).  With `reps` given, positions
    start..stop-1 of that ascending array of rows are scanned instead."""
    m, l = len(ev.at), ev.w.length
    step = step or ev.batch_size()
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        rows = np.arange(lo, hi, dtype=np.int64) if reps is None else reps[lo:hi]
        yield _tuple_digits(rows, m, l, free)


def _sampled_batches(ev: _BatchEvaluator, rng: np.random.Generator, samples: int):
    """The identity tuple, index 0, then `samples` seeded uniform tuples,
    drawn in batches.  numpy's `Generator` draws a (k, l) array element by
    element in row-major order, so the batches draw the values of one
    (samples, l) call and leave the generator in the same state."""
    m, l, step = len(ev.at), ev.w.length, ev.batch_size()
    for lo in range(0, samples + 1, step):
        hi = min(lo + step, samples + 1)
        draws = rng.integers(0, m, size=(hi - max(lo, 1), l))
        if lo == 0:
            draws = np.vstack([np.zeros((1, l), dtype=np.int64), draws])
        yield list(draws.T), np.arange(lo, hi, dtype=np.int64)


class _Orbits:
    """The tuples in normal form under simultaneous conjugation by a closed
    A, alpha_i -> beta alpha_i beta^-1, as rows of the exact search (see
    `_search_all_tuples`): the least row of each orbit, and the images of a
    block of them.  Every digit is read from A's conjugation table."""

    def __init__(self, a: AutSet, l: int, f: int):
        t = a.tables
        # |A|, the word length and the number of free letters
        self.m, self.l, self.f = len(a), l, f
        # images[alpha, b]: the row number of beta_b alpha beta_b^-1
        self.images = np.ascontiguousarray(a.conjugation.T)
        # inverse[b]: the table of beta_b^-1
        self.inverse = np.empty_like(t)
        self.inverse[np.arange(self.m)[:, None], t] = np.arange(t.shape[1], dtype=t.dtype)

    def representatives(self, scanned: int) -> np.ndarray:
        """The rows 0..scanned-1 that are least in their orbit, ascending.

        Rows compare as their digits do, first digit first, so a least row
        has a first digit d least in its conjugacy class, and its images
        under beta keep d only for beta in the centralizer C(d), which must
        not lower the later digits.  So only the class minima d are tried,
        each with the rows of the later digits against C(d): a row is kept
        where the least row number of those images is its own.  The
        centralizers lie side by side, one run per class, and the rows go a
        block of at most `_COMPOSE_BLOCK_ELEMENTS` images at a time."""
        m, f = self.m, self.f
        rest = scanned // m
        least = np.flatnonzero(self.images.min(axis=1) == np.arange(m))
        cls, beta = np.nonzero(self.images[least] == least[:, None])
        runs = np.flatnonzero(np.diff(cls, prepend=-1))
        images = self.images[:, beta]
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // len(beta))
        reps = []
        for lo in range(0, rest, step):
            rows = np.arange(lo, min(lo + step, rest), dtype=np.int64)
            image = np.zeros((len(rows), len(beta)), dtype=np.int64)
            for j in range(1, f):
                image = image * m + images[(rows // m ** (f - 1 - j)) % m]
            kept = np.minimum.reduceat(image, runs, axis=1) == rows[:, None]
            r, c = np.nonzero(kept)
            reps.append(least[c] * rest + rows[r])
        return np.sort(np.concatenate(reps))

    def expand(self, counts: np.ndarray, digits: list[Optional[np.ndarray]]):
        """The counts and full tuple numbers of every image beta.r of the b
        representatives r given by their per-letter digits, each image once,
        ascending by number.  Its counts are read off r's, F_(beta.r)(t) =
        F_r(beta^-1(t)), in one gather of at most b*|A|*|G| entries."""
        m = self.m
        num = np.zeros((len(counts), m), dtype=np.int64)
        for i, dig in enumerate(digits):
            if dig is not None:
                num += self.images[dig] * np.int64(m ** (self.l - 1 - i))
        num, first = np.unique(num, return_index=True)
        rep, beta = np.divmod(first, m)
        return counts[rep[:, None], self.inverse[beta]], num


def _scan_range(ev: _BatchEvaluator, batches, orbits: Optional[_Orbits] = None):
    """Scan batches of tuples; returns the records, two (n,) arrays: for
    each target, the largest fiber and the number of the least tuple
    attaining it.

    A batch is its per-letter AutSet indices, None for the identity on every
    tuple, and its tuple numbers, ascending: full mixed-radix indices
    (`_normal_form_batches`) or draw numbers (`_sampled_batches`).  With
    `orbits`, a batch holds orbit representatives, and only they are
    evaluated: `_Orbits.expand` turns their counts into those of every tuple
    of their orbits, ascending by number, and those are recorded.

    A batch's rows ascend, so its best at a target is its first row at the
    batch's maximum, and `_merge` records it.  Only targets where the batch
    can win are merged, and only there is the argmax taken: those where it
    beats the record, and those where it ties the record and holds a number
    below the record's, which in scan order none does.  A target no tuple
    reaches keeps value 0 and number -1.
    """
    vals = np.zeros(ev.n, dtype=np.int64)
    nums = np.full(ev.n, -1, dtype=np.int64)
    for digits, idx in batches:
        counts = ev.counts(digits)
        if orbits is not None:
            counts, idx = orbits.expand(counts, digits)
        best = counts.max(axis=0)
        cand = np.flatnonzero((best > vals) | ((best == vals) & (nums > idx[0])))
        _merge(vals, nums, cand, best[cand], idx[counts[:, cand].argmax(axis=0)])
    return vals, nums


def _merge(vals: np.ndarray, nums: np.ndarray, at: np.ndarray, v: np.ndarray, t: np.ndarray):
    """Merge the records (v, t) of the targets `at` into (vals, nums), in
    place, by the one record rule: the larger value wins, and on equal
    values the smaller tuple number.  So merging a range's batches in scan
    order, or several ranges' records, leaves each target the least tuple
    attaining its largest value, as one scan of them all would."""
    take = (v > vals[at]) | ((v == vals[at]) & (t < nums[at]))
    at = at[take]
    vals[at], nums[at] = v[take], t[take]


def _require_budget(needed: int, budget: int) -> None:
    """Refuse an exact search that performs more evaluations than the budget."""
    if needed > budget:
        raise BudgetExceeded(f"exact search needs {needed} evaluations, budget is {budget}")


class _Scan:
    """One exact scan: the records `_search_all_tuples` returns, (values,
    numbers, tuples scanned), with the group table and the set's rows it ran
    on, which a content lookup compares in full.  Both are the group's and
    the set's own arrays."""

    __slots__ = ("table", "rows", "records", "__weakref__")

    def __init__(self, table: np.ndarray, rows: np.ndarray, records: tuple):
        self.table, self.rows, self.records = table, rows, records

    def ran_on(self, table: np.ndarray, rows: np.ndarray) -> bool:
        return np.array_equal(self.table, table) and np.array_equal(self.rows, rows)


def _digest(array: np.ndarray) -> int:
    """An index of an array's content: the hash of its shape and of at most
    about 4096 of its entries, evenly strided, so no large copy is made.
    Equal arrays have equal digests; unequal ones may share one."""
    flat = array.ravel()
    return hash((array.shape, flat[:: max(1, flat.size >> 12)].tobytes()))


def _search_all_tuples(
    g: FiniteGroup,
    w: ReducedWord,
    a: AutSet,
    budget: int,
    threads: int,
):
    """Exact search over all |A|^l tuples, scanning only those in normal form.

    Reparametrization: for a variable v and gamma in A, composing gamma onto
    the automorphism of every letter of v (alpha_i -> alpha_i o gamma)
    substitutes gamma(x_v) for x_v, a bijection of G, so every fiber size
    stays the same.  When A is closed under composition, gamma = alpha_p^-1
    for the first letter p of v keeps the tuple in A^l and puts the identity
    at p.  Every tuple thus has a partner with the identity (index 0) on the
    first letter of each variable and the same fiber sizes, and only the
    later letters, the free ones, need to vary: |A|^(l-d) tuples.  An unclosed
    A makes every letter free, which is the full scan.

    Least witness: the least-index tuple attaining a target's maximum is
    already in normal form.  If its first non-identity first letter is p, of
    variable v, the move above with gamma = alpha_p^-1 leaves every letter
    before p alone, since p is v's first letter, and puts 0 at p, giving a
    smaller mixed-radix index with the same counts.  Scanned rows map to
    full indices monotonically, so scanning them in order, in any thread
    split, reports the same witnesses as the full scan.

    Orbits: a closed A also acts on tuples by simultaneous conjugation,
    beta.alpha = (beta alpha_i beta^-1)_i.  Each letter of the word map then
    reads beta(alpha_i(beta^-1(x_v))), and beta is a homomorphism, so
    w_(beta.alpha)(x) = beta(w_alpha(beta^-1(x))); as x -> beta^-1(x) is a
    bijection of G^d, F_(beta.alpha)(beta(t)) = F_alpha(t).  Conjugation
    keeps the identity on every first letter, so it permutes the tuples in
    normal form, and each of them is beta.r for r the least row of its
    orbit (`_Orbits.representatives`).  So only the representatives are
    evaluated, and every target's record is rebuilt from their counts:
    M(t) = max over r and beta of F_r(beta^-1(t)), and its witness is the
    least tuple number of beta.r over the pairs (r, beta) reaching M(t).
    Those images are exactly the tuples in normal form that reach M(t), so
    this is the witness of the scan of every row; it is the least image,
    not the image of the least representative, which may lie anywhere in
    its orbit.  A target that no tuple reaches keeps value 0 and number -1
    in both scans.  The records are those of the scan of every row, value
    and number; only the tuples scanned fall, to the representatives'.
    `_orbits_pay` estimates whether that pays, and an unclosed A, or one
    whose table of conjugates would not fit, scans every row.

    The budget is checked against the evaluations the scan of every row
    would perform, the argument tuples its tuples account for, before any
    is made, so the orbit scan refuses exactly where that scan does.
    Returns the two per-target record arrays of `_scan_range`, read-only,
    and the count of tuples scanned.  The records do not depend on the
    thread count.

    A scan is kept on A (``a.searches``), keyed by the group object and the
    word, and a later search reads it.  On a miss there, it is looked up by
    content in `_SCANS`, since a scan is a function of G's table, A's rows,
    A's closedness and the word: the evaluator reads G only through its
    table (products, and inverses, which the table determines) and its
    order, the table's side; it reads A only through its rows, by row
    number, so the records' tuple numbers are in row numbers, equal
    for equal rows; closedness picks the free letters and whether orbits
    are scanned; and the count scanned follows from A's rows, the free
    letters and l.  So two searches that agree on these four have
    the same records, whichever group and set objects they are given.  The
    entry is indexed by the word, the closedness and digests of the two
    arrays (`_digest`), and a hit needs both arrays equal in full: a digest
    alone decides nothing.  A found scan is kept on A as its own is, so
    every set that runs or reads a scan holds it, and the weak table forgets
    it with the last of them.  The budget check comes first, on the same
    count, so a kept or shared scan is refused exactly where a new one would
    be.
    """
    _require_word(w)
    m, l = len(a), w.length
    covered = m**l
    if covered > _INT64_MAX:
        raise CapExceeded(f"{covered} automorphism tuples exceed the 64-bit tuple numbering")
    free = _free_letters(w, a)
    scanned = m ** len(free)
    _require_budget(scanned * g.order**w.num_variables, budget)
    scan = a.searches.get((g, w))
    if scan is None:
        content = (w, a.is_closed, _digest(g.table), _digest(a.tables))
        scan = _SCANS.get(content)
        if scan is None or not scan.ran_on(g.table, a.tables):
            records = _scan_normal_forms(_BatchEvaluator(g, w, a.tables), a, free, scanned, threads)
            scan = _SCANS[content] = _Scan(g.table, a.tables, records)
        scan = a.searches.setdefault((g, w), scan)
    return scan.records


def _orbits_pay(ev: _BatchEvaluator, m: int, scanned: int) -> bool:
    """Whether scanning one tuple per orbit of A, |A| = m, is estimated to
    cost less than scanning all `scanned` rows, in steps of about one
    gathered element.

    One tuple costs the kernel w = sum over its segments of n^(d_k) *
    (letters + 1), the letter gathers and the bincount, plus n^2 for each
    fold of two segments, and some 30 steps of set-up.  The orbit scan
    evaluates at least scanned/m tuples, the representatives, and spends
    about 3n steps on each row for its image's counts; it builds the
    conjugation table, some 15 m^2 steps, and sets up in about 1e5 steps.
    On a 2-core x86 VM (Python 3.11, numpy 2) this picks the faster scan in
    all but 2 of 191 group/word/set cases timed both ways, each miss within
    0.2 ms; the orbit scan loses at 4.6e3 evaluations (`q8`, `x1^3`; `dih:4`,
    `[x1,x2]`) and wins from 3.7e4 (`q8`, `[x1,x2]`)."""
    n = ev.n
    w = sum(n**d * (hi - lo + 1) for lo, hi, d, _ in ev.segments)
    w += (len(ev.segments) - 1) * n * n
    return scanned * (w * (1 - 1 / m) + 30 - 3 * n) >= 15 * m * m + 100_000


def _orbits(ev: _BatchEvaluator, a: AutSet, free: Sequence[int], scanned: int):
    """The `_Orbits` to scan, or None to scan every row: conjugation needs A
    closed, and is used where its table fits and `_orbits_pay`."""
    m = len(a)
    if not free or m == 1 or m * m > _CONJUGATION_ENTRIES or not a.is_closed:
        return None
    if not _orbits_pay(ev, m, scanned):
        return None
    return _Orbits(a, ev.w.length, len(free))


def _scan_normal_forms(
    ev: _BatchEvaluator, a: AutSet, free: Sequence[int], scanned: int, threads: int
):
    """The merged records of the scanned rows 0..scanned-1, or of the least
    row of each orbit (`_orbits`), split over at most ``threads`` ranges of
    the rows scanned, with the two record arrays made read-only, and the
    count of rows scanned."""
    orbits = _orbits(ev, a, free, scanned)
    if orbits is None:
        reps, count, step = None, scanned, ev.batch_size()
    else:
        reps = orbits.representatives(scanned)
        count = len(reps)
        step = max(1, min(ev.batch_size(), _BATCH_ELEMENTS // (len(a) * ev.n)))
    # no more workers than cores, and a pool only for a scan of several
    # batches, which alone imports `concurrent.futures`; the witnesses do not
    # depend on the split
    threads = min(int(threads), os.cpu_count() or 1) if threads > 1 else 1
    if threads == 1 or count <= step:
        parts = [_scan_range(ev, _normal_form_batches(ev, 0, count, free, reps, step), orbits)]
    else:
        from concurrent.futures import ThreadPoolExecutor
        bounds = np.linspace(0, count, threads + 1, dtype=np.int64).tolist()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(
                    _scan_range, ev, _normal_form_batches(ev, lo, hi, free, reps, step), orbits
                )
                for lo, hi in zip(bounds, bounds[1:])
                if hi > lo
            ]
            parts = [f.result() for f in futures]
    vals, nums = parts[0]
    for part in parts[1:]:
        _merge(vals, nums, np.arange(ev.n), *part)
    vals.setflags(write=False)
    nums.setflags(write=False)
    return vals, nums, count


def max_fiber(
    g: FiniteGroup,
    w: ReducedWord,
    a: AutSet,
    target: Optional[int] = None,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    threads: int = 1,
    samples: int = 1000,
) -> MaxFiberResult:
    """Maximum fiber size over automorphism tuples drawn from A, and the
    maximum at every target from the same scan.

    target None means maximize over all targets.  Exact mode covers all |A|^l
    tuples but, when A is closed, scans only the |A|^(l-d) with the identity
    on the first letter of each variable: composing an automorphism of A onto
    all letters of one variable reparametrizes that variable and changes no
    fiber size, and the least maximizing tuple already has that form.  Where
    `_orbits_pay` estimates that it pays, it scans fewer still: one
    tuple per orbit of A acting by simultaneous conjugation, alpha_i ->
    beta alpha_i beta^-1, which moves each fiber from target t to beta(t)
    and keeps its size.  Every target's record is rebuilt from the orbit
    representatives' counts, the same value, least tuple and letters as the
    scan of every tuple in normal form, so only ``tuples_scanned`` and
    ``evaluations_performed`` tell the two apart (see
    `_search_all_tuples`).  The exact scan is kept on A, so a later exact
    call for the same group object and word, with any target or thread
    count, builds its result from the kept records, which are read-only; a
    call that misses them reads a scan of equal content, an equal table,
    equal rows, closedness and word, that another set keeps.
    Sample mode draws `samples` seeded uniform tuples after the identity
    tuple, in blocks of `batch_size()` as it scans them, keeps nothing, and
    reports a lower bound.  In both modes the budget bounds the evaluations
    performed, and is checked before any tuple is scanned or drawn, or a
    kept scan read; in exact mode it is checked on the count of the scan of
    every tuple in normal form, which the orbit scan never exceeds.

    Ties are broken by the least (tuple index, target index), and the
    witness is read off the per-target records of `_scan_range`.  With a
    target given, its record is the least tuple attaining its maximum.  With
    none, let M be the largest value and t the least tuple reaching M at any
    target.  Every target at M has a record number of at least t, and equal
    to t exactly where tuple t reaches M, since no earlier tuple reaches M
    anywhere.  So the least record number among the targets at M is t, and
    the least target holding it is the least target where tuple t reaches M.
    A target no tuple reaches reports value 0 and the identity tuple, which
    is what the first tuple scanned, always the identity, gives.

    The witness's letters are decoded from its number: in exact mode, the
    base-|A| digits of its full index, the first letter most significant
    (the inverse of `_tuple_digits`); in sample mode, by drawing again with
    the same seed up to the witness's batch, so no more than one batch of
    draws is held.  The evaluations performed are the tuples scanned times
    |G|^d.
    """
    _require_word(w)
    if len(a) == 0:
        raise ValueError("empty automorphism set")
    if target is not None and not 0 <= target < g.order:
        raise ValueError(f"target {target} out of range for order {g.order}")
    d, m, l = w.num_variables, len(a), w.length
    if mode == "exact":
        vals, nums, scanned = _search_all_tuples(g, w, a, budget, threads)
        total = m**l
    elif mode == "sample":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        needed = (samples + 1) * g.order**d
        if needed > budget:
            raise BudgetExceeded(f"sampled search needs {needed} evaluations, budget is {budget}")
        ev = _BatchEvaluator(g, w, a.tables)
        vals, nums = _scan_range(ev, _sampled_batches(ev, np.random.default_rng(seed), samples))
        total = scanned = samples + 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if target is None:
        top = np.flatnonzero(vals == vals.max())
        target = int(top[np.argmin(nums[top])])
    value = int(vals[target])
    # number -1, no tuple reaching the target, reads as 0: the identity tuple
    number = max(int(nums[target]), 0)
    if mode == "exact":
        letters = [(number // m ** (l - 1 - i)) % m for i in range(l)]
    else:
        letters = next(
            [int(dig[number - idx[0]]) for dig in digits]
            for digits, idx in _sampled_batches(ev, np.random.default_rng(seed), samples)
            if idx[-1] >= number
        )
    return MaxFiberResult(
        value=value,
        proportion=Fraction(value, g.order**d),
        witness_tuple=a.tables[letters],
        witness_target=target,
        status="exact" if mode == "exact" else "lower_bound",
        tuples_examined=total,
        evaluations=total * g.order**d,
        tuples_scanned=scanned,
        evaluations_performed=scanned * g.order**d,
        target_values=vals,
        target_tuple_numbers=nums,
        witness_tuple_indices=tuple(letters),
        seed=None if mode == "exact" else seed,
    )


# -- wreath-type automorphisms of direct powers ---------------------------------


def wreath_counts(
    s: FiniteGroup,
    w: ReducedWord,
    base: AutSet,
    n: int,
    base_indices,
    sigmas,
) -> list[tuple[np.ndarray, list[tuple[list[int], np.ndarray]]]]:
    """The fiber counts on S^n of k tuples of members of B wr S_n, as
    factors counted on S, with no S^n table and no (k, |S|^n) rows.
    Coordinate 0 is the most significant digit of an S^n index, as in
    `power_group`.

    Letter i of tuple r is (a_0 x ... x a_(n-1)) o sigma with a_c the row
    ``base_indices[r, i, c]`` of B and sigma = ``sigmas[r, i]``, a
    permutation of the n coordinates: output coordinate c reads input
    coordinate sigma^-1(c) through a_c.  The count is exact in three steps.
    (1) Coordinate c of the word's value is a variation of w over S: letter
    i reads copy sigma_i^-1(c) of its variable through a_(i,c), and the n
    coordinate words share the copies.  (2) Relabelling the copies of each
    variable by the sigma of its first letter, copy j -> sigma_f(j), is a
    bijection of the arguments, so every count stays the same; after it,
    letter i reads copy pi_i(c) = sigma_f(sigma_i^-1(c)), and a variable's
    first letter reads copy c at coordinate c.  (3) So coordinates c and
    pi_i(c) read the same copy, and joining them for every letter splits
    the coordinates into components that read disjoint sets of copies (copy
    j of every variable goes with coordinate j).  Their values are
    independent, so the counts on S^n are the products of the components'
    joint counts, each a word system over S (`_BatchEvaluator`).

    Tuples with the same read patterns pi share their components and are
    counted together.  Returns one (tuples, factors) pair per pattern:
    ``tuples`` the ascending numbers of its tuples, and ``factors`` one
    (coordinates, counts) pair per component, its coordinates ascending
    and its (len(tuples), |S|^|C|) joint counts, keyed with its first
    coordinate the most significant digit.  Tuple r's count at an S^n
    index is the product over its components of its row's count at the
    index's digits on the component's coordinates.  A component's counts,
    up to |S|^n of them for one tuple, must fit in `_BATCH_ELEMENTS`.
    """
    _require_word(w)
    l, q = w.length, s.order
    base_indices = np.asarray(base_indices)
    sigmas = np.asarray(sigmas, dtype=np.intp)
    if base_indices.shape != sigmas.shape or base_indices.shape[1:] != (l, n):
        raise ValueError(f"expected (k, {l}, {n}) base indices and permutations")
    if q**n > _BATCH_ELEMENTS:
        raise CapExceeded(f"{q}^{n} fiber counts of one tuple exceed {_BATCH_ELEMENTS}")
    args = n * w.num_variables
    if q**args > _INT64_MAX:
        raise CapExceeded(f"{q}^{args} argument tuples exceed the 64-bit fiber counts")
    first: dict[int, int] = {}
    lead = [first.setdefault(let.var, i) for i, let in enumerate(w.letters)]
    letter_args = _letter_args(w)
    # reads[r, i, c] = pi_i(c) of tuple r
    reads = np.take_along_axis(sigmas[:, lead], np.argsort(sigmas, axis=2), axis=2)
    patterns, which = np.unique(reads.reshape(len(reads), -1), axis=0, return_inverse=True)
    which = which.ravel()
    parts = []
    for p, pattern in enumerate(patterns.reshape(-1, l, n)):
        members = np.flatnonzero(which == p)
        factors = []
        for coords in _components(pattern):
            pos = {c: j for j, c in enumerate(coords)}
            # copy pi_i(c) of the variable at position j is system variable
            # j*|C| + pos + 1
            system = [
                ReducedWord(tuple(
                    Letter(j * len(coords) + pos[int(pattern[i, c])] + 1, sign)
                    for i, (j, sign) in enumerate(letter_args)
                ))
                for c in coords
            ]
            ev = _BatchEvaluator(s, system, base.tables)
            # one row per system letter, word by word: a_(i,c) of every member
            digits = base_indices[members][:, :, coords].transpose(2, 1, 0)
            digits = digits.reshape(-1, len(members))
            step = ev.batch_size()
            counts = np.concatenate([
                ev.counts(list(digits[:, lo : lo + step])) for lo in range(0, len(members), step)
            ])
            factors.append((coords, counts))
        parts.append((members, factors))
    return parts


def _components(pattern: np.ndarray) -> list[list[int]]:
    """The coordinates joined by the read pattern (pattern[i, c] = pi_i(c)),
    each component ascending, in order of its least coordinate."""
    n = pattern.shape[1]
    root = list(range(n))

    def find(c: int) -> int:
        while root[c] != c:
            c = root[c]
        return c

    for row in pattern:
        for c, j in enumerate(row.tolist()):
            root[find(c)] = find(j)
    groups: dict[int, list[int]] = {}
    for c in range(n):
        groups.setdefault(find(c), []).append(c)
    return list(groups.values())


# -- coset equation rewriting ---------------------------------------------------


@dataclass
class RewriteResult:
    """Automorphisms of N, one table row per letter, expressing the coset
    equation over N^d, for a batch of T trials: beta is (T, l, |N|), the
    targets (T,) and the conjugators (T, l)."""

    n_group: FiniteGroup
    n_elements: tuple[int, ...]
    beta: np.ndarray
    target: np.ndarray
    conjugators: np.ndarray


def rewrite_coset_equation(
    g: FiniteGroup,
    n: SubgroupHandle,
    w: ReducedWord,
    auts: np.ndarray,
    base: np.ndarray,
    target: Optional[int | np.ndarray] = None,
) -> RewriteResult:
    """Rewrite `word(auts, (n_1 g_1, ..., n_d g_d)) = target` over N^d as
    `word(beta, (n_1, ..., n_d)) = 1` over N.

    beta_i is the restriction to N of conj(c_i) composed after auts[i], where
    c_i is the product of the first i-1 letter factors for positive letters
    and of the first i factors for negative ones.  `auts` holds one table row
    per letter, and so does beta.  A batch of T trials is given as (T, l, |G|)
    tables and (T, d) bases and rewritten at once: each letter's factors,
    the running products and the conjugated rows are table gathers over all
    trials.  A row that does not map N onto itself has no restriction and is
    refused.
    """
    _require_word(w)
    tables = np.asarray(auts)
    bases = np.asarray(base, dtype=np.int64)
    if tables.ndim != 3 or tables.shape[1:] != (w.length, g.order):
        raise ValueError(
            f"expected trials of {w.length} automorphism rows of {g.order} entries, "
            f"got {tables.shape}"
        )
    if bases.shape != (len(tables), w.num_variables):
        raise ValueError(
            f"expected {w.num_variables} base entries per trial, got {bases.shape}"
        )
    _require_characteristic(n)
    rows = np.arange(len(tables))[:, None]
    factors = tables[rows, np.arange(w.length), bases[:, [j for j, _ in _letter_args(w)]]]
    value = np.zeros(len(tables), dtype=factors.dtype)
    conjugators = np.empty_like(factors)
    for i, let in enumerate(w.letters):
        if let.sign > 0:
            conjugators[:, i] = value
            value = g.table[value, factors[:, i]]
        else:
            value = g.table[value, g.inv_table[factors[:, i]]]
            conjugators[:, i] = value
    if target is not None and (value != target).any():
        raise ValueError("base tuple does not satisfy the equation")

    c = conjugators[:, :, None]
    # row (t, i): x -> c_ti auts[t, i](x) c_ti^-1, restricted to N in the
    # numbering of the section N/1
    s = n.as_group
    beta = s.projection[g.table[g.table[c, tables[:, :, list(s.reps)]], g.inv_table[c]]]
    if (beta < 0).any():
        raise ValueError("conjugated automorphism must stabilize N")
    return RewriteResult(s.group, s.reps, beta, value, conjugators)

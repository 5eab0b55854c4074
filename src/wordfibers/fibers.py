"""Word map and automorphic word map evaluation, fiber counting, maximization.

Argument tuples (g_1, ..., g_d) are flattened to a single index with g_1 most
significant: index = sum_k g_k * n^(d-k).  Automorphism tuples drawn from an
enumerated AutSet of size m are likewise numbered in mixed radix with the
first letter most significant, which fixes the deterministic search order and
tie-breaking.  The exact search scans only the tuples in normal form (see
`_search_all_tuples`) but reports every tuple index in this full numbering.
One tuple of letter automorphisms is an (l, |G|) array, row i the table of
the automorphism on letter i.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, CapExceeded, EmptyWordError
from .groups import AutSet, FiniteGroup, SubgroupHandle, _require_characteristic
from .words import Letter, ReducedWord

DEFAULT_BUDGET = 10**8
_BATCH_ELEMENTS = 1 << 22


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
    scanned; ``evaluations`` and ``evaluations_performed`` count the argument
    tuples accounted for, |G|^d per covered or scanned tuple.  A word that
    splits into segments (see `_BatchEvaluator`) accounts for them without
    evaluating each one.  ``witness_tuple`` holds the witness's letter
    automorphisms, one table per row, and ``witness_tuple_indices`` their
    AutSet indices.

    ``target_values[g]`` is the largest fiber at target g over the tuples
    covered, P^(A)(G, g) in exact mode, and ``target_tuple_numbers[g]`` the
    number of the least tuple attaining it: its full mixed-radix index in
    exact mode, its draw number in sample mode (0 is the identity tuple);
    -1 for a target no tuple reaches."""

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
    x, so for each a in the support of L the row L[a] * R is added at the
    positions x -> a*x, row a of the table, a permutation; no inverse table
    is needed.  This is exact: the segments take independent arguments, so
    an argument tuple of the whole word is one argument tuple per segment,
    and its value is the product of the segment values in word order; each
    letter still goes through its own automorphism row, so the segment
    counts are those of the tuple itself.  The fold keeps the left factor on
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
        if self.total_args > np.iinfo(np.int64).max:
            raise CapExceeded(f"{self.n}^{d} argument tuples exceed the 64-bit fiber counts")
        self.bins = self.n ** len(words)
        if self.bins > np.iinfo(np.int32).max:
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
        """Counts of the product of two independent segments, left first."""
        table = self.g.table
        out = np.zeros((max(len(left), len(right)), self.n), dtype=np.int64)
        for a in np.flatnonzero(left.any(axis=0)):
            out[:, table[a]] += left[:, a, None] * right
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


def _normal_form_batches(ev: _BatchEvaluator, start: int, stop: int, free: Sequence[int]):
    """Scanned rows start..stop-1 of the exact search in batches, their
    digits filling the `free` letters, with their full indices
    (`_tuple_digits`)."""
    m, l, step = len(ev.at), ev.w.length, ev.batch_size()
    for lo in range(start, stop, step):
        yield _tuple_digits(np.arange(lo, min(lo + step, stop), dtype=np.int64), m, l, free)


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


def _scan_range(ev: _BatchEvaluator, batches):
    """Scan batches of tuples; returns, for each target, the largest fiber,
    the number of the least tuple attaining it and that tuple's per-letter
    AutSet indices ((n,), (n,) and (n, l) arrays), and the evaluation count.

    A batch is its per-letter AutSet indices, None for the identity on every
    tuple, and its tuple numbers, ascending: full mixed-radix indices
    (`_normal_form_batches`) or draw numbers (`_sampled_batches`).  A target's
    record changes only where a batch beats it strictly, to the batch's first
    row at the new maximum, so it is always the least tuple attaining it.  A
    target no tuple reaches keeps value 0, number -1 and the identity tuple,
    every letter 0.
    """
    vals = np.zeros(ev.n, dtype=np.int64)
    nums = np.full(ev.n, -1, dtype=np.int64)
    letters = np.zeros((ev.n, ev.w.length), dtype=np.int64)
    evals = 0
    for digits, idx in batches:
        counts = ev.counts(digits)
        evals += len(idx) * ev.total_args
        batch_max = counts.max(axis=0)
        improved = np.flatnonzero(batch_max > vals)
        if improved.size:
            rows = counts[:, improved].argmax(axis=0)
            vals[improved] = batch_max[improved]
            nums[improved] = idx[rows]
            for i, dig in enumerate(digits):
                letters[improved, i] = 0 if dig is None else dig[rows]
    return vals, nums, letters, evals


def _merge_ranges(parts):
    """The records of consecutive ranges, given in order, as one scan would
    leave them: a later range's record wins only where strictly larger."""
    vals, nums, letters, evals = parts[0]
    for v, t, let, e in parts[1:]:
        take = v > vals
        vals, nums = np.where(take, v, vals), np.where(take, t, nums)
        letters = np.where(take[:, None], let, letters)
        evals += e
    return vals, nums, letters, evals


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

    The budget is checked against the evaluations performed, the argument
    tuples the scanned tuples account for, before any is made.  Returns the
    per-target records of `_scan_range`, the evaluations performed, and the
    tuples covered and scanned.
    """
    _require_word(w)
    m, l = len(a), w.length
    covered = m**l
    if covered > np.iinfo(np.int64).max:
        raise CapExceeded(f"{covered} automorphism tuples exceed the 64-bit tuple numbering")
    free = _free_letters(w, a)
    scanned = m ** len(free)
    needed = scanned * g.order**w.num_variables
    if needed > budget:
        raise BudgetExceeded(
            f"exact search needs {needed} evaluations, budget is {budget}"
        )
    ev = _BatchEvaluator(g, w, a.tables)
    # no more workers than cores, and a pool only for a scan of several
    # batches; the witnesses do not depend on the split
    threads = max(1, min(int(threads), os.cpu_count() or 1))
    if threads == 1 or scanned <= ev.batch_size():
        parts = [_scan_range(ev, _normal_form_batches(ev, 0, scanned, free))]
    else:
        bounds = np.linspace(0, scanned, threads + 1, dtype=np.int64).tolist()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_scan_range, ev, _normal_form_batches(ev, lo, hi, free))
                for lo, hi in zip(bounds, bounds[1:])
                if hi > lo
            ]
            parts = [f.result() for f in futures]
    return *_merge_ranges(parts), covered, scanned


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
    fiber size, and the least maximizing tuple already has that form (see
    `_search_all_tuples`).  Sample mode draws `samples` seeded uniform tuples
    after the identity tuple, in blocks of `batch_size()` as it scans them,
    and reports a lower bound.  In both modes the
    budget bounds the evaluations performed, and is checked before any tuple
    is scanned or drawn.

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
    """
    _require_word(w)
    if len(a) == 0:
        raise ValueError("empty automorphism set")
    if target is not None and not 0 <= target < g.order:
        raise ValueError(f"target {target} out of range for order {g.order}")
    d = w.num_variables
    if mode == "exact":
        vals, nums, letters, evals, total, scanned = _search_all_tuples(
            g, w, a, budget, threads
        )
    elif mode == "sample":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        needed = (samples + 1) * g.order**d
        if needed > budget:
            raise BudgetExceeded(f"sampled search needs {needed} evaluations, budget is {budget}")
        ev = _BatchEvaluator(g, w, a.tables)
        batches = _sampled_batches(ev, np.random.default_rng(seed), samples)
        vals, nums, letters, evals = _scan_range(ev, batches)
        total = scanned = samples + 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if target is None:
        top = np.flatnonzero(vals == vals.max())
        target = int(top[np.argmin(nums[top])])
    value = int(vals[target])
    return MaxFiberResult(
        value=value,
        proportion=Fraction(value, g.order**d),
        witness_tuple=a.tables[letters[target]],
        witness_target=target,
        status="exact" if mode == "exact" else "lower_bound",
        tuples_examined=total,
        evaluations=total * g.order**d,
        tuples_scanned=scanned,
        evaluations_performed=evals,
        target_values=vals,
        target_tuple_numbers=nums,
        witness_tuple_indices=tuple(letters[target].tolist()),
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
) -> np.ndarray:
    """(k, |S|^n) fiber counts on S^n of k tuples of members of B wr S_n,
    counted on S with no S^n table.  Coordinate 0 is the most significant
    digit of an S^n index, as in `power_group`.

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
    counted together.  The counts of one tuple, |S|^n of them, must fit in
    `_BATCH_ELEMENTS`.
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
    if q**args > np.iinfo(np.int64).max:
        raise CapExceeded(f"{q}^{args} argument tuples exceed the 64-bit fiber counts")
    first: dict[int, int] = {}
    lead = [first.setdefault(let.var, i) for i, let in enumerate(w.letters)]
    letter_args = _letter_args(w)
    # reads[r, i, c] = pi_i(c) of tuple r
    reads = np.take_along_axis(sigmas[:, lead], np.argsort(sigmas, axis=2), axis=2)
    patterns, which = np.unique(reads.reshape(len(reads), -1), axis=0, return_inverse=True)
    which = which.ravel()
    out = np.empty((len(reads), q**n), dtype=np.int64)
    for p, pattern in enumerate(patterns.reshape(-1, l, n)):
        members = np.flatnonzero(which == p)
        joint = np.ones((len(members),) + (1,) * n, dtype=np.int64)
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
            shape = [q if c in pos else 1 for c in range(n)]
            joint = joint * counts.reshape([len(members)] + shape)
        out[members] = joint.reshape(len(members), -1)
    return out


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
    # numbering of n.as_group
    beta = n.positions[g.table[g.table[c, tables[:, :, list(n.elements)]], g.inv_table[c]]]
    if (beta < 0).any():
        raise ValueError("conjugated automorphism must stabilize N")
    return RewriteResult(n.as_group, tuple(n.elements), beta, value, conjugators)

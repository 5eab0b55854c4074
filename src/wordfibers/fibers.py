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
from .words import ReducedWord

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
    automorphisms, one table per row."""

    value: int
    proportion: Fraction
    witness_tuple: np.ndarray
    witness_target: int
    status: str  # "exact" or "lower_bound"
    tuples_examined: int
    evaluations: int
    tuples_scanned: int
    evaluations_performed: int
    witness_tuple_indices: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None


@dataclass
class PerTargetMax:
    """P^(A)(G, g) for every g, with the first tuple index attaining each.

    Coverage and work are counted as in `MaxFiberResult`."""

    values: np.ndarray
    witness_tuple_indices: np.ndarray
    tuples_examined: int
    evaluations: int
    tuples_scanned: int
    evaluations_performed: int


def _var_positions(w: ReducedWord) -> dict[int, int]:
    return {v: i for i, v in enumerate(w.variables)}


def _letter_tables(
    g: FiniteGroup, w: ReducedWord, auts: np.ndarray, batched: bool = False
) -> np.ndarray:
    tables = np.asarray(auts)
    if tables.ndim != 2 + batched or tables.shape[-2:] != (w.length, g.order):
        raise ValueError(
            f"expected {'trials of ' * batched}{w.length} automorphism rows of "
            f"{g.order} entries, got {tables.shape}"
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
    acc = _word_values(g, w, tables, args)
    return acc if np.ndim(acc) else int(acc)


def _flat_radix(n: int):
    """The row stride of a flattened n x n table, typed so that acc*n + x
    cannot overflow: int64 once n*n exceeds int32."""
    return n if n * n <= np.iinfo(np.int32).max else np.int64(n)


def _word_values(g: FiniteGroup, w: ReducedWord, rows, args):
    """The loop of `eval_automorphic`, unchecked: letter i reads row i at
    its variable's arguments, then inverts and composes in g.  A product is
    read from the flattened table at acc*|G| + x, a 1-D gather, which numpy
    runs about twice as fast as the 2-D ``table[acc, x]``."""
    pos = _var_positions(w)
    flat = g.table.ravel()
    n = _flat_radix(g.order)
    acc = None
    for let, alpha in zip(w.letters, rows):
        x = alpha[args[pos[let.var]]]
        if let.sign < 0:
            x = g.inv_table[x]
        if acc is None:
            acc = x
        else:
            acc = acc * n
            acc += x
            acc = flat[acc]
    return acc


def _require_word(w: ReducedWord) -> None:
    if w.length < 1:
        raise EmptyWordError("fiber computations require a nonempty word")


def _arg_slice(n: int, d: int, var_rank: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    idx //= n ** (d - 1 - var_rank)
    idx %= n
    return idx.astype(np.int32)


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

    The word is cut into segments: a cut goes after letter i when no variable
    of letters 0..i occurs after i, so consecutive segments have pairwise
    disjoint variable sets, and each is as short as that allows.  Each
    segment's counts come from enumerating only its own n^(d_k) arguments,
    and the counts of the word are their group-algebra convolution, folded
    in word order: with L the counts of the letters so far and R those of
    the next segment, a*x gets L[a] * R[x] for every a and x, so for each a
    in the support of L the row L[a] * R is added at the positions x -> a*x,
    row a of the table, a permutation; no inverse table is needed.  This is
    exact: the segments take independent arguments, so an argument tuple of
    the whole word is one argument tuple per segment, and its value is the
    product of the segment values in word order; each letter still goes
    through its own automorphism row, so the segment counts are those of the
    tuple itself.  The fold keeps the left factor on the left, as a
    nonabelian group needs.  A word that does not split is one segment,
    enumerated as a whole.

    Blocks hold at most `_BATCH_ELEMENTS` word values: b = `batch_size()`
    tuples over a segment's whole argument space when n^d fits, else one
    tuple over consecutive argument chunks.  A block builds each letter's
    argument column when it reaches that letter and composes it with a 1-D
    gather from the flattened table, as `_word_values` does.  Row r of a
    block is offset by r*n for one shared bincount.  The offsets stay in
    int32 because b*n <= `_BATCH_ELEMENTS`: b*n^d fits when b > 1, and b = 1
    with n within the group order cap.  Counts are int64, so words with n^d
    beyond its range are refused.
    """

    def __init__(self, g: FiniteGroup, w: ReducedWord, aut_tables: np.ndarray):
        self.w = w
        self.at = aut_tables
        self.n = g.order
        d = w.num_variables
        self.total_args = self.n**d
        if self.total_args > np.iinfo(np.int64).max:
            raise CapExceeded(f"{self.n}^{d} argument tuples exceed the 64-bit fiber counts")
        self.segments = _segments(w)
        self.table = g.table
        self.flat, self.radix = g.table.ravel(), _flat_radix(self.n)
        self.inv_t = g.inv_table if any(let.sign < 0 for let in w.letters) else None

    def batch_size(self) -> int:
        return max(1, min(_BATCH_ELEMENTS // self.total_args, 1 << 16))

    def counts(self, digit_arrays: list[Optional[np.ndarray]]) -> np.ndarray:
        """(b, n) fiber counts for at most `batch_size()` tuples given by
        per-letter AutSet indices.  A None letter is the identity on every
        tuple, one (1, K) row broadcast over the batch, so a prefix of such
        letters is composed once per block; a segment of None letters has
        (1, n) counts, broadcast in the fold; with every letter None, b is 1."""
        res = None
        for lo, hi, d, plan in self.segments:
            h = self._segment_counts(d, plan, digit_arrays[lo:hi])
            res = h if res is None else self._fold(res, h)
        return res

    def _segment_counts(self, d, plan, digit_arrays) -> np.ndarray:
        n, total = self.n, self.n**d
        b = max((len(dig) for dig in digit_arrays if dig is not None), default=1)
        step = _BATCH_ELEMENTS // b
        offs = np.arange(b, dtype=np.int32)[:, None] * np.int32(n)
        counts = np.zeros((b, n), dtype=np.int64)
        for start in range(0, total, step):
            res = None
            for (rank, sign), dig in zip(plan, digit_arrays):
                v = _arg_slice(n, d, rank, start, min(start + step, total))
                if sign < 0:
                    v = self.inv_t[v]
                v = v[None, :] if dig is None else self.at[dig][:, v]
                res = v if res is None else self.flat[res * self.radix + v]
            res += offs
            counts += np.bincount(res.ravel(), minlength=b * n).reshape(b, n)
        return counts

    def _fold(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Counts of the product of two independent segments, left first."""
        out = np.zeros((max(len(left), len(right)), self.n), dtype=np.int64)
        for a in np.flatnonzero(left.any(axis=0)):
            out[:, self.table[a]] += left[:, a, None] * right
        return out


def _segments(w: ReducedWord) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """(first letter, end letter, variable count, plan) of each segment of
    `_BatchEvaluator`; the plan gives each letter's variable rank within the
    segment, in ascending variable order, and its sign."""
    last = {let.var: i for i, let in enumerate(w.letters)}
    segments = []
    lo = reach = 0
    for i, let in enumerate(w.letters):
        reach = max(reach, last[let.var])
        if reach == i:
            letters = w.letters[lo : i + 1]
            rank = {v: r for r, v in enumerate(sorted({x.var for x in letters}))}
            plan = [(rank[x.var], x.sign) for x in letters]
            segments.append((lo, i + 1, len(rank), plan))
            lo = i + 1
    return segments


@dataclass
class _BestCell:
    value: int = -1
    tuple_idx: int = -1
    target: int = -1

    def offer(self, value: int, tuple_idx: int, target: int) -> None:
        if value > self.value:
            self.value, self.tuple_idx, self.target = value, tuple_idx, target


def _scan_range(
    ev: _BatchEvaluator,
    rows: range | np.ndarray,
    target: Optional[int],
    free: Sequence[int] = (),
) -> tuple[_BestCell, np.ndarray, np.ndarray, int]:
    """Scan the tuples in `rows`; returns the best cell, the per-target maxima
    with first-attaining tuple indices, and the evaluation count.

    `rows` is a range of scanned rows whose digits fill the `free` letters
    (exact search, see `_tuple_digits`) or a (k, l) array of per-letter AutSet
    indices (sampled search).  Tuple indices in the result are full mixed-radix
    indices or array row numbers respectively, and ties go to the least of
    them, then to the least target.
    """
    m, l = ev.at.shape[0], ev.w.length
    best = _BestCell()
    per_vals = np.zeros(ev.n, dtype=np.int64)
    per_idx = np.full(ev.n, -1, dtype=np.int64)
    evals = 0
    bsize = ev.batch_size()
    for pos in range(0, len(rows), bsize):
        batch = rows[pos : pos + bsize]
        if isinstance(batch, range):
            scanned = np.arange(batch.start, batch.stop, dtype=np.int64)
            digits, idx = _tuple_digits(scanned, m, l, free)
        else:
            digits = [batch[:, i] for i in range(l)]
            idx = np.arange(pos, pos + len(batch), dtype=np.int64)
        counts = ev.counts(digits)
        evals += len(batch) * ev.total_args
        batch_max = counts.max(axis=0)
        batch_arg = counts.argmax(axis=0)
        improved = batch_max > per_vals
        per_idx[improved] = idx[batch_arg[improved]]
        np.maximum(per_vals, batch_max, out=per_vals)
        if target is None:
            row_vals = counts.max(axis=1)
            row_targets = counts.argmax(axis=1)
        else:
            row_vals = counts[:, target]
            row_targets = np.full(len(batch), target, dtype=np.int64)
        r = int(np.argmax(row_vals))
        best.offer(int(row_vals[r]), int(idx[r]), int(row_targets[r]))
    return best, per_vals, per_idx, evals


def _merge_ranges(parts):
    best = _BestCell()
    per_vals = None
    per_idx = None
    evals = 0
    for part_best, vals, idx, ev in parts:
        best.offer(part_best.value, part_best.tuple_idx, part_best.target)
        if per_vals is None:
            per_vals, per_idx = vals.copy(), idx.copy()
        else:
            take = vals > per_vals
            per_idx[take] = idx[take]
            np.maximum(per_vals, vals, out=per_vals)
        evals += ev
    return best, per_vals, per_idx, evals


def _search_all_tuples(
    g: FiniteGroup,
    w: ReducedWord,
    a: AutSet,
    target: Optional[int],
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

    Least witness: the least-index tuple attaining a maximum (overall, at a
    fixed target or at each target) is already in normal form.  If its first
    non-identity first letter is p, of variable v, the move above with
    gamma = alpha_p^-1 leaves every letter before p alone, since p is v's
    first letter, and puts 0 at p, giving a smaller mixed-radix index with
    the same counts.  Scanned rows map to full indices monotonically, so
    scanning them in order, in any thread split, reports the same witnesses
    as the full scan.

    The budget is checked against the evaluations performed, the argument
    tuples the scanned tuples account for, before any is made.  Returns the
    best cell, the per-target maxima with their witness indices, the
    evaluations performed, and the tuples covered and scanned.
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
    # no more workers than cores; the witnesses do not depend on the split
    threads = max(1, min(int(threads), os.cpu_count() or 1))
    if threads == 1 or scanned < 4 * threads:
        parts = [_scan_range(ev, range(scanned), target, free)]
    else:
        bounds = np.linspace(0, scanned, threads + 1, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_scan_range, ev, range(int(lo), int(hi)), target, free)
                for lo, hi in zip(bounds, bounds[1:])
                if hi > lo
            ]
            parts = [f.result() for f in futures]
    best, per_vals, per_idx, evals = _merge_ranges(parts)
    return best, per_vals, per_idx, evals, covered, scanned


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
    """Maximum fiber size over automorphism tuples drawn from A.

    target None means maximize over all targets.  Exact mode covers all |A|^l
    tuples but, when A is closed, scans only the |A|^(l-d) with the identity
    on the first letter of each variable: composing an automorphism of A onto
    all letters of one variable reparametrizes that variable and changes no
    fiber size, and the least maximizing tuple already has that form (see
    `_search_all_tuples`).  Sample mode draws `samples` seeded uniform tuples
    after the identity tuple and reports a lower bound.  In both modes the
    budget bounds the evaluations performed, and is checked before any tuple
    is scanned or drawn.  Ties are broken by the least (tuple index, target
    index).
    """
    _require_word(w)
    if len(a) == 0:
        raise ValueError("empty automorphism set")
    if target is not None and not 0 <= target < g.order:
        raise ValueError(f"target {target} out of range for order {g.order}")
    d = w.num_variables
    l = w.length
    if mode == "exact":
        best, _, _, evals, total, scanned = _search_all_tuples(
            g, w, a, target, budget, threads
        )
        digits = tuple(int(x) for x in np.unravel_index(best.tuple_idx, (len(a),) * l))
    elif mode == "sample":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        needed = (samples + 1) * g.order**d
        if needed > budget:
            raise BudgetExceeded(f"sampled search needs {needed} evaluations, budget is {budget}")
        rng = np.random.default_rng(seed)
        draws = np.vstack(
            [np.zeros((1, l), dtype=np.int64), rng.integers(0, len(a), size=(samples, l))]
        )
        best, _, _, evals = _scan_range(_BatchEvaluator(g, w, a.tables), draws, target)
        digits = tuple(int(x) for x in draws[best.tuple_idx])
        total = scanned = draws.shape[0]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return MaxFiberResult(
        value=best.value,
        proportion=Fraction(best.value, g.order**d),
        witness_tuple=a.tables[list(digits)],
        witness_target=best.target,
        status="exact" if mode == "exact" else "lower_bound",
        tuples_examined=total,
        evaluations=total * g.order**d,
        tuples_scanned=scanned,
        evaluations_performed=evals,
        witness_tuple_indices=digits,
        seed=None if mode == "exact" else seed,
    )


def max_fiber_per_target(
    g: FiniteGroup,
    w: ReducedWord,
    a: AutSet,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> PerTargetMax:
    """Exact P^(A)(G, g) for every target g at once."""
    _require_word(w)
    _, per_vals, per_idx, evals, total, scanned = _search_all_tuples(
        g, w, a, None, budget, threads
    )
    return PerTargetMax(
        values=per_vals,
        witness_tuple_indices=per_idx,
        tuples_examined=total,
        evaluations=total * g.order**w.num_variables,
        tuples_scanned=scanned,
        evaluations_performed=evals,
    )


# -- coset equation rewriting ---------------------------------------------------


@dataclass
class RewriteResult:
    """Automorphisms of N, one table row per letter, expressing the coset
    equation over N^d.  One trial gives beta as (l, |N|), the target as an
    int and the conjugators as a tuple; a batch of T trials gives (T, l, |N|),
    (T,) and (T, l) arrays."""

    n_group: FiniteGroup
    n_elements: tuple[int, ...]
    beta: np.ndarray
    target: int | np.ndarray
    conjugators: tuple[int, ...] | np.ndarray


def rewrite_coset_equation(
    g: FiniteGroup,
    n: SubgroupHandle,
    w: ReducedWord,
    auts: np.ndarray,
    base: Sequence[int] | np.ndarray,
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
    trials; one trial, (l, |G|) and d entries, is a batch of one.  A row that
    does not map N onto itself has no restriction and is refused.
    """
    _require_word(w)
    batched = np.ndim(auts) == 3
    tables = _letter_tables(g, w, auts, batched)
    bases = np.asarray(base, dtype=np.int64)
    if not batched:
        tables, bases = tables[None], bases[None]
    if bases.shape != (len(tables), w.num_variables):
        raise ValueError(
            f"expected {w.num_variables} base entries per trial, got {bases.shape}"
        )
    _require_characteristic(g, n)
    pos = _var_positions(w)
    rows = np.arange(len(tables))[:, None]
    factors = tables[rows, np.arange(w.length), bases[:, [pos[let.var] for let in w.letters]]]
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

    npos = np.full(g.order, -1, dtype=np.int32)
    npos[list(n.elements)] = np.arange(n.order, dtype=np.int32)
    c = conjugators[:, :, None]
    # row (t, i): x -> c_ti auts[t, i](x) c_ti^-1, restricted to N
    beta = npos[g.table[g.table[c, tables[:, :, list(n.elements)]], g.inv_table[c]]]
    if (beta < 0).any():
        raise ValueError("conjugated automorphism must stabilize N")
    if not batched:
        beta, value = beta[0], int(value[0])
        conjugators = tuple(int(x) for x in conjugators[0])
    return RewriteResult(n.as_group, tuple(n.elements), beta, value, conjugators)

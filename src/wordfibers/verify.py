"""Executable checkers for the fiber inequalities, each returning a structured
pass/fail report with reproducible witnesses.

Exhaustive checkers report "pass" or "fail"; sampled checkers report
"inconclusive-sampled" (zero violations found) or "fail".  One exception:
`check_rewrite` samples its trials (automorphism tuple and base tuple) with a
seed, yet reports "pass" when every trial holds; each trial is checked over
all of N^d, but the trials cover only part of the space (ROADMAP item 6).
Its trials are drawn, rewritten and swept in blocks of trials, with the
draws, witness and counters of a trial-by-trial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fibers
from .errors import BudgetExceeded, CapExceeded
from .fibers import (
    _BATCH_ELEMENTS,
    _argument_blocks,
    _letter_args,
    _require_word,
    _word_values,
    DEFAULT_BUDGET,
    fiber_distribution,
    max_fiber,
    pi_w,
    rewrite_coset_equation,
    wreath_counts,
)
from .groups import (
    AutSet,
    FiniteGroup,
    SubgroupHandle,
    automorphism_group,
    induced_autset,
    is_simple,
    make_group,
    restricted_autset,
)
from .words import ReducedWord, format_word, parse_word, variations


@dataclass
class CheckReport:
    claim: str
    params: dict
    outcome: str  # "pass" | "fail" | "inconclusive-sampled"
    witness: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.outcome == "fail"


def _require_inner(a: AutSet) -> None:
    if not a.contains_inner:
        raise ValueError("the automorphism set must contain all inner automorphisms")


def check_identity_maximal(
    g: FiniteGroup,
    w: ReducedWord,
    a: AutSet,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CheckReport:
    """Every target's best fiber is at most the identity's best fiber."""
    _require_inner(a)
    res = max_fiber(g, w, a, budget=budget, threads=threads)
    identity_max = int(res.target_values[0])
    worst = int(np.argmax(res.target_values))
    params = {
        "group": g.spec,
        "word": format_word(w),
        "autset": a.kind,
        "autset_size": len(a),
    }
    counters = {"tuples_examined": res.tuples_examined, "evaluations": res.evaluations}
    if res.value > identity_max:
        return CheckReport(
            claim="identity-max",
            params=params,
            outcome="fail",
            witness={
                "target": worst,
                "target_max": res.value,
                "identity_max": identity_max,
                "witness_tuple_index": int(res.target_tuple_numbers[worst]),
            },
            counters=counters,
        )
    return CheckReport(
        claim="identity-max",
        params=params,
        outcome="pass",
        witness={
            "identity_max": identity_max,
            "per_target_max": res.target_values.tolist(),
        },
        counters=counters,
    )


def check_submultiplicative(
    g: FiniteGroup,
    n: SubgroupHandle,
    w: ReducedWord,
    a: AutSet,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CheckReport:
    """Per-target and overall product bounds across a characteristic subgroup."""
    _require_inner(a)
    ind = induced_autset(n, a)
    res = restricted_autset(n, a)
    qh = n.as_quotient
    pt_g = max_fiber(g, w, a, budget=budget, threads=threads)
    pt_q = max_fiber(qh.group, w, ind, budget=budget, threads=threads)
    pt_n = max_fiber(res.group, w, res, budget=budget, threads=threads)
    n_identity = int(pt_n.target_values[0])
    params = {
        "group": g.spec,
        "subgroup_order": n.order,
        "word": format_word(w),
        "autset": a.kind,
        "autset_size": len(a),
        "induced_size": len(ind),
        "restricted_size": len(res),
    }
    counters = {
        "evaluations": pt_g.evaluations + pt_q.evaluations + pt_n.evaluations,
        "tuples_examined": pt_g.tuples_examined
        + pt_q.tuples_examined
        + pt_n.tuples_examined,
    }
    over = np.flatnonzero(pt_g.target_values > pt_q.target_values[qh.projection] * n_identity)
    if len(over):
        target = int(over[0])
        return CheckReport(
            claim="submultiplicative",
            params=params,
            outcome="fail",
            witness={
                "part": 1,
                "target": target,
                "group_value": int(pt_g.target_values[target]),
                "quotient_value": int(pt_q.target_values[qh.projection[target]]),
                "subgroup_identity_value": n_identity,
            },
            counters=counters,
        )
    overall_lhs = pt_g.value
    overall_rhs = pt_q.value * pt_n.value
    if overall_lhs > overall_rhs:
        return CheckReport(
            claim="submultiplicative",
            params=params,
            outcome="fail",
            witness={
                "part": 3,
                "group_value": overall_lhs,
                "quotient_value": pt_q.value,
                "subgroup_value": pt_n.value,
            },
            counters=counters,
        )
    return CheckReport(
        claim="submultiplicative",
        params=params,
        outcome="pass",
        witness={
            "group_value": overall_lhs,
            "quotient_value": pt_q.value,
            "subgroup_value": pt_n.value,
        },
        counters=counters,
    )


def check_dihedral_counterexample(o: int, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """The squaring word on the dihedral group of order 2o beats the product of
    the plain bounds over its cyclic index-2 subgroup and the order-2 quotient."""
    if o < 3 or o % 2 == 0:
        raise ValueError(f"o must be an odd integer >= 3, got {o}")
    w = parse_word("x1^2")
    g = make_group(f"dih:{o}")
    sub = make_group(f"cyc:{o}")
    quo = make_group("cyc:2")
    pi_g, _ = pi_w(g, w, budget=budget)
    pi_n, _ = pi_w(sub, w, budget=budget)
    pi_q, _ = pi_w(quo, w, budget=budget)
    violated = pi_g > pi_n * pi_q
    return CheckReport(
        claim="dihedral-counterexample",
        params={"o": o},
        outcome="pass" if violated else "fail",
        witness={
            "group_max": pi_g,
            "subgroup_max": pi_n,
            "quotient_max": pi_q,
            "product": pi_n * pi_q,
        },
        counters={"evaluations": 2 * o + o + 2},
    )


def check_rewrite(
    g: FiniteGroup,
    n: SubgroupHandle,
    w: ReducedWord,
    aut: AutSet,
    trials: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Random trials of the coset-equation rewrite, each verified over all of N^d.

    Trial t draws l indices into `aut` (Aut(G) on the command line), then d
    base elements of G, from one seeded stream, trial after trial.  Trials
    are rewritten and swept in blocks of b, one `rewrite_coset_equation`
    call a block.  b*s, with s = |N|^d the coset tuples of one trial, and
    b*l*|G|, its gathered tables, stay within `_BATCH_ELEMENTS`, else b is
    1.  Each letter's rows are (b, |N|), one per trial: the left side's row
    for letter i maps each n in N to alpha_i(n g_v), v the variable of
    letter i, and the right side's is beta_i, so both sides read the same
    coset-tuple indices.  Both are evaluated by `_word_values` over the
    argument blocks of `_argument_blocks(|N|, d, b)`, the block rule of
    `_BatchEvaluator`, which reads the same limit: a block of several
    trials is then one argument block, and a single trial is swept in
    argument blocks in index order.  So the first mismatch in (trial, coset
    tuple) order is the witness, as in a sweep one trial at a time.  The
    budget, 2*trials*s evaluations, is checked before any draw.

    A block's draws are one ``rng.integers`` call with a bound per column,
    l times |A| then d times |G|.  numpy's `Generator` draws such an array
    element by element in row-major order, each element with its own bound,
    so the values and the generator state after them are those of the
    per-trial calls (l indices, then d bases); `TestRewriteDraws` pins this.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _require_word(w)
    d, l = w.num_variables, w.length
    sweep = n.order**d
    if trials * sweep * 2 > budget:
        raise BudgetExceeded(f"{trials} trials over {sweep} coset tuples exceed budget")
    params = {
        "group": g.spec,
        "subgroup_order": n.order,
        "word": format_word(w),
        "trials": trials,
        "seed": seed,
    }
    # the limit `_argument_blocks` reads: a block of several trials must be
    # one argument block
    limit = fibers._BATCH_ELEMENTS
    block = max(1, min(trials, limit // sweep, limit // (l * g.order)))
    letters = _letter_args(w)
    n_elements = np.asarray(n.elements, dtype=np.int32)
    rng = np.random.default_rng(seed)
    bounds = [len(aut)] * l + [g.order] * d
    for lo in range(0, trials, block):
        draws = rng.integers(0, bounds, size=(min(block, trials - lo), l + d))
        indices, bases = draws[:, :l], draws[:, l:]
        b = len(draws)
        res = rewrite_coset_equation(g, n, w, aut.tables[indices], bases)
        # row (r, i) of the left side: n_j -> alpha_ri(n_j g_rv), v of letter i
        cosets = g.table[n_elements, bases[:, [j for j, _ in letters], None]]
        lhs_rows = aut.tables[indices[:, :, None], cosets].swapaxes(0, 1)
        rhs_rows = res.beta.swapaxes(0, 1)
        for start, cols in _argument_blocks(n.order, d, b):
            lhs = _word_values(g, letters, lhs_rows, cols).reshape(b, -1) == res.target[:, None]
            rhs = _word_values(res.n_group, letters, rhs_rows, cols).reshape(b, -1) == 0
            mismatches = np.flatnonzero(lhs != rhs)  # row-major: trial, then coset tuple
            if len(mismatches):
                r, k = divmod(int(mismatches[0]), lhs.shape[1])
                return CheckReport(
                    claim="rewrite",
                    params=params,
                    outcome="fail",
                    witness={
                        "trial": lo + r,
                        "tuple_indices": indices[r].tolist(),
                        "base": bases[r].tolist(),
                        "coset_tuple": [
                            int(c) for c in np.unravel_index(start + k, (n.order,) * d)
                        ],
                        "lhs_holds": bool(lhs[r, k]),
                        "rhs_holds": bool(rhs[r, k]),
                    },
                    counters={"equivalences_checked": (lo + r) * sweep + start + k + 1},
                )
    return CheckReport(
        claim="rewrite",
        params=params,
        outcome="pass",
        witness={},
        counters={"equivalences_checked": trials * sweep},
    )


def _flattened_forms(w: ReducedWord) -> dict[str, tuple[ReducedWord, int]]:
    """The distinct flattened forms of w's variations, keyed by their
    formatted word in first-seen order, each with its multiplicity."""
    forms: dict[str, tuple[ReducedWord, int]] = {}
    for v in variations(w):
        key = format_word(v.flattened)
        flattened, count = forms.get(key, (v.flattened, 0))
        forms[key] = (flattened, count + 1)
    return forms


def variation_profile(
    s: FiniteGroup,
    w: ReducedWord,
    aut: AutSet,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[Fraction, list[dict], int]:
    """Exact best fiber proportion over all variations, with a per-form breakdown.

    Variations sharing a flattened form are computed once; the breakdown lists
    each distinct flattened word with its proportion and multiplicity.  Also
    returns the evaluations.
    """
    evaluations = 0
    best = Fraction(0)
    breakdown = []
    for key, (flattened, multiplicity) in _flattened_forms(w).items():
        res = max_fiber(s, flattened, aut, budget=budget, threads=threads)
        evaluations += res.evaluations
        best = max(best, res.proportion)
        breakdown.append(
            {
                "word": key,
                "multiplicity": multiplicity,
                "proportion": res.proportion,
                "value": res.value,
            }
        )
    return best, breakdown, evaluations


def bound_exponent(n: int, l: int, mode: str = "ceil") -> int:
    """Exponent n/l^2, rounded up by default; "floor" gives the weaker bound."""
    if mode == "ceil":
        return -((-n) // (l * l))
    if mode == "floor":
        return n // (l * l)
    raise ValueError(f"unknown exponent mode {mode!r}")


def _wreath_maxima(parts, k: int, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The largest fiber on S^n of each of k tuples and the least target
    attaining it, read off the factors of `wreath_counts` (``parts``).

    A tuple's factors are nonnegative, sit on disjoint coordinates and have
    positive maxima (a factor's counts sum to |S|^(|C| d)), so their
    product is largest exactly where every factor is at its maximum: the
    largest fiber is the product of the maxima.  Targets compare as S^n
    indices, coordinate 0 first, and the first coordinate where two
    maximizers differ belongs to one factor, whose index orders its own
    coordinates the same way.  So the lex-least maximizer of the product is
    each factor's lex-least maximizer, its least argmax, put together: the
    argmax's digits, first coordinate first, go to the factor's coordinates."""
    values = np.empty(k, dtype=np.int64)
    targets = np.empty(k, dtype=np.int64)
    for members, factors in parts:
        value, target = 1, 0
        for coords, counts in factors:
            best = counts.argmax(axis=1)  # the first, so the least, argmax
            value = value * counts[np.arange(len(best)), best]
            for j, c in enumerate(coords):
                target = target + best // q ** (len(coords) - 1 - j) % q * q ** (n - 1 - c)
        values[members], targets[members] = value, target
    return values, targets


def check_variation_bound(
    s: FiniteGroup,
    n: int,
    w: ReducedWord,
    samples: int = 1000,
    seed: int = 0,
    exponent_mode: str = "ceil",
    epsilon_factor: Fraction = Fraction(1),
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CheckReport:
    """Fiber proportions over S^n stay below the best variation proportion,
    raised to the n/l^2 exponent.

    n = 1 is checked exactly, by the search `variation_profile` already ran
    on the all-ones variation, whose flattened form is w with its variables
    renamed in order of first occurrence (`ReducedWord.normalized`): A keeps
    that scan, so `max_fiber` reads it.  The counter adds its evaluations a
    second time, as the recorded reports do.
    n >= 2 draws ``samples`` seeded tuples of members of Aut(S) wr S_n and can
    only report inconclusive-sampled or fail: per sample and letter, n base
    indices (``rng.integers``) and then a coordinate permutation
    (``rng.permutation``).  `wreath_counts` counts blocks of samples on S,
    with no table of S^n, and is exact: each coordinate of the word's value
    is a variation of w over S, relabelling each variable's copies by the
    permutation of its first letter is a bijection of the arguments, and the
    components of coordinates that read shared copies take disjoint
    arguments, so the S^n counts are products of component counts.
    `_wreath_maxima` reads each sample's largest fiber and least target off
    those factors, the sum of |S|^|C| counts, not |S|^n.  The budget,
    samples * |S|^(n*d) evaluations, and the size of one sample's |S|^n
    counts, at most `_BATCH_ELEMENTS`, are checked before any work.
    The witness is the first violating sample, else the first sample with
    the largest fiber.
    ``exponent_mode`` selects the ceiling (default) or the weaker floor
    exponent; ``epsilon_factor`` rescales the computed bound (used by negative
    controls).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s.is_abelian or not is_simple(s):
        raise ValueError("the base group must be a nonabelian simple group")
    if exponent_mode not in ("ceil", "floor"):
        raise ValueError(f"unknown exponent mode {exponent_mode!r}")
    d = w.num_variables
    total = s.order ** (n * d)
    if n >= 2:
        if samples * total > budget:
            raise BudgetExceeded(
                f"{samples} samples of {s.order}^{n * d} evaluations exceed budget {budget}"
            )
        if s.order**n > _BATCH_ELEMENTS:
            raise CapExceeded(
                f"{s.order}^{n} fiber counts of one sample exceed {_BATCH_ELEMENTS}"
            )
    aut = automorphism_group(s)
    epsilon, breakdown, evaluations = variation_profile(
        s, w, aut, budget=budget, threads=threads
    )
    epsilon_used = epsilon * epsilon_factor
    l = w.length
    exponent = bound_exponent(n, l, exponent_mode)
    bound = epsilon_used**exponent
    params = {
        "simple": s.spec,
        "n": n,
        "word": format_word(w),
        "aut_size": len(aut),
        "epsilon": epsilon,
        "epsilon_factor": epsilon_factor,
        "exponent_mode": exponent_mode,
        "exponent": exponent,
        "bound": bound,
        "variation_breakdown": breakdown,
    }
    if n == 1:
        res = max_fiber(s, w.normalized(), aut, budget=budget, threads=threads)
        evaluations += res.evaluations
        holds = res.proportion <= bound
        return CheckReport(
            claim="variation-bound",
            params=params,
            outcome="pass" if holds else "fail",
            witness={
                "proportion": res.proportion,
                "value": res.value,
                "target": res.witness_target,
                "tuple_indices": res.witness_tuple_indices,
            },
            counters={"evaluations": evaluations},
        )
    rng = np.random.default_rng(seed)
    # exact comparison value/total <= bound, as value <= floor(bound * total),
    # clamped into int64 range: every value lies in 1..total
    allowed = min(total, max(-1, bound.numerator * total // bound.denominator))
    # blocks of samples whose |S|^n counts each, no fewer than their factors
    # hold, fit `_BATCH_ELEMENTS`, the block bound `_joint_counts` keeps
    step = max(1, _BATCH_ELEMENTS // s.order**n)
    worst = {}
    for lo in range(0, samples, step):
        k = min(step, samples - lo)
        # sample-major, letter-minor: the seeded draw order
        draws = [(rng.integers(0, len(aut), size=n), rng.permutation(n)) for _ in range(k * l)]
        base_indices, sigmas = (np.array(part).reshape(k, l, n) for part in zip(*draws))
        parts = wreath_counts(s, w, aut, n, base_indices, sigmas)
        values, targets = _wreath_maxima(parts, k, s.order, n)
        over = np.flatnonzero(values > allowed)
        if len(over):
            r = int(over[0])
            value = int(values[r])
            return CheckReport(
                claim="variation-bound",
                params=params,
                outcome="fail",
                witness={
                    "sample": lo + r,
                    "seed": seed,
                    "value": value,
                    "target": int(targets[r]),
                    "proportion": Fraction(value, total),
                },
                counters={
                    "evaluations": evaluations + (lo + r + 1) * total,
                    "samples": lo + r + 1,
                },
            )
        r = int(np.argmax(values))
        if values[r] > worst.get("value", 0):
            worst = {"sample": lo + r, "value": int(values[r]), "target": int(targets[r])}
    return CheckReport(
        claim="variation-bound",
        params=params,
        outcome="inconclusive-sampled",
        witness={"worst_sampled": worst, "seed": seed},
        counters={"evaluations": evaluations + samples * total, "samples": samples},
    )


def check_variation_projection(
    g: FiniteGroup,
    w: ReducedWord,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CheckReport:
    """Whenever some variation's map can be made constant, so can the word's,
    demonstrated by reusing the witness tuple."""
    aut = automorphism_group(g)
    d = w.num_variables
    total = g.order**d
    evaluations = 0
    constant_forms = []
    forms = _flattened_forms(w)
    params = {"group": g.spec, "word": format_word(w), "forms": sorted(forms)}
    for key, (flattened, _) in sorted(forms.items()):
        res = max_fiber(g, flattened, aut, budget=budget, threads=threads)
        evaluations += res.evaluations
        if res.proportion != 1:
            continue
        dist = fiber_distribution(g, w, res.witness_tuple, budget=budget)
        evaluations += total
        value, target = dist.max_fiber()
        constant_forms.append({"word": key, "target": target})
        if value != total:
            return CheckReport(
                claim="variation-projection",
                params=params,
                outcome="fail",
                witness={
                    "variation": key,
                    "tuple_indices": res.witness_tuple_indices,
                    "word_max_fiber": value,
                    "needed": total,
                },
                counters={"evaluations": evaluations},
            )
    return CheckReport(
        claim="variation-projection",
        params=params,
        outcome="pass",
        witness={"constant_variations": constant_forms},
        counters={"evaluations": evaluations},
    )

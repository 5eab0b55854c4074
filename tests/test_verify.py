import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import wordfibers.fibers as fibers
import wordfibers.verify as verify
import wordfibers.groups as groups
from wordfibers.errors import BudgetExceeded, CapExceeded
from wordfibers.fibers import eval_automorphic, fiber_distribution
from wordfibers.groups import (
    automorphism_group,
    identity_autset,
    inner_automorphisms,
    make_group,
    subgroup_handle,
    subgroups,
)
from wordfibers.verify import (
    check_dihedral_counterexample,
    check_identity_maximal,
    check_rewrite,
    check_submultiplicative,
    check_variation_bound,
    check_variation_projection,
    variation_profile,
)
from wordfibers.words import parse_word

SQUARE = parse_word("x1^2")
CUBE = parse_word("x1^3")
COMMUTATOR = parse_word("[x1,x2]")
XYX = parse_word("x1 x2 x1")


def no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def char_subgroup_of_order(g, order, aut=None):
    aut = aut or automorphism_group(g)
    return next(
        s for s in subgroups(g, aut=aut) if s.order == order and s.characteristic
    )


class TestIdentityMaximal:
    def test_bijective_squaring(self):
        report = check_identity_maximal(
            make_group("cyc:3"), SQUARE, identity_autset(make_group("cyc:3"))
        )
        # fresh group objects break AutSet/group identity, rebuild properly
        g = make_group("cyc:3")
        report = check_identity_maximal(g, SQUARE, identity_autset(g))
        assert report.outcome == "pass"
        assert report.witness["identity_max"] == 1

    def test_sym3_square_full_aut(self):
        g = make_group("sym:3")
        report = check_identity_maximal(g, SQUARE, automorphism_group(g))
        assert report.outcome == "pass"
        assert report.witness["identity_max"] >= 4

    def test_d8_commutator_inner(self):
        g = make_group("dih:4")
        report = check_identity_maximal(g, COMMUTATOR, inner_automorphisms(g))
        assert report.outcome == "pass"

    def test_requires_inner(self):
        g = make_group("sym:3")
        with pytest.raises(ValueError):
            check_identity_maximal(g, SQUARE, identity_autset(g))


class TestSubmultiplicative:
    def test_sym3_over_a3(self):
        g = make_group("sym:3")
        aut = automorphism_group(g)
        n = char_subgroup_of_order(g, 3, aut)
        report = check_submultiplicative(g, n, SQUARE, aut)
        assert report.outcome == "pass"

    def test_d8_over_center_inner(self):
        g = make_group("dih:4")
        n = char_subgroup_of_order(g, 2)
        report = check_submultiplicative(g, n, COMMUTATOR, inner_automorphisms(g))
        assert report.outcome == "pass"

    def test_full_subgroup_reduces_to_identity_max(self):
        g = make_group("sym:3")
        aut = automorphism_group(g)
        n = subgroup_handle(g, range(6), aut=aut)
        report = check_submultiplicative(g, n, XYX, aut)
        assert report.outcome == "pass"

    def test_trivial_subgroup(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        n = subgroup_handle(g, [0], aut=aut)
        report = check_submultiplicative(g, n, SQUARE, aut)
        assert report.outcome == "pass"


class TestDihedral:
    def test_o3_values(self):
        report = check_dihedral_counterexample(3)
        assert report.outcome == "pass"
        assert report.witness["group_max"] == 4
        assert report.witness["subgroup_max"] == 1
        assert report.witness["quotient_max"] == 2

    def test_o5(self):
        report = check_dihedral_counterexample(5)
        assert report.outcome == "pass"
        assert report.witness["group_max"] == 6
        assert report.witness["product"] == 2

    @pytest.mark.parametrize("o", [4, 2, 1, -3, 6])
    def test_hypothesis_violations_rejected(self, o):
        with pytest.raises(ValueError):
            check_dihedral_counterexample(o)

    def test_every_odd_o_up_to_15_violates(self):
        for o in range(3, 16, 2):
            report = check_dihedral_counterexample(o)
            assert report.outcome == "pass"
            assert report.witness["group_max"] == o + 1
            assert report.witness["product"] == 2


def rewrite_setup(spec, order):
    g = make_group(spec)
    aut = automorphism_group(g)
    return g, aut, char_subgroup_of_order(g, order, aut)


class TestRewriteCheck:
    def test_d8_center_commutator(self):
        g, aut, n = rewrite_setup("dih:4", 2)
        report = check_rewrite(g, n, COMMUTATOR, aut, trials=100, seed=1)
        assert report.outcome == "pass"
        assert report.counters["equivalences_checked"] == 100 * 4

    def test_sym3_a3_cube(self):
        g, aut, n = rewrite_setup("sym:3", 3)
        report = check_rewrite(g, n, CUBE, aut, trials=100, seed=2)
        assert report.outcome == "pass"

    def test_trivial_subgroup_vacuous(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        n = subgroup_handle(g, [0], aut=aut)
        report = check_rewrite(g, n, SQUARE, aut, trials=10, seed=3)
        assert report.outcome == "pass"

    def test_refuses_trials_below_one_before_any_work(self, monkeypatch):
        g, aut, n = rewrite_setup("sym:3", 3)
        monkeypatch.setattr(verify, "rewrite_coset_equation", no_work)
        monkeypatch.setattr(verify, "_argument_blocks", no_work)
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                check_rewrite(g, n, SQUARE, aut, trials=trials)

    def test_refuses_over_budget_before_any_work(self, monkeypatch):
        g, aut, n = rewrite_setup("sym:3", 3)
        monkeypatch.setattr(verify, "rewrite_coset_equation", no_work)
        monkeypatch.setattr(verify, "_argument_blocks", no_work)
        # 10 trials over 3 coset tuples, both sides: 60 evaluations
        with pytest.raises(BudgetExceeded):
            check_rewrite(g, n, SQUARE, aut, trials=10, budget=59)
        with pytest.raises(AssertionError, match="work started"):
            check_rewrite(g, n, SQUARE, aut, trials=10, budget=60)

    def test_seed_reproducible(self):
        g, aut, n = rewrite_setup("alt:4", 4)
        r1 = check_rewrite(g, n, SQUARE, aut, trials=20, seed=9)
        r2 = check_rewrite(g, n, SQUARE, aut, trials=20, seed=9)
        assert r1.outcome == r2.outcome == "pass"
        assert r1.counters == r2.counters

    def test_subgroup_group_is_built_once_per_call(self, monkeypatch):
        g, aut, n = rewrite_setup("alt:4", 4)
        calls = []
        real = groups.subgroup_group
        monkeypatch.setattr(
            groups, "subgroup_group", lambda *args: calls.append(None) or real(*args)
        )
        assert check_rewrite(g, n, SQUARE, aut, trials=20, seed=9).outcome == "pass"
        assert len(calls) == 1

    def test_uses_the_callers_automorphisms(self, monkeypatch):
        g, aut, n = rewrite_setup("alt:4", 4)
        monkeypatch.setattr(verify, "automorphism_group", no_work)
        monkeypatch.setattr(groups, "automorphism_group", no_work)
        assert check_rewrite(g, n, SQUARE, aut, trials=20, seed=9).outcome == "pass"


def corrupt_target(res, row):
    target = np.array(res.target)
    target[row] ^= 1
    return dataclasses.replace(res, target=target)


def corrupt_beta(letter):
    """Swaps two involutions of the Klein four-group N after beta_letter."""
    def change(res, row):
        beta = res.beta.copy()
        beta[row + (letter,)] = np.array([0, 2, 1, 3])[beta[row + (letter,)]]
        return dataclasses.replace(res, beta=beta)
    return change


def corrupt_trials(monkeypatch, changes):
    """Make verify's rewrite apply changes[t] to the result of trial t.

    Trials are numbered across calls in call order, a batch of T trials
    taking T numbers and one trial, (l, |G|) rows, one; a change gets the
    result and the index of the trial's row, () for one trial."""
    real = fibers.rewrite_coset_equation
    seen = [0]

    def fake(g, n, w, auts, base, *args, **kwargs):
        res = real(g, n, w, auts, base, *args, **kwargs)
        batched = np.ndim(auts) == 3
        lo = seen[0]
        seen[0] += len(auts) if batched else 1
        for trial, change in changes.items():
            if lo <= trial < seen[0]:
                res = change(res, (trial - lo,) if batched else ())
        return res

    monkeypatch.setattr(verify, "rewrite_coset_equation", fake)


def reference_rewrite(g, n, w, aut, trials, seed):
    """The trial-by-trial sweep check_rewrite made before trials were
    batched: per trial, one rewrite call and both sides over all of N^d."""
    rng = np.random.default_rng(seed)
    d = w.num_variables
    sweep = n.order**d
    combos = np.unravel_index(np.arange(sweep), (n.order,) * d)
    n_elements = np.asarray(n.elements)
    for trial in range(trials):
        tuple_indices = [int(i) for i in rng.integers(0, len(aut), w.length)]
        auts = aut.tables[tuple_indices]
        base = tuple(int(x) for x in rng.integers(0, g.order, d))
        result = verify.rewrite_coset_equation(g, n, w, auts, base)
        shifted = [g.table[n_elements[c], b] for c, b in zip(combos, base)]
        lhs = eval_automorphic(g, w, auts, shifted) == result.target
        rhs = eval_automorphic(result.n_group, w, result.beta, combos) == 0
        mismatches = np.flatnonzero(lhs != rhs)
        if len(mismatches):
            k = int(mismatches[0])
            witness = {
                "trial": trial,
                "tuple_indices": tuple_indices,
                "base": list(base),
                "coset_tuple": [int(c[k]) for c in combos],
                "lhs_holds": bool(lhs[k]),
                "rhs_holds": bool(rhs[k]),
            }
            return "fail", witness, {"equivalences_checked": trial * sweep + k + 1}
    return "pass", {}, {"equivalences_checked": trials * sweep}


# the default block (every check here is one block), blocks of 7 arguments
# (every trial of more than 7 coset tuples split into chunks), and blocks of
# several trials but not all
BLOCKS = pytest.mark.parametrize(
    "block",
    [None, 7, 1000],
    ids=["one-block", "blocks-of-7-arguments", "blocks-of-1000-arguments"],
)


def with_block(monkeypatch, block):
    """Set the limit the block rule reads; returns the (trials, start) of
    every argument block check_rewrite sweeps."""
    if block is not None:
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", block)
    swept = []
    real = fibers._argument_blocks

    def recording(n, d, b):
        for start, cols in real(n, d, b):
            swept.append((b, start))
            yield start, cols

    monkeypatch.setattr(verify, "_argument_blocks", recording)
    return swept


def assert_report_types(report):
    witness = report.witness
    if report.failed:
        assert type(witness["trial"]) is int
        for key in ("tuple_indices", "base", "coset_tuple"):
            assert all(type(v) is int for v in witness[key])
        assert type(witness["lhs_holds"]) is type(witness["rhs_holds"]) is bool
    assert type(report.counters["equivalences_checked"]) is int


class TestRewriteBatched:
    """check_rewrite against the trial-by-trial reference sweep."""

    BATTERY = [
        (spec, sub, word, seed)
        for spec, sub, seeds in [
            ("dih:4", "center", (0, 1, 2)),
            ("sym:3", "order:3", (100, 101, 102)),
            ("alt:4", "order:4", (200, 201, 202)),
        ]
        for word, seed in zip(("x1^2", "[x1,x2]", "x1 x2 x1"), seeds)
    ]

    @staticmethod
    def compare(monkeypatch, block, spec, sub, word, trials, seed, changes=None):
        from wordfibers.cli import resolve_subgroup

        g = make_group(spec)
        aut = automorphism_group(g)
        n = resolve_subgroup(g, sub, aut)
        w = parse_word(word)
        corrupt_trials(monkeypatch, changes or {})
        expected = reference_rewrite(g, n, w, aut, trials, seed)
        swept = with_block(monkeypatch, block)
        corrupt_trials(monkeypatch, changes or {})
        report = check_rewrite(g, n, w, aut, trials=trials, seed=seed)
        assert (report.outcome, report.witness, report.counters) == expected
        if block == 7 and n.order**w.num_variables > 7:
            assert any(start > 0 for _, start in swept)
        if block == 1000:
            assert max(b for b, _ in swept) > 1
        assert_report_types(report)
        return report

    @BLOCKS
    @pytest.mark.parametrize("spec, sub, word, seed", BATTERY)
    def test_battery_cases(self, monkeypatch, block, spec, sub, word, seed):
        report = self.compare(monkeypatch, block, spec, sub, word, 100, seed)
        assert report.outcome == "pass"

    @BLOCKS
    @pytest.mark.parametrize("word", ["x1 x2^-1 x1", "x1 x2 x3", "x1^-1 x2 x3^-1 x1"])
    def test_inverse_letters_and_three_variables(self, monkeypatch, block, word):
        report = self.compare(monkeypatch, block, "alt:4", "order:4", word, 30, 5)
        assert report.outcome == "pass"

    @BLOCKS
    @pytest.mark.parametrize("word, changes", [
        ("x1 x2^-1 x1", {2: corrupt_beta(2)}),
        ("x1 x2^-1 x1", {9: corrupt_target}),
        ("x1 x2 x3", {1: corrupt_beta(1)}),
        # the earlier trial fails at a later coset tuple: the witness is
        # the first failing trial, not the first failing coset tuple
        ("x1 x2^-1 x1", {2: corrupt_beta(2), 4: corrupt_target}),
        ("x1 x2 x3", {3: corrupt_beta(1), 6: corrupt_target, 7: corrupt_beta(0)}),
    ])
    def test_failing_trials(self, monkeypatch, block, word, changes):
        report = self.compare(monkeypatch, block, "alt:4", "order:4", word, 10, 5, changes)
        assert report.outcome == "fail"
        assert report.witness["trial"] == min(changes)


class TestRewriteDraws:
    """check_rewrite draws a block of trials in one call, with a bound per
    column; that must be the per-trial stream of l indices then d bases."""

    @pytest.mark.parametrize("aut_size, order", [
        (1, 8),  # trivial Aut: a bound of 1 consumes no randomness
        (12, 12),
        (4096, 60),
        (2**31, 24),
        (2**33, 6),
        (7, 2**33),
    ])
    @pytest.mark.parametrize("l, d", [(1, 1), (3, 2), (4, 2)])
    def test_one_call_is_the_per_trial_stream(self, aut_size, order, l, d):
        trials = 17
        for seed in range(20):
            rng = np.random.default_rng(seed)
            per_trial = [
                np.concatenate([rng.integers(0, aut_size, l), rng.integers(0, order, d)])
                for _ in range(trials)
            ]
            after = rng.integers(0, 2**40), rng.random()
            rng = np.random.default_rng(seed)
            draws = rng.integers(0, [aut_size] * l + [order] * d, size=(trials, l + d))
            assert draws.dtype == np.int64
            assert draws.tolist() == np.array(per_trial).tolist()
            assert (rng.integers(0, 2**40), rng.random()) == after


class TestRewriteFailureReport:
    # The rewrite of one trial is corrupted, so that trial fails.  Outcome,
    # witness and counter were taken at the commit before the vectorized
    # sweep, which checked one coset tuple at a time.  A corrupted beta never
    # fails at coset tuple 0, where both sides evaluate at the base tuple.
    # The rewrite now serves blocks of trials, and the corruption goes to the
    # trial's row of the block.
    @pytest.mark.parametrize("spec, order, word, seed, trial, change, witness, checked", [
        ("dih:4", 2, "[x1,x2]", 1, 0, corrupt_target,
         {"trial": 0, "tuple_indices": [3, 4, 6, 7], "base": [0, 1],
          "coset_tuple": [0, 0], "lhs_holds": False, "rhs_holds": True}, 1),
        ("dih:4", 2, "[x1,x2]", 1, 3, corrupt_target,
         {"trial": 3, "tuple_indices": [0, 0, 6, 6], "base": [6, 4],
          "coset_tuple": [0, 0], "lhs_holds": False, "rhs_holds": True}, 13),
        ("alt:4", 4, "x1 x2^-1 x1", 5, 2, corrupt_beta(2),
         {"trial": 2, "tuple_indices": [6, 9, 13], "base": [4, 1],
          "coset_tuple": [1, 0], "lhs_holds": False, "rhs_holds": True}, 37),
        ("alt:4", 4, "x1 x2 x3", 5, 1, corrupt_beta(1),
         {"trial": 1, "tuple_indices": [15, 6, 23], "base": [0, 3, 4],
          "coset_tuple": [0, 1, 2], "lhs_holds": True, "rhs_holds": False}, 71),
    ])
    @BLOCKS
    def test_pinned(self, monkeypatch, block, spec, order, word, seed, trial, change, witness,
                    checked):
        with_block(monkeypatch, block)
        corrupt_trials(monkeypatch, {trial: change})
        g, aut, n = rewrite_setup(spec, order)
        report = check_rewrite(g, n, parse_word(word), aut, trials=10, seed=seed)
        assert report.outcome == "fail"
        assert report.witness == witness
        assert_report_types(report)
        assert report.counters == {"equivalences_checked": checked}


class TestVariationBound:
    def test_rejects_non_simple(self):
        with pytest.raises(ValueError):
            check_variation_bound(make_group("alt:4"), 1, SQUARE)
        with pytest.raises(ValueError):
            check_variation_bound(make_group("cyc:5"), 1, SQUARE)

    def test_two_letter_product_word_hits_bound_exactly(self):
        # the single variation of the two-variable product word flattens to
        # itself; the automorphic maps are bijections in each argument
        s = make_group("alt:5")
        report = check_variation_bound(s, 1, parse_word("x1 x2"))
        assert report.outcome == "pass"
        assert report.params["epsilon"] == Fraction(1, 60)
        assert report.witness["proportion"] == Fraction(1, 60)

    def test_single_letter_exact_boundary(self):
        # every automorphic image of the one-letter word is a bijection, so the
        # proportion hits the bound exactly
        s = make_group("alt:5")
        w = parse_word("x1")
        report = check_variation_bound(s, 1, w)
        assert report.outcome == "pass"
        assert report.params["epsilon"] == Fraction(1, 60)
        assert report.witness["proportion"] == Fraction(1, 60)

    def test_sampled_power_reports_inconclusive(self):
        s = make_group("alt:5")
        w = parse_word("x1")
        report = check_variation_bound(s, 2, w, samples=40, seed=4)
        assert report.outcome == "inconclusive-sampled"
        assert report.params["exponent"] == 2
        assert report.params["bound"] == Fraction(1, 3600)

    # reports of the sampled n = 2 branch, recorded from the one-sample-at-a-time
    # construction this branch replaced: (word, samples, seed, epsilon_factor,
    # outcome, witness, counters)
    PINNED_SAMPLED = [
        ("x1", 300, 7, Fraction(1), "inconclusive-sampled",
         {"worst_sampled": {"sample": 0, "value": 1, "target": 0}, "seed": 7},
         {"evaluations": 1087200, "samples": 300}),
        ("x1^2", 1000, 2026, Fraction(1), "inconclusive-sampled",
         {"worst_sampled": {"sample": 4, "value": 256, "target": 18}, "seed": 2026},
         {"evaluations": 56304000, "samples": 1000}),
        ("x1", 40, 4, Fraction(1), "inconclusive-sampled",
         {"worst_sampled": {"sample": 0, "value": 1, "target": 0}, "seed": 4},
         {"evaluations": 151200, "samples": 40}),
        ("x1", 50, 0, Fraction(1, 1000), "fail",
         {"sample": 0, "seed": 0, "value": 1, "target": 0, "proportion": Fraction(1, 3600)},
         {"evaluations": 10800, "samples": 1}),
        ("x1^2", 30, 11, Fraction(1, 10), "fail",
         {"sample": 1, "seed": 11, "value": 160, "target": 0, "proportion": Fraction(2, 45)},
         {"evaluations": 52711200, "samples": 2}),
    ]

    @pytest.mark.parametrize("case", PINNED_SAMPLED, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_sampled_reports_are_pinned(self, case):
        word, samples, seed, factor, outcome, witness, counters = case
        report = check_variation_bound(
            make_group("alt:5"), 2, parse_word(word), samples=samples, seed=seed,
            epsilon_factor=factor,
        )
        assert (report.outcome, report.witness, report.counters) == (outcome, witness, counters)

    def test_sampled_blocks_do_not_change_the_report(self, monkeypatch):
        s, w = make_group("alt:5"), parse_word("x1^2")
        whole = check_variation_bound(s, 2, w, samples=60, seed=2026)
        # blocks of 7 samples (a block's counts take _BATCH_ELEMENTS / 32 entries)
        monkeypatch.setattr(verify, "_BATCH_ELEMENTS", 32 * 7 * 3600)
        assert check_variation_bound(s, 2, w, samples=60, seed=2026) == whole
        # and kernel batches of one sample
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 3600)
        assert check_variation_bound(s, 2, w, samples=60, seed=2026) == whole

    def test_refuses_n_below_one_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "is_simple", no_work)
        for n in (0, -2):
            with pytest.raises(ValueError, match="n must be >= 1"):
                check_variation_bound(make_group("alt:5"), n, parse_word("x1"))

    def test_budget_counts_every_sample_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "automorphism_group", no_work)
        monkeypatch.setattr(verify, "wreath_counts", no_work)
        s, w = make_group("alt:5"), parse_word("x1 x2^-1")
        # 10 samples of 60^(2*2) evaluations each
        with pytest.raises(BudgetExceeded):
            check_variation_bound(s, 2, w, samples=10, budget=10 * 60**4 - 1)
        with pytest.raises(AssertionError, match="work started"):
            check_variation_bound(s, 2, w, samples=10, budget=10 * 60**4)

    def test_refuses_counts_of_one_sample_beyond_a_block(self, monkeypatch):
        monkeypatch.setattr(verify, "automorphism_group", no_work)
        # one sample's counts on A5^4 are 60^4 > _BATCH_ELEMENTS entries
        with pytest.raises(CapExceeded, match="60\\^4"):
            check_variation_bound(make_group("alt:5"), 4, parse_word("x1"), samples=1)

    def test_alt5_cubed_is_answered(self):
        # every member of Aut(A5) wr S3 is a bijection of A5^3, so x1 has
        # fibers of size 1 on all 216000 targets
        report = check_variation_bound(make_group("alt:5"), 3, parse_word("x1"), samples=20)
        assert report.outcome == "inconclusive-sampled"
        assert report.witness["worst_sampled"] == {"sample": 0, "value": 1, "target": 0}
        # the exact n = 1 profile covers 120 tuples of 60 arguments
        assert report.counters == {"evaluations": 120 * 60 + 20 * 60**3, "samples": 20}

    @pytest.mark.parametrize("n, word", [(2, "x1^2"), (2, "x1 x2^-1"), (3, "x1^3")])
    def test_builds_no_table_of_the_power(self, monkeypatch, n, word):
        monkeypatch.setattr(groups, "power_group", no_work)
        monkeypatch.setattr(groups, "direct_product", no_work)
        report = check_variation_bound(make_group("alt:5"), n, parse_word(word), samples=2,
                                       budget=10**9)
        assert report.outcome == "inconclusive-sampled"

    def test_n1_reuses_the_search_of_the_all_ones_variation(self, monkeypatch):
        calls = []
        real = verify.max_fiber

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        s, w = make_group("alt:5"), SQUARE
        monkeypatch.setattr(verify, "max_fiber", counting)
        report = check_variation_bound(s, 1, w)
        # the flattened forms x1 x1 and x1 x2, once each
        assert [str(v) for v in calls] == ["x1 x1", "x1 x2"]
        res = real(s, w, automorphism_group(s))
        assert report.witness == {
            "proportion": res.proportion,
            "value": res.value,
            "target": res.witness_target,
            "tuple_indices": res.witness_tuple_indices,
        }
        # both forms cover 120^2 tuples; the n = 1 search counts once more
        assert report.counters == {"evaluations": 120**2 * (60 + 3600) + res.evaluations}

    def test_refuses_samples_below_one_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "is_simple", no_work)
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                check_variation_bound(make_group("alt:5"), 2, parse_word("x1"), samples=samples)

    def test_negative_control_fails_with_counterexample(self):
        s = make_group("alt:5")
        w = parse_word("x1")
        report = check_variation_bound(s, 1, w, epsilon_factor=Fraction(1, 2))
        assert report.outcome == "fail"
        # the witness re-evaluates to a genuine violation
        aut = automorphism_group(s)
        tup = aut.tables[list(report.witness["tuple_indices"])]
        dist = fiber_distribution(s, w, tup)
        prop = Fraction(int(dist.counts[report.witness["target"]]), 60)
        assert prop == report.witness["proportion"]
        assert prop > report.params["bound"]

    def test_exponent_modes(self):
        from wordfibers.verify import bound_exponent

        assert bound_exponent(2, 2) == 1  # ceil(2/4)
        assert bound_exponent(2, 2, "floor") == 0
        assert bound_exponent(5, 2) == 2
        assert bound_exponent(5, 2, "floor") == 1
        assert bound_exponent(4, 2) == bound_exponent(4, 2, "floor") == 1
        assert bound_exponent(1, 3) == 1
        with pytest.raises(ValueError):
            bound_exponent(1, 1, "round")

    def test_floor_exponent_request_reflected_in_report(self):
        s = make_group("alt:5")
        w = parse_word("x1")
        floor_report = check_variation_bound(
            s, 2, w, samples=5, seed=0, exponent_mode="floor"
        )
        assert floor_report.params["exponent"] == 2  # floor(2/1)
        assert floor_report.outcome == "inconclusive-sampled"


class TestVariationProfile:
    def test_xy_single_variation(self):
        s = make_group("alt:5")
        eps, breakdown, _, _ = variation_profile(
            s, parse_word("x1 x2"), automorphism_group(s)
        )
        assert eps == Fraction(1, 60)
        assert len(breakdown) == 1
        assert breakdown[0]["multiplicity"] == 1


class TestVariationProjection:
    def test_c2_square(self):
        g = make_group("cyc:2")
        report = check_variation_projection(g, SQUARE)
        assert report.outcome == "pass"
        assert {c["word"] for c in report.witness["constant_variations"]} == {"x1 x1"}

    def test_abelian_commutator(self):
        report = check_variation_projection(make_group("cyc:4"), COMMUTATOR)
        assert report.outcome == "pass"
        assert report.witness["constant_variations"]

    def test_sym3_xy_vacuous(self):
        report = check_variation_projection(make_group("sym:3"), parse_word("x1 x2"))
        assert report.outcome == "pass"
        assert report.witness["constant_variations"] == []

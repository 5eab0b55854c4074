import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import wordfibers.verify as verify
import wordfibers.groups as groups
from wordfibers.fibers import fiber_distribution
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


class TestRewriteCheck:
    def test_d8_center_commutator(self):
        g = make_group("dih:4")
        n = char_subgroup_of_order(g, 2)
        report = check_rewrite(g, n, COMMUTATOR, trials=100, seed=1)
        assert report.outcome == "pass"
        assert report.counters["equivalences_checked"] == 100 * 4

    def test_sym3_a3_cube(self):
        g = make_group("sym:3")
        n = char_subgroup_of_order(g, 3)
        report = check_rewrite(g, n, CUBE, trials=100, seed=2)
        assert report.outcome == "pass"

    def test_trivial_subgroup_vacuous(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        n = subgroup_handle(g, [0], aut=aut)
        report = check_rewrite(g, n, SQUARE, trials=10, seed=3)
        assert report.outcome == "pass"

    def test_refuses_trials_below_one_before_any_work(self, monkeypatch):
        g = make_group("sym:3")
        n = char_subgroup_of_order(g, 3)
        monkeypatch.setattr(verify, "automorphism_group", no_work)
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                check_rewrite(g, n, SQUARE, trials=trials)

    def test_seed_reproducible(self):
        g = make_group("alt:4")
        n = char_subgroup_of_order(g, 4)
        r1 = check_rewrite(g, n, SQUARE, trials=20, seed=9)
        r2 = check_rewrite(g, n, SQUARE, trials=20, seed=9)
        assert r1.outcome == r2.outcome == "pass"
        assert r1.counters == r2.counters

    def test_subgroup_group_is_built_once_per_call(self, monkeypatch):
        g = make_group("alt:4")
        n = char_subgroup_of_order(g, 4)
        calls = []
        real = groups.subgroup_group
        monkeypatch.setattr(
            groups, "subgroup_group", lambda *args: calls.append(None) or real(*args)
        )
        assert check_rewrite(g, n, SQUARE, trials=20, seed=9).outcome == "pass"
        assert len(calls) == 1


def corrupt_target(res):
    return dataclasses.replace(res, target=res.target ^ 1)


def corrupt_beta(letter):
    """Swaps two involutions of the Klein four-group N after beta_letter."""
    def change(res):
        beta = res.beta.copy()
        beta[letter] = np.array([0, 2, 1, 3])[beta[letter]]
        return dataclasses.replace(res, beta=beta)
    return change


class TestRewriteFailureReport:
    # The rewrite of one trial is corrupted, so that trial fails.  Outcome,
    # witness and counter were taken at the commit before the vectorized
    # sweep, which checked one coset tuple at a time.  A corrupted beta never
    # fails at coset tuple 0, where both sides evaluate at the base tuple.
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
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7-arguments"])
    def test_pinned(self, monkeypatch, block, spec, order, word, seed, trial, change, witness,
                    checked):
        if block is not None:
            monkeypatch.setattr(verify, "_BATCH_ELEMENTS", block)
        real = verify.rewrite_coset_equation
        calls = []

        def fake(*args, **kwargs):
            calls.append(None)
            res = real(*args, **kwargs)
            return change(res) if len(calls) - 1 == trial else res

        monkeypatch.setattr(verify, "rewrite_coset_equation", fake)
        g = make_group(spec)
        report = check_rewrite(
            g, char_subgroup_of_order(g, order), parse_word(word), trials=10, seed=seed
        )
        assert report.outcome == "fail"
        assert report.witness == witness
        assert [type(v) for v in report.witness["coset_tuple"]] == [int] * len(witness["coset_tuple"])
        assert type(report.witness["lhs_holds"]) is type(report.witness["rhs_holds"]) is bool
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
        monkeypatch.setattr(verify, "_COMPOSE_BLOCK_ELEMENTS", 1)
        assert check_variation_bound(s, 2, w, samples=60, seed=2026) == whole

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
        eps, breakdown, _ = variation_profile(
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

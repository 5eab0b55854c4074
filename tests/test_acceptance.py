"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Every expected value is either computed by an independent
oracle inside this module or checked at the stated exact/relative tolerance.
"""

import concurrent.futures
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp

from wordfibers.bounds import (
    alt_exclusion_threshold,
    epsilon_upper_bound,
    lie_rank_threshold,
    n0_bound,
)
import wordfibers.fibers as fibers
from wordfibers.cli import run_command
from wordfibers.fibers import max_fiber, pi_w
from wordfibers.groups import (
    automorphism_group,
    identity_autset,
    inner_automorphisms,
    is_isomorphic,
    make_group,
)
from wordfibers.verify import (
    check_dihedral_counterexample,
    check_identity_maximal,
    check_rewrite,
    check_submultiplicative,
    check_variation_bound,
)
from wordfibers.words import (
    Letter,
    VariationWord,
    VarLetter,
    free_reduce,
    m_constant,
    parse_word,
    variation_count,
    variations,
)

BATTERY_GROUPS = [
    "cyc:4",
    "prod:(cyc:2)x(cyc:2)",
    "cyc:6",
    "sym:3",
    "dih:4",
    "q8",
    "dih:5",
    "alt:4",
]
BATTERY_WORDS = ["x1^2", "x1^3", "x1 x2 x1", "[x1,x2]"]
SUBMULT_PAIRS = [
    ("sym:3", "order:3"),
    ("dih:4", "center"),
    ("dih:4", "order:4"),
    ("alt:4", "order:4"),
    ("cyc:6", "order:3"),
]
REWRITE_PAIRS = [("dih:4", "center"), ("sym:3", "order:3"), ("alt:4", "order:4")]
TUPLE_CAP = 10**6


@contextmanager
def criterion(label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {label}] FAIL ({time.time() - start:.1f}s)", flush=True)
        raise
    print(f"[criterion {label}] PASS ({time.time() - start:.1f}s)", flush=True)


def battery_autset(g, length):
    aut = automorphism_group(g)
    if len(aut) ** length > TUPLE_CAP:
        return inner_automorphisms(g)
    return aut


def resolve_pair(group_spec, sub_spec):
    from wordfibers.cli import resolve_subgroup

    g = make_group(group_spec)
    aut = automorphism_group(g)
    return g, aut, resolve_subgroup(g, sub_spec)


# independent oracle for plain word-map fiber counts
def plain_square_counts(g):
    counts = [0] * g.order
    for x in range(g.order):
        counts[g.mul(x, x)] += 1
    return counts


def test_criterion_1_dihedral_counterexample():
    with criterion("1 dihedral counterexample"):
        start = time.time()
        for o in (3, 5, 7, 9):
            report = check_dihedral_counterexample(o)
            assert report.outcome == "pass"
            assert report.witness["group_max"] == o + 1
            assert report.witness["subgroup_max"] * report.witness["quotient_max"] == 2
            # independent enumeration oracle
            d = make_group(f"dih:{o}")
            assert max(plain_square_counts(d)) == o + 1
            assert max(plain_square_counts(make_group(f"cyc:{o}"))) == 1
            assert max(plain_square_counts(make_group("cyc:2"))) == 2
        assert time.time() - start < 1.0


def test_criterion_2_identity_maximal_battery():
    with criterion("2 identity-maximality battery"):
        start = time.time()
        for spec in BATTERY_GROUPS:
            g = make_group(spec)
            for text in BATTERY_WORDS:
                w = parse_word(text)
                a = battery_autset(g, w.length)
                report = check_identity_maximal(g, w, a)
                assert report.outcome == "pass", (spec, text)
        assert time.time() - start < 600


def test_criterion_3_submultiplicative_battery():
    with criterion("3 submultiplicativity battery"):
        start = time.time()
        for group_spec, sub_spec in SUBMULT_PAIRS:
            g, aut, n = resolve_pair(group_spec, sub_spec)
            for text in BATTERY_WORDS:
                w = parse_word(text)
                report = check_submultiplicative(g, n, w, aut)
                assert report.outcome == "pass", (group_spec, sub_spec, text)
        assert time.time() - start < 600


def test_criterion_4_rewrite_trials_and_closed_form():
    with criterion("4 coset rewrite"):
        for idx, (group_spec, sub_spec) in enumerate(REWRITE_PAIRS):
            g, aut, n = resolve_pair(group_spec, sub_spec)
            for jdx, text in enumerate(["x1^2", "[x1,x2]", "x1 x2 x1"]):
                w = parse_word(text)
                report = check_rewrite(g, n, w, aut, trials=100, seed=1000 * idx + jdx)
                assert report.outcome == "pass", (group_spec, sub_spec, text)
                assert report.counters["equivalences_checked"] == (
                    100 * n.order**w.num_variables
                )
        # the commutator's rewritten tuple matches the displayed closed form
        from wordfibers.fibers import rewrite_coset_equation

        w = parse_word("[x1,x2]")
        for group_spec, sub_spec in REWRITE_PAIRS:
            g, aut, n = resolve_pair(group_spec, sub_spec)
            rng = np.random.default_rng(42)
            for _ in range(20):
                auts = aut.tables[rng.integers(0, len(aut), 4)]
                base = tuple(int(x) for x in rng.integers(0, g.order, 2))
                res = rewrite_coset_equation(g, n, w, auts[None], [base])
                a1, a2, a3, a4 = (lambda x, row=row: int(row[x]) for row in auts)
                g1, g2 = base
                c2 = a1(g1)
                c3 = g.mul(g.mul(a1(g1), a2(g2)), g.inv(a3(g1)))
                c4 = g.mul(c3, g.inv(a4(g2)))
                closed = [
                    lambda x: a1(x),
                    lambda x: g.mul(g.mul(c2, a2(x)), g.inv(c2)),
                    lambda x: g.mul(g.mul(c3, a3(x)), g.inv(c3)),
                    lambda x: g.mul(g.mul(c4, a4(x)), g.inv(c4)),
                ]
                for i in range(4):
                    for pos, elem in enumerate(res.n_elements):
                        assert res.n_elements[res.beta[0, i, pos]] == closed[i](elem)


def test_criterion_5_variation_machinery():
    with criterion("5 variation machinery"):
        commutator = parse_word("[x1,x2]")
        enumerated = list(variations(commutator))
        assert variation_count(commutator) == 16 == len(enumerated)
        positive = VariationWord(
            (
                VarLetter(1, 2, 1),
                VarLetter(2, 1, 1),
                VarLetter(1, 1, -1),
                VarLetter(2, 1, -1),
            )
        )
        negative = VariationWord(
            (
                VarLetter(1, 3, 1),
                VarLetter(2, 1, 1),
                VarLetter(1, 2, -1),
                VarLetter(2, 2, -1),
            )
        )
        assert positive in enumerated
        assert negative not in enumerated  # copy index 3 of a variable seen twice
        for text in BATTERY_WORDS:
            w = parse_word(text)
            for v in variations(w):
                # dropping the copy indices gives back the word
                assert free_reduce(Letter(l.var, l.sign) for l in v.letters) == w
                assert v.flattened.length == w.length


def test_criterion_6_variation_bound_desk_scale():
    with criterion("6 power bound at desk scale"):
        start = time.time()
        s = make_group("alt:5")
        w = parse_word("x1^2")
        exact = check_variation_bound(s, 1, w)
        assert exact.outcome == "pass"
        epsilon = exact.params["epsilon"]
        assert exact.counters["evaluations"] >= 14400 * 60
        assert exact.witness["proportion"] <= epsilon
        # closed-form cap on the best variation proportion
        assert epsilon <= epsilon_upper_bound(60, 2) == Fraction(3599, 3600)
        sampled = check_variation_bound(s, 2, w, samples=1000, seed=2026)
        assert sampled.outcome == "inconclusive-sampled"
        assert sampled.counters["samples"] == 1000
        assert sampled.params["epsilon"] == epsilon
        assert sampled.params["exponent"] == 1  # ceil(2/4)
        assert sampled.params["bound"] == epsilon
        assert time.time() - start < 1800


def test_criterion_7_bound_formulas():
    with criterion("7 bound formulas"):
        start = time.time()
        assert m_constant(1, 1) == 341

        def series_oracle(d, l):
            b = 2 * l * (d + 1)
            total, power = 0, 1
            for _ in range(2 * l + 3):
                total += power
                power *= b
            return total

        for d in range(1, 7):
            for l in range(1, 7):
                assert m_constant(d, l) == series_oracle(d, l)
        assert lie_rank_threshold(parse_word("[x1,x2]"), Fraction(1)).threshold == 28800
        assert lie_rank_threshold(parse_word("x1"), Fraction(1)).threshold == 288
        alt = alt_exclusion_threshold(parse_word("x1"), Fraction(1))
        with mp.workdps(100):
            expected = mp.log(256) + 5454
            diff = abs(alt.ceil_argument.ln_value - expected) / expected
            assert diff < mpmath.mpf(10) ** -30
        # monotonicity over 1000 random exact-rational pairs
        rng = np.random.default_rng(7)
        x1 = parse_word("x1")
        for _ in range(1000):
            nums = rng.integers(1, 10**6, size=2)
            dens = rng.integers(1, 10**6, size=2)
            pair = sorted(
                (
                    Fraction(int(n) % int(d) + 1, int(d) + 1)
                    for n, d in zip(nums, dens)
                ),
            )
            lo, hi = pair[0], pair[1]
            assert (
                alt_exclusion_threshold(x1, lo).threshold.ln_value
                >= alt_exclusion_threshold(x1, hi).threshold.ln_value
            )
            assert (
                lie_rank_threshold(x1, lo).threshold
                >= lie_rank_threshold(x1, hi).threshold
            )
            assert n0_bound(x1, lo, 60) >= n0_bound(x1, hi, 60)
        assert time.time() - start < 60


def test_criterion_8_monotonicity_and_invariance():
    with criterion("8 monotonicity and isomorphism invariance"):
        for spec in BATTERY_GROUPS:
            g = make_group(spec)
            ident = identity_autset(g)
            inn = inner_automorphisms(g)
            aut = automorphism_group(g)
            for text in BATTERY_WORDS:
                w = parse_word(text)
                plain, _ = pi_w(g, w)
                chain = [
                    max_fiber(g, w, ident).value,
                    max_fiber(g, w, inn).value,
                    max_fiber(g, w, aut).value,
                ]
                assert plain <= chain[0] <= chain[1] <= chain[2], (spec, text)
        d6 = make_group("dih:3")
        s3 = make_group("sym:3")
        ok, witness = is_isomorphic(d6, s3)
        assert ok
        for a in range(6):
            for b in range(6):
                assert witness[d6.mul(a, b)] == s3.mul(witness[a], witness[b])
        for text in BATTERY_WORDS:
            w = parse_word(text)
            assert (
                max_fiber(d6, w, automorphism_group(d6)).value
                == max_fiber(s3, w, automorphism_group(s3)).value
            ), text


def test_criterion_9_determinism_across_thread_counts(monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    # two cores, and two tuples per batch on q8 with two variables: the
    # searches below span several batches, so two threads split them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 2 * 8**2)
    with criterion("9 determinism"):
        commands = [
            ["word", "variations", "--word", "[x1,x2]"],
            ["group", "series", "--spec", "dih:4"],
            ["fiber", "pi", "--group", "dih:5", "--word", "x1^3"],
            ["fiber", "max", "--group", "q8", "--word", "x1 x2 x1", "--auts", "aut"],
            ["verify", "identity-max", "--group", "alt:4", "--word", "x1^2",
             "--auts", "aut"],
            ["verify", "submult", "--group", "sym:3", "--subgroup", "order:3",
             "--word", "[x1,x2]", "--auts", "aut"],
            ["verify", "dihedral", "--o", "7"],
            ["bounds", "exclude", "--word", "[x1,x2]", "--rho", "1/3"],
            ["bounds", "n0", "--word", "x1^2", "--rho", "1/2", "--order", "60"],
        ]
        for argv in commands:
            outputs = []
            for threads in ("1", "2"):
                out = io.StringIO()
                code = run_command(["--threads", threads] + argv, stdout=out)
                assert code == 0, argv
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1], argv
            split = argv[:2] in (["fiber", "max"], ["verify", "identity-max"],
                                 ["verify", "submult"])
            assert (len(pools) > 0) == split, argv
            pools.clear()
            doc = json.loads(outputs[0])
            assert set(doc) == {
                "schema_version",
                "request",
                "result",
                "status",
                "stats",
            }

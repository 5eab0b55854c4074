from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import wordfibers.bounds as bounds
from wordfibers.bounds import (
    alt_exclusion_threshold,
    epsilon_upper_bound,
    excluded_factors_report,
    LogNumber,
    lie_rank_threshold,
    n0_bound,
    radical_index_bound,
    simple_group_bound_alt,
    simple_group_bound_lie,
)
from wordfibers.errors import CapExceeded
from wordfibers.words import m_constant, m_prime, parse_word

X1 = parse_word("x1")
SQUARE = parse_word("x1^2")
COMMUTATOR = parse_word("[x1,x2]")


def rel_close(a, b, tol):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return abs(a - b) <= tol * max(abs(a), abs(b))


def no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def n0_oracle(l, rho, order):
    """floor(l^2 log(rho) / log(1 - 1/order^l)) at 3 * digits + 200 digits,
    with digits those of order^l."""
    with mp.workdps(3 * len(str(order**l)) + 200):
        eps = 1 - 1 / mp.mpf(order) ** l
        r = mp.mpf(rho.numerator) / rho.denominator
        return int(mpmath.floor(l * l * mp.log(r) / mp.log(eps)))


def log_number(value):
    """`value` as a LogNumber: its log at 60 digits, and its digits."""
    with mp.workdps(60):
        return LogNumber(ln_value=mp.log(mp.mpf(value)), exact=value)


class TestLogNumber:
    def test_exact_and_log_agree_to_40_digits(self):
        # the logs are added at the caller's working precision
        for a, b in ((1, 2), (2, 171), (10**25, 10**25), (3**500, 3**500)):
            with mp.workdps(60):
                product = log_number(a) * log_number(b)
            assert product.exact == a * b
            with mp.workdps(80):
                independent = mp.log(mp.mpf(a * b))
                if a * b == 1:
                    assert product.ln_value == 0
                else:
                    assert rel_close(product.ln_value, independent, mpmath.mpf(10) ** -40)

    def test_huge_value_drops_exact(self):
        # 10^5000 * 10^5010 has 10^4 + 11 digits, above the exact-digit cap
        product = log_number(10**5000) * log_number(10**5010)
        assert product.exact is None
        assert product.ln_value > 0
        assert (log_number(10**5000) * log_number(10**4000)).exact == 10**9000

    def test_exact_cap_at_its_edge(self):
        # 10^9999 has 10^4 digits, the cap, and 10^10000 one more; both are
        # far past the 4300 digits str() converts by default
        assert (log_number(10**5000) * log_number(10**4999)).exact == 10**9999
        assert (log_number(10**5000 - 1) * log_number(10**5000 + 1)).exact == 10**10000 - 1
        assert (log_number(10**5000) * log_number(10**5000)).exact is None

    def test_product_adds_logs(self):
        c = log_number(6) * log_number(35)
        assert c.exact == 210
        assert rel_close(c.ln_value, mp.log(210), mpmath.mpf(10) ** -40)
        inexact = LogNumber(ln_value=mp.log(6)) * log_number(35)
        assert inexact.exact is None
        assert rel_close(inexact.ln_value, mp.log(210), mpmath.mpf(10) ** -14)


class TestAltThreshold:
    def test_l1_rho1_ceiling_log(self):
        res = alt_exclusion_threshold(X1, Fraction(1))
        # independent high-precision evaluation of ln(256 e^5454)
        with mp.workdps(100):
            expected = mp.log(256) + (16 * 341 * 1 - 2)
        assert rel_close(res.ceil_argument.ln_value, expected, mpmath.mpf(10) ** -30)
        assert res.term_rho.exact == 1
        assert res.threshold is res.term_factorial

    def test_l1_ceiling_exact_integer(self):
        res = alt_exclusion_threshold(X1, Fraction(1))
        arg = res.ceil_argument.exact
        assert arg is not None
        assert res.term_factorial.is_factorial_of == arg
        # the ceiling sits within one unit of 256 e^5454
        with mp.workdps(2450):
            x = 256 * mp.e**5454
            assert x < arg <= x + 1

    def test_rho_half_exact_power(self):
        res = alt_exclusion_threshold(X1, Fraction(1, 2))
        assert res.term_rho.exact == 2 ** (16 * 341)
        with mp.workdps(80):
            assert rel_close(
                res.term_rho.ln_value, 16 * 341 * mp.log(2), mpmath.mpf(10) ** -40
            )

    def test_factorial_term_dominates_for_rho_one_half(self):
        res = alt_exclusion_threshold(X1, Fraction(1, 2))
        assert res.threshold.ln_value == res.term_factorial.ln_value

    def test_tiny_rho_exact_dropped_over_digit_cap(self):
        # 2^(16*341*10^5) has ~1.6 million digits: keep the log, drop the exact
        rho = Fraction(1, 2 ** (10**5))
        res = alt_exclusion_threshold(X1, rho)
        assert res.term_rho.exact is None
        with mp.workdps(80):
            expected = 16 * 341 * (10**5) * mp.log(2)
        assert rel_close(res.term_rho.ln_value, expected, mpmath.mpf(10) ** -40)
        # ln((ceil 256 e^5454)!) ~ 6.1e2374 dwarfs any constructible rho term
        assert res.threshold.ln_value == res.term_factorial.ln_value

    def test_l2_log_space_only(self):
        res = alt_exclusion_threshold(SQUARE, Fraction(1))
        assert res.ceil_argument.exact is None
        assert res.term_factorial.is_factorial_of is None
        exponent = 16 * m_prime(2) * 2 - 2
        with mp.workdps(60):
            ln_arg = mp.log(256) + 16 * mp.log(2) + exponent
            stirling = mp.exp(ln_arg) * (ln_arg - 1)
        assert rel_close(res.term_factorial.ln_value, stirling, mpmath.mpf(10) ** -20)

    @pytest.mark.parametrize("report", [alt_exclusion_threshold, excluded_factors_report])
    def test_m_prime_past_the_digit_cap_is_refused_before_any_mpmath_work(
        self, monkeypatch, report
    ):
        # M'(113) has 1,006 digits, M'(112) 996
        assert (len(str(m_prime(112))), len(str(m_prime(113)))) == (996, 1006)
        monkeypatch.setattr(bounds, "_exact_ceiling_of_exp_product", no_work)
        monkeypatch.setattr(bounds, "_ln_fraction", no_work)
        with pytest.raises(CapExceeded, match=r"M'\(113\) has more than 1000 digits"):
            report(parse_word("x1^113"), Fraction(1, 2))

    def test_the_m_prime_cap_is_a_digit_count(self, monkeypatch):
        # M'(1) = 341 has 3 digits, M'(2) = 3257437 has 7
        monkeypatch.setattr(bounds, "M_PRIME_DIGIT_CAP", 3)
        assert alt_exclusion_threshold(X1, Fraction(1, 2)).term_rho.exact == 2 ** (16 * 341)
        with pytest.raises(CapExceeded):
            alt_exclusion_threshold(SQUARE, Fraction(1, 2))
        monkeypatch.setattr(bounds, "M_PRIME_DIGIT_CAP", 7)
        assert alt_exclusion_threshold(SQUARE, Fraction(1, 2)).ceil_argument.exact is None

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            alt_exclusion_threshold(X1, Fraction(0))
        with pytest.raises(ValueError):
            alt_exclusion_threshold(X1, Fraction(3, 2))


class TestLieThreshold:
    def test_l4_rho1(self):
        res = lie_rank_threshold(COMMUTATOR, Fraction(1))
        assert res.term_const == 28800
        assert res.term_rho == 0
        assert res.threshold == 28800

    def test_l1_rho1(self):
        res = lie_rank_threshold(X1, Fraction(1))
        assert res.term_const == 288
        assert res.threshold == 288

    def test_terms_coincide_at_crossover(self):
        const = 288
        rho = Fraction(1, 2**const)
        res = lie_rank_threshold(X1, rho)
        assert rel_close(res.term_rho, const, mpmath.mpf(10) ** -30)
        assert rel_close(res.threshold, const, mpmath.mpf(10) ** -30)

    def test_term_rho_against_independent_eval(self):
        rho = Fraction(3, 7)
        res = lie_rank_threshold(SQUARE, rho)
        with mp.workdps(100):
            expected = mp.sqrt(72 * 9 * 4 * mp.log(mp.mpf(7) / 3) / mp.log(2))
        assert rel_close(res.term_rho, expected, mpmath.mpf(10) ** -30)


class TestFiberBounds:
    def test_alt_exponent_x1(self):
        _, exponent = simple_group_bound_alt(X1)
        assert exponent == 1 - Fraction(1, 5456)

    def test_alt_exponent_commutator(self):
        _, exponent = simple_group_bound_alt(COMMUTATOR)
        m = (24**11 - 1) // 23
        assert exponent == 2 - Fraction(1, 16 * m)

    def test_alt_threshold_log(self):
        threshold, _ = simple_group_bound_alt(X1)
        with mp.workdps(80):
            expected = mp.log(256) + 16 * m_constant(1, 1) - 2
        assert rel_close(threshold.ln_value, expected, mpmath.mpf(10) ** -40)

    def test_lie_values(self):
        rank, exponent = simple_group_bound_lie(COMMUTATOR)
        assert rank == 72 * 9 * 16 == 10368
        assert exponent == 2 - Fraction(1, 3456)
        rank1, exponent1 = simple_group_bound_lie(X1)
        assert rank1 == 288
        assert exponent1 == 1 - Fraction(1, 144)

    def test_exponents_strictly_between(self):
        for w in (X1, SQUARE, COMMUTATOR, parse_word("x1 x2 x1")):
            for _, exponent in (simple_group_bound_alt(w), simple_group_bound_lie(w)):
                d = w.num_variables
                assert d - 1 < exponent < d


class TestEpsilonUpperBound:
    def test_values(self):
        assert epsilon_upper_bound(60, 1) == Fraction(59, 60)
        assert epsilon_upper_bound(60, 2) == Fraction(3599, 3600)

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            epsilon_upper_bound(59, 1)
        with pytest.raises(ValueError):
            epsilon_upper_bound(60, 0)


class TestN0Bound:
    def test_rho_one(self):
        for order in (60, 168, 660, 20160):
            assert n0_bound(SQUARE, Fraction(1), order) == 0

    def test_l2_half(self):
        got = n0_bound(SQUARE, Fraction(1, 2), 60)
        # independent high-precision oracle, nowhere near an integer here
        with mp.workdps(120):
            oracle = mpmath.floor(
                4 * mp.log(mp.mpf(1) / 2) / mp.log(mp.mpf(3599) / 3600)
            )
        assert got == int(oracle)

    def test_l1_half(self):
        got = n0_bound(X1, Fraction(1, 2), 60)
        with mp.workdps(120):
            oracle = mpmath.floor(mp.log(mp.mpf(1) / 2) / mp.log(mp.mpf(59) / 60))
        assert got == int(oracle)

    def test_exact_integer_boundary(self):
        # rho = (3599/3600)^8 makes the quotient exactly 32 for l = 2
        rho = Fraction(3599, 3600) ** 8
        assert n0_bound(SQUARE, rho, 60) == 32

    def test_monotone_in_rho(self):
        values = [
            n0_bound(SQUARE, Fraction(1, k), 60) for k in (1, 2, 10, 100, 10**6)
        ]
        assert values == sorted(values)
        assert values[0] == 0

    @pytest.mark.parametrize("l, order", [(35, 60), (40, 60), (100, 60), (30, 360)])
    def test_long_words_resolve_by_widening(self, l, order):
        # at 60 digits eps = 1 - 1/order^l encloses 1, and the quotient's
        # interval is infinite
        rho = Fraction(1, 2)
        assert n0_bound(parse_word(f"x1^{l}"), rho, order) == n0_oracle(l, rho, order)

    @pytest.mark.parametrize("l, first", [(2, 60), (12, 62), (35, 103)])
    def test_the_first_precision_follows_the_size_of_the_power(self, monkeypatch, l, first):
        # 60^12 has 22 digits, 60^35 has 63
        precisions = []
        real = bounds._resolve_interval

        def recording(interval, wanted, *args):
            precisions.append(wanted)
            return real(interval, wanted, *args)

        monkeypatch.setattr(bounds, "_resolve_interval", recording)
        assert n0_bound(parse_word(f"x1^{l}"), Fraction(1, 2), 60) == n0_oracle(
            l, Fraction(1, 2), 60)
        assert precisions[0][0] == first

    def test_powers_past_the_digit_cap_are_refused_before_interval_work(self, monkeypatch):
        # 60^5623 has 9,999 digits (l log10(60) = 9998.4), 60^5624 has 10,001
        monkeypatch.setattr(bounds, "_resolve_interval", no_work)
        with pytest.raises(CapExceeded, match="more than 10000 digits"):
            n0_bound(parse_word("x1^5624"), Fraction(1, 2), 60)
        with pytest.raises(AssertionError, match="work started"):
            n0_bound(parse_word("x1^5623"), Fraction(1, 2), 60)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            n0_bound(SQUARE, Fraction(1, 2), 12)
        with pytest.raises(ValueError):
            n0_bound(SQUARE, Fraction(2), 60)


class TestResolveInterval:
    def test_an_interval_no_precision_resolves_is_refused(self):
        with pytest.raises(CapExceeded, match="to 60 digits"):
            bounds._resolve_interval(lambda: mpmath.iv.mpf([0.5, 1.5]), (30, 60), mpmath.floor)

    def test_an_infinite_end_widens(self):
        iv = mpmath.iv

        def quotient():
            # 1 - 10^-40 is 1 below 45 digits, so the quotient is infinite
            return iv.mpf(-1) / iv.log(1 - iv.mpf(10) ** -40)

        with pytest.raises(CapExceeded):
            bounds._resolve_interval(quotient, (20, 30), mpmath.floor)
        # -1/log(1 - x) = 1/x - 1/2 - x/12 - ...
        assert bounds._resolve_interval(quotient, (20, 100), mpmath.floor) == 10**40 - 1


class TestRadicalIndexBound:
    def test_rho_one_gives_one(self):
        res = radical_index_bound(
            [(60, 120), (168, 336)], X1, Fraction(1), 10**6, Fraction(1, 100)
        )
        assert res.exact == 1 and res.ln_value == 0

    def test_single_factor_n0_one(self):
        # rho = 97/100 gives n0 = 1 for the one-letter word over order 60
        res = radical_index_bound(
            [(60, 120)], X1, Fraction(97, 100), 10**6, Fraction(1, 100)
        )
        assert res.exact == 120

    def test_product_law_in_log_space(self):
        rho = Fraction(1, 3)
        a = radical_index_bound([(60, 120)], X1, rho, 10**9, Fraction(1, 10))
        b = radical_index_bound([(168, 336)], X1, rho, 10**9, Fraction(1, 10))
        ab = radical_index_bound(
            [(60, 120), (168, 336)], X1, rho, 10**9, Fraction(1, 10)
        )
        assert rel_close(ab.ln_value, a.ln_value + b.ln_value, mpmath.mpf(10) ** -40)
        assert ab.exact == a.exact * b.exact

    def test_empty_list(self):
        res = radical_index_bound([], X1, Fraction(1, 2), 10, Fraction(1))
        assert res.exact == 1

    def test_long_word(self):
        # n0 has 76 digits, past what a 60-digit interval resolves
        res = radical_index_bound([(60, 120)], parse_word("x1^40"), Fraction(1, 2), 100,
                                  Fraction(1, 2))
        n0 = n0_oracle(40, Fraction(1, 2), 60)
        with mp.workdps(100):
            expected = n0 * mp.log(120) + mp.loggamma(n0 + 1)
        assert res.exact is None
        assert rel_close(res.ln_value, expected, mpmath.mpf(10) ** -45)

    def test_candidate_cap_enforced_exactly(self):
        # 60^1 > 1/rho for rho = 1/59, and n_zero below 60, so the entry is rejected
        with pytest.raises(ValueError):
            radical_index_bound([(60, 120)], X1, Fraction(1, 59), 10, Fraction(1))
        # boundary case 60^1 == 1/rho passes
        radical_index_bound([(60, 120)], X1, Fraction(1, 60), 10, Fraction(1))


class TestExcludedFactorsReport:
    def test_composition_x1(self):
        report = excluded_factors_report(X1, Fraction(1))
        assert report.m_value == 341 and report.m_prime_value == 341
        assert report.lie.threshold == 288
        with mp.workdps(100):
            expected = mp.log(256) + 5454
        assert rel_close(report.alt.ceil_argument.ln_value, expected, mpmath.mpf(10) ** -30)
        assert len(report.narrative) == 3

    def test_commutator_uses_printed_length_formulas(self):
        report = excluded_factors_report(COMMUTATOR, Fraction(1))
        assert report.lie.threshold == 28800  # length-based printed formula
        assert report.lie_fiber_bound[0] == 10368  # arity-based family bound
        assert report.m_prime_value == m_prime(4)
        assert report.m_value == m_constant(2, 4)


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=1),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_thresholds_monotone_in_rho(r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    alt_lo = alt_exclusion_threshold(X1, lo)
    alt_hi = alt_exclusion_threshold(X1, hi)
    assert alt_lo.threshold.ln_value >= alt_hi.threshold.ln_value
    lie_lo = lie_rank_threshold(X1, lo)
    lie_hi = lie_rank_threshold(X1, hi)
    assert lie_lo.threshold >= lie_hi.threshold
    assert n0_bound(X1, lo, 60) >= n0_bound(X1, hi, 60)

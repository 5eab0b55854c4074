"""Exact and log-space evaluation of the exclusion thresholds and constants.

Values that overflow any reasonable digit budget are carried as natural logs
with at least 50 significant digits; exact big integers are attached whenever
they stay below a 10^4-digit cap.  Floors and ceilings of irrational
quantities are resolved by interval arithmetic with widening precision, never
by rounding.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import mpmath
from mpmath import mp

from .words import ReducedWord, format_word, m_constant, m_prime

_MP_LOCK = threading.Lock()
WORKING_DPS = 60
EXACT_DIGIT_CAP = 10**4
_FACTORIAL_EXACT_CAP = 5000
_EXACT_POWER_CAP = 10**6


@dataclass(frozen=True)
class LogNumber:
    """A nonnegative quantity known by its natural log, optionally exactly."""

    ln_value: mpmath.mpf
    exact: Optional[int] = None
    is_factorial_of: Optional[int] = None

    def ln_str(self, digits: int = 50) -> str:
        return mpmath.nstr(self.ln_value, digits)

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        exact = None
        if self.exact is not None and other.exact is not None:
            product = self.exact * other.exact
            if _digit_count_at_most(product, EXACT_DIGIT_CAP):
                exact = product
        return LogNumber(ln_value=self.ln_value + other.ln_value, exact=exact)


def _digit_count_at_most(value: int, cap: int) -> bool:
    bits = abs(value).bit_length()
    if bits <= (cap - 1) * 3.321:
        return True
    if bits > cap * 3.322 + 2:
        return False
    return abs(value) < 10**cap


LOG_ONE = LogNumber(ln_value=mpmath.mpf(0), exact=1)


def _rho_ok(rho: Fraction) -> Fraction:
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return rho


def _ln_fraction(f: Fraction) -> mpmath.mpf:
    """Natural log of a positive rational at working precision (caller holds the lock)."""
    return mp.log(mp.mpf(f.numerator)) - mp.log(mp.mpf(f.denominator))


# -- the alternating-family order threshold -------------------------------------


@dataclass(frozen=True)
class AltThreshold:
    ceil_argument: LogNumber
    term_factorial: LogNumber
    term_rho: LogNumber
    threshold: LogNumber


@lru_cache(maxsize=64)
def _exact_ceiling_of_exp_product(factor: int, l_pow: int, exponent: int) -> Optional[int]:
    """Exact ceiling of factor * l_pow * e^exponent, or None above the digit cap.

    The quantity is transcendental, so the ceiling is never ambiguous; the
    interval is widened until it contains a single integer boundary.
    """
    ln10 = math.log(10.0)
    # int/float comparison is exact, so a huge exponent never meets a float
    if exponent > EXACT_DIGIT_CAP * ln10:
        return None
    digits = int((math.log(factor) + math.log(l_pow) + exponent) / ln10) + 1
    if digits > EXACT_DIGIT_CAP:
        return None
    iv = mpmath.iv
    with _MP_LOCK:
        saved = iv.dps
        try:
            for dps in (digits + 40, digits + 120, digits + 360):
                iv.dps = dps
                x = iv.mpf(factor) * iv.mpf(l_pow) * iv.exp(iv.mpf(exponent))
                with mp.workdps(dps + 10):
                    # ceil rounds to working precision, so keep it high enough
                    # to represent the integer exactly
                    lo = int(mpmath.ceil(x.a))
                    hi = int(mpmath.ceil(x.b))
                if lo == hi:
                    return lo
        finally:
            iv.dps = saved
    raise RuntimeError("interval widening failed to resolve a ceiling")


def alt_exclusion_threshold(w: ReducedWord, rho: Fraction) -> AltThreshold:
    """Order threshold excluding alternating composition factors: the larger of
    ceil(256 l^16 e^(16 M' l - 2))! and rho^(-16 M')."""
    rho = _rho_ok(rho)
    l = w.length
    if l < 1:
        raise ValueError("the word must be nonempty")
    mp_l = m_prime(l)
    exponent = 16 * mp_l * l - 2
    ceil_arg = _exact_ceiling_of_exp_product(256, l**16, exponent)
    with _MP_LOCK, mp.workdps(WORKING_DPS):
        if ceil_arg is not None:
            ln_arg = mp.log(mp.mpf(ceil_arg))
            ln_fact = mp.loggamma(mp.mpf(ceil_arg) + 1)
        else:
            ln_arg = mp.log(256) + 16 * mp.log(l) + exponent
            ln_fact = mp.loggamma(mp.exp(ln_arg) + 1)
        ceil_argument = LogNumber(
            ln_value=ln_arg,
            exact=ceil_arg if ceil_arg is not None and _digit_count_at_most(ceil_arg, EXACT_DIGIT_CAP) else None,
        )
        term_factorial = LogNumber(ln_value=ln_fact, is_factorial_of=ceil_arg)
        if rho == 1:
            term_rho = LOG_ONE
        else:
            power = 16 * mp_l
            inv = 1 / rho
            ln_rho_term = power * _ln_fraction(inv)
            exact = None
            # the cap comes first: float(power) overflows for long words
            if power <= _EXACT_POWER_CAP and float(power) * (
                math.log10(inv.numerator) - math.log10(inv.denominator)
            ) <= EXACT_DIGIT_CAP:
                as_fraction = inv**power
                if as_fraction.denominator == 1:
                    exact = as_fraction.numerator
            term_rho = LogNumber(ln_value=ln_rho_term, exact=exact)
    threshold = term_factorial if term_factorial.ln_value >= term_rho.ln_value else term_rho
    return AltThreshold(
        ceil_argument=ceil_argument,
        term_factorial=term_factorial,
        term_rho=term_rho,
        threshold=threshold,
    )


# -- the Lie-rank threshold ------------------------------------------------------


@dataclass(frozen=True)
class LieThreshold:
    term_const: int
    term_rho: mpmath.mpf
    threshold: mpmath.mpf


def lie_rank_threshold(w: ReducedWord, rho: Fraction) -> LieThreshold:
    """Untwisted-rank threshold: max of 72(l+1)^2 l^2 and the rho correction."""
    rho = _rho_ok(rho)
    l = w.length
    if l < 1:
        raise ValueError("the word must be nonempty")
    const = 72 * (l + 1) ** 2 * l**2
    with _MP_LOCK, mp.workdps(WORKING_DPS):
        if rho == 1:
            term_rho = mp.mpf(0)
        else:
            log2_inv = _ln_fraction(1 / rho) / mp.log(2)
            term_rho = mp.sqrt(const * log2_inv)
        threshold = term_rho if term_rho > const else mp.mpf(const)
    return LieThreshold(term_const=const, term_rho=term_rho, threshold=threshold)


# -- per-family fiber-proportion bounds (stated with the word's own arity) -------


def simple_group_bound_alt(w: ReducedWord) -> tuple[LogNumber, Fraction]:
    """(degree threshold 256 l^16 e^(16Md-2), fiber exponent d - 1/(16M))."""
    l, d = w.length, w.num_variables
    if l < 1:
        raise ValueError("the word must be nonempty")
    m = m_constant(d, l)
    with _MP_LOCK, mp.workdps(WORKING_DPS):
        ln_threshold = mp.log(256) + 16 * mp.log(l) + (16 * m * d - 2)
    return LogNumber(ln_value=ln_threshold), Fraction(d) - Fraction(1, 16 * m)


def simple_group_bound_lie(w: ReducedWord) -> tuple[int, Fraction]:
    """(rank threshold 72(d+1)^2 l^2, fiber exponent d - 1/(72(d+1)l^2))."""
    l, d = w.length, w.num_variables
    if l < 1:
        raise ValueError("the word must be nonempty")
    rank = 72 * (d + 1) ** 2 * l**2
    return rank, Fraction(d) - Fraction(1, 72 * (d + 1) * l**2)


# -- the solvable-radical index machinery -----------------------------------------


def epsilon_upper_bound(s_order: int, l: int) -> Fraction:
    """1 - 1/|S|^l, valid once no automorphic map on the simple group is constant."""
    if s_order < 60:
        raise ValueError("nonabelian simple groups have order at least 60")
    if l < 1:
        raise ValueError("the word length must be >= 1")
    return Fraction(s_order**l - 1, s_order**l)


def n0_bound(w: ReducedWord, rho: Fraction, s_order: int) -> int:
    """floor(l^2 log(rho) / log(eps)), resolved exactly, with
    eps = 1 - 1/|S|^l from `epsilon_upper_bound`, which checks |S| and l."""
    rho = _rho_ok(rho)
    l = w.length
    base = epsilon_upper_bound(s_order, l)
    if rho == 1:
        return 0
    ll = l * l
    iv = mpmath.iv
    with _MP_LOCK:
        saved = iv.dps
        try:
            for dps in (60, 120, 240, 480, 960, 1920, 3840):
                iv.dps = dps
                r = iv.mpf(rho.numerator) / iv.mpf(rho.denominator)
                b = iv.mpf(base.numerator) / iv.mpf(base.denominator)
                q = ll * iv.log(r) / iv.log(b)
                with mp.workdps(dps + 10):
                    lo = int(mpmath.floor(q.a))
                    hi = int(mpmath.floor(q.b))
                if lo == hi:
                    return lo
                if hi == lo + 1 and hi <= _EXACT_POWER_CAP:
                    # the quotient may be exactly the integer hi
                    if rho**ll == base**hi:
                        return hi
        finally:
            iv.dps = saved
    raise RuntimeError("interval widening failed to resolve a floor")


def radical_index_bound(
    factors: Sequence[tuple[int, int]],
    w: ReducedWord,
    rho: Fraction,
    n_zero: int,
    eta_zero: Fraction,
) -> LogNumber:
    """Product over candidate simple factors of |Aut(S)|^n0 * n0!.

    The caller supplies the (order, automorphism-group order) pairs; each
    order must lie below max(n_zero, rho^(-1/eta_zero)), which is checked
    exactly."""
    rho = _rho_ok(rho)
    eta_zero = Fraction(eta_zero)
    if eta_zero <= 0:
        raise ValueError("eta_zero must be positive")
    if n_zero < 1:
        raise ValueError("n_zero must be >= 1")
    result = LOG_ONE
    for s_order, aut_order in factors:
        if aut_order < 1:
            raise ValueError("automorphism group orders must be positive")
        if s_order > n_zero:
            # order <= rho^(-1/eta0), i.e. order^eta0 <= 1/rho, checked exactly
            p, q = eta_zero.numerator, eta_zero.denominator
            if Fraction(s_order) ** p > (1 / rho) ** q:
                raise ValueError(
                    f"candidate order {s_order} exceeds max(n_zero, rho^(-1/eta_zero))"
                )
        n0 = n0_bound(w, rho, s_order)
        if n0 == 0:
            continue
        power_exact = None
        if n0 * math.log10(aut_order) <= EXACT_DIGIT_CAP:
            power_exact = aut_order**n0
        fact_exact = None
        if n0 <= _FACTORIAL_EXACT_CAP:
            fact = math.factorial(n0)
            if _digit_count_at_most(fact, EXACT_DIGIT_CAP):
                fact_exact = fact
        with _MP_LOCK, mp.workdps(WORKING_DPS):
            ln_factor = n0 * mp.log(mp.mpf(aut_order)) + mp.loggamma(mp.mpf(n0) + 1)
        exact = None
        if power_exact is not None and fact_exact is not None:
            product = power_exact * fact_exact
            if _digit_count_at_most(product, EXACT_DIGIT_CAP):
                exact = product
        result = result * LogNumber(ln_value=ln_factor, exact=exact)
    return result


# -- assembled report --------------------------------------------------------------


SPORADIC_NOTE = (
    "sporadic groups are never excluded by these thresholds; only finitely "
    "many alternating groups and all classical Lie type groups of bounded "
    "untwisted rank remain"
)


@dataclass
class ExclusionReport:
    word: str
    length: int
    arity: int
    rho: Fraction
    m_value: int
    m_prime_value: int
    alt: AltThreshold
    lie: LieThreshold
    alt_fiber_bound: tuple[LogNumber, Fraction]
    lie_fiber_bound: tuple[int, Fraction]
    narrative: list[str]


def excluded_factors_report(w: ReducedWord, rho: Fraction) -> ExclusionReport:
    """Assemble both exclusion thresholds plus the per-family fiber bounds.

    The order/rank thresholds are printed with the word length everywhere; the
    per-family fiber bounds use the word's own variable count, which is the
    sharper statement once variations collapse the arity."""
    rho = _rho_ok(rho)
    l, d = w.length, w.num_variables
    alt = alt_exclusion_threshold(w, rho)
    lie = lie_rank_threshold(w, rho)
    narrative = [
        "alternating groups of order above the threshold (natural log "
        f"{alt.threshold.ln_str(30)}) cannot be composition factors",
        "classical Lie type groups of untwisted rank above "
        f"{mpmath.nstr(lie.threshold, 30)} cannot be composition factors",
        SPORADIC_NOTE,
    ]
    return ExclusionReport(
        word=format_word(w),
        length=l,
        arity=d,
        rho=rho,
        m_value=m_constant(d, l),
        m_prime_value=m_prime(l),
        alt=alt,
        lie=lie,
        alt_fiber_bound=simple_group_bound_alt(w),
        lie_fiber_bound=simple_group_bound_lie(w),
        narrative=narrative,
    )

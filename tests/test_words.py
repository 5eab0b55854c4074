import pytest
from hypothesis import given, settings, strategies as st

from wordfibers.errors import EmptyWordError, WordSyntaxError
from wordfibers.words import (
    Letter,
    ReducedWord,
    VariationWord,
    VarLetter,
    _require_nonempty,
    format_word,
    free_reduce,
    m_constant,
    m_prime,
    parse_word,
    variation_count,
    variations,
)


def W(*pairs):
    return ReducedWord(tuple(Letter(v, s) for v, s in pairs))


EMPTY_WORD = ReducedWord(())


# oracle: a variation keeps each letter's variable and sign, and gives it a
# copy index from 1 to its variable's occurrence count
def is_variation(candidate, w):
    counts = w.occurrence_counts
    return candidate.length == w.length and all(
        got.var == want.var and got.sign == want.sign and 1 <= got.copy <= counts[want.var]
        for got, want in zip(candidate.letters, w.letters)
    )


# oracle: dropping the copy indices of a variation gives back its word
def project_variation(v):
    return free_reduce(Letter(l.var, l.sign) for l in v.letters)


COMMUTATOR = W((1, 1), (2, 1), (1, -1), (2, -1))
SQUARE = W((1, 1), (1, 1))


# independent oracle: sum the geometric series by iterated addition
def series_sum_oracle(d, l):
    b = 2 * l * (d + 1)
    total = 0
    power = 1
    for _ in range(2 * l + 3):
        total += power
        power *= b
    return total


class TestParse:
    def test_commutator_plain(self):
        w = parse_word("x1 x2 x1^-1 x2^-1")
        assert w == COMMUTATOR
        assert w.length == 4 and w.num_variables == 2

    def test_bracket_sugar(self):
        assert parse_word("[x1,x2]") == parse_word("x1 x2 x1^-1 x2^-1")

    def test_reduction_and_renaming(self):
        w = parse_word("x1 x1^-1 x2")
        assert w == W((1, 1))
        assert w.length == 1 and w.num_variables == 1

    def test_star_separator_and_exponent(self):
        assert parse_word("x1*x1") == SQUARE
        assert parse_word("x1^2") == SQUARE
        assert parse_word("x1^-2") == W((1, -1), (1, -1))

    def test_nested_brackets(self):
        w = parse_word("[[x1,x2],x3]")
        inner = [(1, 1), (2, 1), (1, -1), (2, -1)]
        expect = inner + [(3, 1)] + [(v, -s) for v, s in reversed(inner)] + [(3, -1)]
        assert w == W(*expect)

    @pytest.mark.parametrize(
        "bad", ["y1", "x", "x0", "x1^0", "x1^", "[x1 x2]", "[x1,x2", "x1]", "x1,"]
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)

    def test_error_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("x1 x2 y3")
        assert err.value.position == 6

    def test_empty_after_reduction(self):
        assert parse_word("x1 x1^-1") == EMPTY_WORD
        with pytest.raises(EmptyWordError, match="word 'x1 x1\\^-1' reduces to the empty word"):
            _require_nonempty(parse_word("x1 x1^-1"), "x1 x1^-1")

    def test_format_examples(self):
        assert format_word(COMMUTATOR) == "x1 x2 x1^-1 x2^-1"
        assert format_word(SQUARE) == "x1 x1"


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce([Letter(1, 1), Letter(1, -1)]) == EMPTY_WORD

    def test_inner_cancellation(self):
        got = free_reduce([Letter(1, 1), Letter(2, 1), Letter(2, -1), Letter(1, 1)])
        assert got == SQUARE

    def test_idempotent_on_reduced(self):
        for w in (COMMUTATOR, SQUARE, W((3, 1), (1, -1))):
            assert free_reduce(w.letters) == w

    def test_rejects_unreduced_constructor(self):
        with pytest.raises(ValueError):
            ReducedWord((Letter(1, 1), Letter(1, -1)))


letters_strategy = st.lists(
    st.builds(Letter, st.integers(1, 4), st.sampled_from([1, -1])), max_size=24
)


@given(letters_strategy)
def test_free_reduce_idempotent_and_no_cancelling_pair(letters):
    once = free_reduce(letters)
    assert free_reduce(once.letters) == once
    assert once.length <= len(letters)
    for a, b in zip(once.letters, once.letters[1:]):
        assert not (a.var == b.var and a.sign == -b.sign)


@st.composite
def reduced_words(draw, max_len=20, max_var=5):
    length = draw(st.integers(0, max_len))
    letters = []
    for _ in range(length):
        while True:
            let = Letter(draw(st.integers(1, max_var)), draw(st.sampled_from([1, -1])))
            if not letters or not (
                letters[-1].var == let.var and letters[-1].sign == -let.sign
            ):
                break
        letters.append(let)
    return ReducedWord(tuple(letters)).normalized()


@given(reduced_words())
@settings(max_examples=200)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


class TestMConstant:
    def test_small_value(self):
        assert m_constant(1, 1) == 341
        assert series_sum_oracle(1, 1) == 341

    def test_closed_form_example(self):
        assert m_constant(2, 4) == (24**11 - 1) // 23

    def test_closed_form_matches_series_everywhere(self):
        for d in range(1, 7):
            for l in range(1, 7):
                assert m_constant(d, l) == series_sum_oracle(d, l)

    def test_m_prime(self):
        assert m_prime(1) == m_constant(1, 1)
        assert m_prime(3) == m_constant(3, 3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            m_constant(0, 1)
        with pytest.raises(ValueError):
            m_constant(1, 0)


def VW(*triples):
    return VariationWord(tuple(VarLetter(v, t, s) for v, t, s in triples))


class TestVariations:
    def test_commutator_count_and_membership(self):
        vs = list(variations(COMMUTATOR))
        assert len(vs) == 16
        assert variation_count(COMMUTATOR) == 16
        special = VW((1, 2, 1), (2, 1, 1), (1, 1, -1), (2, 1, -1))
        assert special in vs

    def test_single_letter(self):
        vs = list(variations(W((1, 1))))
        assert vs == [VW((1, 1, 1))]
        assert variation_count(W((1, 1))) == 1

    def test_square_enumeration(self):
        vs = list(variations(SQUARE))
        assert len(vs) == 4 == variation_count(SQUARE)
        tuples = [tuple(l.copy for l in v.letters) for v in vs]
        assert tuples == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_cube_count_via_enumeration(self):
        cube = W((1, 1), (1, 1), (1, 1))
        assert len(list(variations(cube))) == 27 == variation_count(cube)

    def test_all_distinct_variables_count_one(self):
        w = W((1, 1), (2, 1), (3, 1))
        assert variation_count(w) == 1

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWordError):
            variation_count(EMPTY_WORD)
        with pytest.raises(EmptyWordError):
            next(variations(EMPTY_WORD))

    def test_lexicographic_order_and_uniqueness(self):
        for w in (COMMUTATOR, SQUARE, W((1, 1), (2, 1), (1, 1))):
            seen = []
            for v in variations(w):
                seen.append(tuple(l.copy for l in v.letters))
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen) == variation_count(w)

    def test_small_words_stream_matches_count(self):
        # every normalized reduced word with length <= 5 and <= 3 occurrences
        # per variable: the stream is duplicate-free and matches the count
        def normalized_words(max_len):
            def extend(letters, used):
                yield tuple(letters)
                if len(letters) == max_len:
                    return
                for var in range(1, used + 2):
                    for sign in (1, -1):
                        let = Letter(var, sign)
                        if letters and (
                            letters[-1].var == var and letters[-1].sign == -sign
                        ):
                            continue
                        letters.append(let)
                        yield from extend(letters, max(used, var))
                        letters.pop()

            yield from extend([], 0)

        checked = 0
        for letters in normalized_words(5):
            if not letters:
                continue
            w = ReducedWord(letters)
            if any(a > 3 for a in w.occurrence_counts.values()):
                continue
            flat = [v.letters for v in variations(w)]
            assert len(set(flat)) == len(flat) == variation_count(w)
            checked += 1
        assert checked > 1000

    def test_flattened_reduced_and_same_length(self):
        for w in (COMMUTATOR, SQUARE, W((1, 1), (2, 1), (1, 1))):
            for v in variations(w):
                assert v.flattened.length == w.length
                assert free_reduce(v.flattened.letters) == v.flattened
                assert v.flattened.is_normalized


class TestIsVariation:
    def test_positive_instance(self):
        cand = VW((1, 2, 1), (2, 1, 1), (1, 1, -1), (2, 1, -1))
        assert is_variation(cand, COMMUTATOR)

    def test_copy_index_out_of_range(self):
        cand = VW((1, 3, 1), (2, 1, 1), (1, 2, -1), (2, 2, -1))
        assert not is_variation(cand, COMMUTATOR)

    def test_all_ones(self):
        cand = VW(*((l.var, 1, l.sign) for l in COMMUTATOR.letters))
        assert is_variation(cand, COMMUTATOR)

    def test_sign_mismatch(self):
        cand = VW((1, 1, -1), (2, 1, 1), (1, 1, -1), (2, 1, -1))
        assert not is_variation(cand, COMMUTATOR)

    def test_every_enumerated_variation_validates(self):
        for w in (COMMUTATOR, SQUARE):
            for v in variations(w):
                assert is_variation(v, w)


class TestProjectVariation:
    def test_example_projection(self):
        v = VW((1, 2, 1), (2, 1, 1), (1, 1, -1), (2, 1, -1))
        assert project_variation(v) == COMMUTATOR

    def test_single_letter(self):
        assert project_variation(VW((1, 1, 1))) == W((1, 1))

    def test_roundtrip_over_battery_words(self):
        for w in (SQUARE, COMMUTATOR, W((1, 1), (2, 1), (1, 1))):
            for v in variations(w):
                assert project_variation(v) == w


def test_normalized_first_occurrence_order():
    w = free_reduce([Letter(7, 1), Letter(3, -1), Letter(7, 1)]).normalized()
    assert w == W((1, 1), (2, -1), (1, 1))
    assert w.is_normalized

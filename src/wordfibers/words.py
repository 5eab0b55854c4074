"""Freely reduced words, their occurrence statistics, and variation words.

Words are sequences of signed variable letters x_k^{+1} / x_k^{-1}.  A word in
canonical (normalized) form uses variable indices exactly 1..d in order of
first occurrence, which makes word equality plain sequence equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import EmptyWordError, WordSyntaxError


@dataclass(frozen=True)
class Letter:
    """One factor x_var^sign; sign is +1 or -1."""

    var: int
    sign: int

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Letter":
        return Letter(self.var, -self.sign)


def _cancels(a: Letter, b: Letter) -> bool:
    return a.var == b.var and a.sign == -b.sign


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word; may use arbitrary positive variable indices.

    Use :func:`free_reduce` or :func:`parse_word` to build instances from raw
    letter sequences.  Construction rejects sequences containing an adjacent
    cancelling pair.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if _cancels(a, b):
                raise ValueError(f"not freely reduced: {a} followed by {b}")

    @property
    def length(self) -> int:
        return len(self.letters)

    @cached_property
    def variables(self) -> tuple[int, ...]:
        """Distinct variable indices, ascending."""
        return tuple(sorted({let.var for let in self.letters}))

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @cached_property
    def occurrence_counts(self) -> dict[int, int]:
        """Number of occurrences of each variable (either sign)."""
        counts: dict[int, int] = {}
        for let in self.letters:
            counts[let.var] = counts.get(let.var, 0) + 1
        return counts

    @property
    def is_normalized(self) -> bool:
        return self.variables == tuple(range(1, self.num_variables + 1)) and (
            self._first_occurrence_order() == list(range(1, self.num_variables + 1))
        )

    def _first_occurrence_order(self) -> list[int]:
        seen: list[int] = []
        for let in self.letters:
            if let.var not in seen:
                seen.append(let.var)
        return seen

    def normalized(self) -> "ReducedWord":
        """Rename variables to 1..d in order of first occurrence."""
        rename = {v: i + 1 for i, v in enumerate(self._first_occurrence_order())}
        return ReducedWord(tuple(Letter(rename[l.var], l.sign) for l in self.letters))

    def __str__(self) -> str:
        return format_word(self)


def free_reduce(letters: Iterable[Letter]) -> ReducedWord:
    """Cancel adjacent inverse pairs until none remain.

    The result is the unique freely reduced form of the input; variable
    indices are kept as-is (no renaming).
    """
    stack: list[Letter] = []
    for let in letters:
        if stack and _cancels(stack[-1], let):
            stack.pop()
        else:
            stack.append(let)
    return ReducedWord(tuple(stack))


def format_word(w: ReducedWord) -> str:
    """Canonical text form: space-separated x<k> / x<k>^-1."""
    return " ".join(
        f"x{l.var}" if l.sign == 1 else f"x{l.var}^-1" for l in w.letters
    )


# Word expression tokenizer/parser.  Tokens are separated by whitespace or
# '*'; a variable token is x<positive decimal> optionally followed by
# ^<nonzero signed decimal>; '[E1,E2]' expands to E1 E2 E1^-1 E2^-1.

_PUNCT = {"[", "]", ","}


def _tokenize(text: str) -> list[tuple[str, int, object]]:
    tokens: list[tuple[str, int, object]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, i, None))
            i += 1
            continue
        if ch == "x":
            start = i
            i += 1
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise WordSyntaxError("expected variable number after 'x'", start)
            var = int(text[i:j])
            if var < 1:
                raise WordSyntaxError("variable number must be positive", start)
            i = j
            exp = 1
            if i < n and text[i] == "^":
                i += 1
                k = i
                if k < n and text[k] == "-":
                    k += 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == i or text[i:k] == "-":
                    raise WordSyntaxError("expected exponent after '^'", i - 1)
                exp = int(text[i:k])
                if exp == 0:
                    raise WordSyntaxError("exponent must be nonzero", i)
                i = k
            tokens.append(("var", start, (var, exp)))
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_sequence(tokens, pos: int, depth: int) -> tuple[list[Letter], int]:
    letters: list[Letter] = []
    while pos < len(tokens):
        kind, where, payload = tokens[pos]
        if kind == "var":
            var, exp = payload
            sign = 1 if exp > 0 else -1
            letters.extend(Letter(var, sign) for _ in range(abs(exp)))
            pos += 1
        elif kind == "[":
            left, pos = _parse_sequence(tokens, pos + 1, depth + 1)
            if pos >= len(tokens) or tokens[pos][0] != ",":
                raise WordSyntaxError("expected ',' in bracket", where)
            right, pos = _parse_sequence(tokens, pos + 1, depth + 1)
            if pos >= len(tokens) or tokens[pos][0] != "]":
                raise WordSyntaxError("expected ']'", where)
            pos += 1
            inv = lambda seq: [l.inverse() for l in reversed(seq)]
            letters.extend(left + right + inv(left) + inv(right))
        elif kind in (",", "]"):
            if depth == 0:
                raise WordSyntaxError(f"unexpected {kind!r}", where)
            return letters, pos
        else:  # pragma: no cover
            raise WordSyntaxError(f"unexpected token {kind!r}", where)
    if depth > 0:
        raise WordSyntaxError("unterminated bracket", tokens[-1][1] if tokens else 0)
    return letters, pos


def parse_word(text: str, require_nonempty: bool = False) -> ReducedWord:
    """Parse a word expression, free-reduce it, and normalize variable names."""
    tokens = _tokenize(text)
    letters, _ = _parse_sequence(tokens, 0, 0)
    word = free_reduce(letters).normalized()
    if require_nonempty and word.length == 0:
        raise EmptyWordError(f"word {text!r} reduces to the empty word")
    return word


def m_constant(d: int, l: int) -> int:
    """Geometric-series constant 1 + b + ... + b^(2l+2) with b = 2l(d+1)."""
    if d < 1 or l < 1:
        raise ValueError("d and l must be >= 1")
    b = 2 * l * (d + 1)
    return (b ** (2 * l + 3) - 1) // (b - 1)


def m_prime(l: int) -> int:
    return m_constant(l, l)


@dataclass(frozen=True)
class VarLetter:
    """A doubly-indexed letter x_{var,copy}^sign."""

    var: int
    copy: int
    sign: int

    def __post_init__(self):
        if self.var < 1 or self.copy < 1:
            raise ValueError("indices must be >= 1")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class VariationWord:
    """A word over doubly-indexed variables, kept with its flat single-index form.

    ``flattened`` renames each distinct pair (var, copy) to a fresh index
    1, 2, ... in order of first occurrence, which is the form downstream fiber
    code evaluates.
    """

    letters: tuple[VarLetter, ...]

    def __post_init__(self):
        self.flattened  # force the freely-reduced check

    @property
    def length(self) -> int:
        return len(self.letters)

    @cached_property
    def pair_to_flat(self) -> dict[tuple[int, int], int]:
        mapping: dict[tuple[int, int], int] = {}
        for let in self.letters:
            key = (let.var, let.copy)
            if key not in mapping:
                mapping[key] = len(mapping) + 1
        return mapping

    @cached_property
    def flattened(self) -> ReducedWord:
        mapping = self.pair_to_flat
        return ReducedWord(
            tuple(Letter(mapping[(l.var, l.copy)], l.sign) for l in self.letters)
        )


def variations(w: ReducedWord) -> Iterator[VariationWord]:
    """All copy-index assignments of ``w``, in lexicographic order of the index tuple."""
    if w.length < 1:
        raise EmptyWordError("variations require a nonempty word")
    counts = w.occurrence_counts
    ranges = [range(1, counts[let.var] + 1) for let in w.letters]
    for assignment in itertools.product(*ranges):
        yield VariationWord(
            tuple(
                VarLetter(let.var, t, let.sign)
                for let, t in zip(w.letters, assignment)
            )
        )


def variation_count(w: ReducedWord) -> int:
    """Number of variations: product over variables of a_k^a_k."""
    if w.length < 1:
        raise EmptyWordError("variation_count requires a nonempty word")
    result = 1
    for a in w.occurrence_counts.values():
        result *= a**a
    return result

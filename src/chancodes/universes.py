"""Sampling universes: constraint trellises used to restrict generated words
(all words of a length, overlap-free words, fixed-suffix words) plus the
word-level predicate behind them."""

from __future__ import annotations

from typing import Iterable

from .automata import Alphabet, Trellis, Word, _chain_trellis, \
    trellis_from_words
from .errors import ParameterError

MAX_ENUMERATED_LENGTH = 20


def is_overlap_free(word: "str | Iterable[str]") -> bool:
    """True when no proper non-empty prefix of the word is also its suffix."""
    w = tuple(word)
    return not any(w[:k] == w[len(w) - k :] for k in range(1, len(w)))


def overlap_free_words(alphabet: Alphabet, length: int) -> list[Word]:
    if length > MAX_ENUMERATED_LENGTH:
        raise ParameterError(
            f"overlap-free enumeration capped at length {MAX_ENUMERATED_LENGTH}"
        )
    return [w for w in alphabet.words_of_length(length) if is_overlap_free(w)]


def overlap_free_trellis(alphabet: Alphabet, length: int) -> Trellis:
    return trellis_from_words(overlap_free_words(alphabet, length), alphabet,
                              length=length)


def suffix_universe(alphabet: Alphabet, length: int,
                    pattern: "str | Iterable[str]") -> Trellis:
    """All words of the given length that end with ``pattern``."""
    p = alphabet.word(pattern)
    if len(p) > length:
        raise ParameterError("suffix pattern longer than the block length")
    return _chain_trellis(alphabet, length, p)

"""Error channels: parametric constructors for the built-in channel zoo and a
parser/serializer for user-supplied channels.

A channel is an input-preserving transducer: whatever errors it may introduce,
transmitting a word unchanged is always possible.  Constructors here build the
transducer in standard form; ``parse_channel`` additionally runs a bounded
input-preservation check and warns (without failing) when it does not hold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .automata import Alphabet, BINARY, Word
from .errors import ParameterError
from .transducers import Transducer

DEFAULT_CHECK_LENGTH = 4


@dataclass(frozen=True)
class Channel:
    """A named error specification: a name and its transducer."""

    name: str
    transducer: Transducer

    @property
    def alphabet(self) -> Alphabet:
        return self.transducer.alphabet

    def image_set(self, word, max_len: int) -> set[Word]:
        """The outputs for ``word`` of length <= max_len."""
        return self.transducer.image(word).words_up_to(max_len)

    def union(self, other: "Channel") -> "Channel":
        return Channel(
            f"{self.name}|{other.name}",
            self.transducer.union(other.transducer),
        )

    def self_union_inverse(self) -> Transducer:
        """sigma | sigma^-1 for the add-word test, in standard form and
        reduced by ``Transducer.quotient``; the same relation."""
        return self.transducer.union(
            self.transducer.inverse()).standard_form().quotient()


def _error_chain(k: int, alphabet: Alphabet, error_edges) -> Transducer:
    """k+1 chained states with identity loops everywhere; ``error_edges()``
    yields the label pairs that advance the error counter one step."""
    if k < 0:
        raise ParameterError("error count k must be >= 0")
    transitions: list[tuple[int, Word, Word, int]] = []
    for i in range(k + 1):
        for a in alphabet:
            transitions.append((i, (a,), (a,), i))
    for i in range(k):
        for inp, out in error_edges():
            transitions.append((i, inp, out, i + 1))
    return Transducer(
        alphabet,
        k + 1,
        frozenset({0}),
        frozenset(range(k + 1)),
        tuple(transitions),
    )


def make_sub(k: int, alphabet: Alphabet = BINARY) -> Channel:
    """Up to k substitutions: each error step rewrites one symbol to another."""

    def edges():
        for a in alphabet:
            for b in alphabet:
                if a != b:
                    yield (a,), (b,)

    return Channel(f"sub:{k}", _error_chain(k, alphabet, edges))


def make_id(k: int, alphabet: Alphabet = BINARY) -> Channel:
    """Up to k synchronization errors, each one insertion or one deletion."""

    def edges():
        for a in alphabet:
            yield (a,), ()   # deletion
            yield (), (a,)   # insertion

    return Channel(f"id:{k}", _error_chain(k, alphabet, edges))


def make_del1_insend(alphabet: Alphabet = BINARY) -> Channel:
    """Either no error, or delete exactly one symbol and then append one
    symbol at the end (so the output keeps the input's length)."""
    transitions: list[tuple[int, Word, Word, int]] = []
    for a in alphabet:
        transitions.append((0, (a,), (a,), 0))
        transitions.append((0, (a,), (), 1))   # the deletion
        transitions.append((1, (a,), (a,), 1))
        transitions.append((1, (), (a,), 2))   # trailing insertion
    t = Transducer(alphabet, 3, frozenset({0}), frozenset({0, 2}),
                   tuple(transitions))
    return Channel("del1", t)


def make_ins1_delend(alphabet: Alphabet = BINARY) -> Channel:
    """Mirror image of del1: insert one symbol, then drop the last symbol."""
    return Channel("ins1", make_del1_insend(alphabet).transducer.inverse())


def make_bsid(k: int = 2, alphabet: Alphabet = BINARY) -> Channel:
    """Up to k errors, each a deletion, an insertion, or a bit shift
    (an adjacent "01" becomes "10" or vice versa).  Binary alphabet only."""
    if tuple(alphabet.symbols) != ("0", "1"):
        raise ParameterError("bit-shift channel requires the binary alphabet")

    def edges():
        for a in alphabet:
            yield (a,), ()   # deletion
            yield (), (a,)   # insertion
        yield ("0", "1"), ("1", "0")  # bit shifts; standard_form splits
        yield ("1", "0"), ("0", "1")  # each through one fresh state

    return Channel(f"bsid{k}",
                   _error_chain(k, alphabet, edges).standard_form())


def make_segd(b: int, alphabet: Alphabet = BINARY) -> Channel:
    """Segmented deletions: the input length is a multiple of b, and each
    consecutive length-b segment loses at most one symbol.

    Two parallel b-step laps (clean lap s_1.., one-deletion lap t_1..) meet in
    the segment-boundary states, which are the only final states; that topology
    itself enforces the length-multiple-of-b domain.
    """
    if b < 2:
        raise ParameterError("segment length b must be >= 2")
    # state layout: 0 = start; clean lap s_1..s_{b-1}; deleted lap t_1..t_{b-1};
    # boundary states f0 (clean segment end) and f1 (deleted segment end)
    s = {i: i for i in range(1, b)}          # s_i
    t = {i: b - 1 + i for i in range(1, b)}  # t_i
    f0 = 2 * b - 1
    f1 = 2 * b
    start = 0
    transitions: list[tuple[int, Word, Word, int]] = []

    def seg_edges(origin: int):
        for a in alphabet:
            transitions.append((origin, (a,), (a,), s[1]))
            transitions.append((origin, (a,), (), t[1]))

    for origin in (start, f0, f1):
        seg_edges(origin)
    for i in range(1, b - 1):
        for a in alphabet:
            transitions.append((s[i], (a,), (a,), s[i + 1]))
            transitions.append((s[i], (a,), (), t[i + 1]))
            transitions.append((t[i], (a,), (a,), t[i + 1]))
    for a in alphabet:
        transitions.append((s[b - 1], (a,), (a,), f0))
        transitions.append((s[b - 1], (a,), (), f0))
        transitions.append((t[b - 1], (a,), (a,), f1))
    trans = Transducer(
        alphabet, 2 * b + 1, frozenset({start}), frozenset({f0, f1}),
        tuple(transitions),
    )
    return Channel(f"segd:{b}", trans)


def make_overlap(alphabet: Alphabet = BINARY) -> Channel:
    """Deletes a (possibly empty) prefix of the input, keeps at least one
    symbol, then inserts a (possibly empty) suffix at the end."""
    transitions: list[tuple[int, Word, Word, int]] = []
    for a in alphabet:
        transitions.append((0, (a,), (), 0))   # drop prefix symbols
        transitions.append((0, (a,), (a,), 1))  # first kept symbol
        transitions.append((1, (a,), (a,), 1))  # copy the rest
        transitions.append((1, (), (a,), 2))   # start appending
        transitions.append((2, (), (a,), 2))   # keep appending
    t = Transducer(alphabet, 3, frozenset({0}), frozenset({1, 2}),
                   tuple(transitions))
    return Channel("ov", t)


# -- registry -------------------------------------------------------------------

_REGISTRY_HELP = {
    "sub:k": "up to k substitutions",
    "id:k": "up to k insertions/deletions",
    "del1": "delete one symbol, then append one at the end",
    "ins1": "insert one symbol, then drop the last one",
    "bsid2": "up to 2 errors: deletion, insertion, or adjacent bit shift",
    "segd:b": "at most one deletion per length-b segment",
    "ov": "drop a prefix, append a suffix (overlap channel)",
}


def registry_names() -> dict[str, str]:
    return dict(_REGISTRY_HELP)


def channel_from_spec(spec: str, alphabet: Alphabet = BINARY) -> Channel:
    """Build a zoo channel from its registry name, e.g. ``sub:2`` or ``ov``."""
    head, _, arg = spec.partition(":")
    try:
        if head == "sub":
            return make_sub(int(arg), alphabet)
        if head == "id":
            return make_id(int(arg), alphabet)
        if spec == "del1":
            return make_del1_insend(alphabet)
        if spec == "ins1":
            return make_ins1_delend(alphabet)
        if spec == "bsid2":
            return make_bsid(2, alphabet)
        if head == "segd":
            return make_segd(int(arg), alphabet)
        if spec == "ov":
            return make_overlap(alphabet)
    except ValueError as exc:
        raise ParameterError(f"bad channel parameter in {spec!r}: {exc}") from exc
    raise ParameterError(f"unknown channel {spec!r}")


# -- text format ------------------------------------------------------------------


def parse_channel(
    text: str,
    alphabet: "Alphabet | None" = None,
    name: str = "user",
) -> Channel:
    """Parse a transducer description into a channel.

    Runs the bounded input-preservation check up to ``DEFAULT_CHECK_LENGTH``
    and warns (does not fail) when some word cannot pass through unchanged.
    """
    t = Transducer.from_text(text, alphabet)
    if not t.is_input_preserving(DEFAULT_CHECK_LENGTH):
        warnings.warn(
            f"channel {name!r} is not input-preserving on words up to "
            f"length {DEFAULT_CHECK_LENGTH}",
            stacklevel=2,
        )
    return Channel(name, t)


def serialize_channel(channel: Channel) -> str:
    return channel.transducer.to_text()

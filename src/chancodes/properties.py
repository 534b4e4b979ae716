"""Exact decision procedures for block codes against a channel:
error-detection and error-correction with concrete witnesses, a deterministic
non-maximality witness, and the exact maximality index.

The detection test runs on the three-way product (code as input language,
channel, code as output language) and searches it for an accepted path whose
input and output words differ.  Equality cannot be tracked symbol-by-symbol
when the two sides are desynchronized by insertions/deletions, so each product
state carries the *overhang*: the word by which one side is ahead of the
other.  A state on some accepted path with two distinct overhangs or an
overhang/step mismatch pins down a violating pair, and if neither occurs
every accepted pair is an identity pair: all codewords have one length, so
at a final state neither side is ahead.

The code enters the product as its minimal trellis, whose numbering is fixed
by the code's words, so a witness depends only on the word set and the
channel, never on how the code's trellis was built.  One forward search
carries the overhangs; every codeword has the block length, so it enters a
triple only when the channel can still read and write the rest of two
codewords (a per-state table of (input, output) counts on paths to a final
state).  Whether a triple lies on an accepted path is asked only at a
conflict, by a forward search from it that either completes the witness or
marks every triple it met as dead.

Exact maximality runs the subset construction of the exclusion automaton
(channel | channel^-1)(C) inside the universe trellis (``Dfa.minus``,
``Dfa.intersect``), so only words of the block length are ever
determinized, and a state of the exclusion automaton stays in a subset only
while it can still end a word of the block length.  The channel enters
reduced by ``Transducer.quotient``, which keeps one copy of a symmetric
channel (sub:2, id:2: 6 -> 3 states), so the automaton and its sets halve.
The addable witness is the least word of universe - C - exclusion; the
index counts universe & exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import Nfa, Trellis, Word, format_word, \
    length_masks, universe_trellis
from .channels import Channel
from .errors import AlphabetMismatchError, NotDetectingError, ParameterError
from .transducers import Transducer, product

NONE_KIND = "none"
DETECT_KIND = "detect-violation"
CORRECT_KIND = "correct-violation"
ADDABLE_KIND = "addable"


@dataclass(frozen=True)
class Witness:
    kind: str
    u: Optional[Word] = None
    v: Optional[Word] = None
    z: Optional[Word] = None
    w: Optional[Word] = None

    @classmethod
    def none(cls) -> "Witness":
        return cls(NONE_KIND)

    @classmethod
    def detection(cls, u: Word, v: Word) -> "Witness":
        return cls(DETECT_KIND, u=u, v=v)

    @classmethod
    def correction(cls, u: Word, v: Word, z: Word) -> "Witness":
        return cls(CORRECT_KIND, u=u, v=v, z=z)

    @classmethod
    def addable(cls, w: Word) -> "Witness":
        return cls(ADDABLE_KIND, w=w)

    def __bool__(self) -> bool:
        """True when something was found (violation or addable word)."""
        return self.kind != NONE_KIND

    def __str__(self) -> str:
        if self.kind == NONE_KIND:
            return "NONE"
        if self.kind == DETECT_KIND:
            return f"DETECT-VIOLATION {format_word(self.u)} {format_word(self.v)}"
        if self.kind == CORRECT_KIND:
            return (
                f"CORRECT-VIOLATION {format_word(self.u)} {format_word(self.v)}"
                f" via {format_word(self.z)}"
            )
        return f"ADDABLE {format_word(self.w)}"


# -- three-way product with overhang tracking -------------------------------------

_SYNCED = ((), ())


def _feasible(t: Transducer, ell: int) -> tuple[bytes, ...]:
    """Per state q of ``t`` (standard form), a table with a nonzero entry at
    ``i * (ell + 2) + o`` when some path from q to a final state reads i
    and writes o symbols, for i, o <= ell.  Column ell + 1 is a guard that
    keeps a count past ell out of the next row."""
    stride = ell + 2
    valid = sum(((1 << ell + 1) - 1) << i * stride for i in range(ell + 1))
    masks = length_masks(
        t.num_states, t.final,
        ((s, len(i) * stride + len(o), d) for s, i, o, d in t.transitions),
        valid)
    size = (ell + 1) * stride
    return tuple(bytes(m >> k & 1 for k in range(size)) for m in masks)


def _advance(delay: tuple[Word, Word], x: Optional[str], y: Optional[str]):
    """The overhang after reading x on the input side and y on the output
    side, or None when the two sides disagree at an aligned position."""
    pin, pout = delay
    if x is not None:
        pin = pin + (x,)
    if y is not None:
        pout = pout + (y,)
    while pin and pout:
        if pin[0] != pout[0]:
            return None
        pin = pin[1:]
        pout = pout[1:]
    return (pin, pout)


def _labels(links: dict, triple) -> list:
    """The (x, y) labels of the path that ``links`` (triple -> (predecessor,
    x, y)) records back to a triple without a link, in path order."""
    labels = []
    while triple in links:
        triple, x, y = links[triple]
        labels.append((x, y))
    labels.reverse()
    return labels


def _words(labels: list) -> tuple[Word, Word]:
    return (tuple(x for x, _ in labels if x is not None),
            tuple(y for _, y in labels if y is not None))


def _completion(triple, successors, accepting: set, dead: set):
    """The (x, y) labels of a shortest path from ``triple`` to a triple in
    ``accepting``, walking ``successors`` (which skip ``dead``), or None
    when there is none: then every triple visited is dead and joins
    ``dead``."""
    links = {}
    queue = [triple]
    for s in queue:
        if s in accepting:
            return _labels(links, s)
        for x, y, d in successors(s):
            if d != triple and d not in links:
                links[d] = (s, x, y)
                queue.append(d)
    dead.update(queue)
    return None


def _identity_violation(code: Trellis, sigma: Transducer):
    """Search minimal x sigma x minimal for an accepted pair (u, v), u != v.

    Returns None when every accepted pair is an identity pair (the code is
    detecting), else the pair.  The minimal trellis accepts the same code,
    so the product accepts the same pairs as code x sigma x code, and its
    numbering is fixed by the code's words; a witness depends only on the
    word set and the channel.

    One breadth-first search carries the overhangs over the triples that
    pass a length test (sigma must be able to read and write what is left
    of two codewords); every triple on an accepted path passes it.  At an
    overhang conflict at triple d, a second search forward from d completes
    the witness to a final triple.  When it finds none, every triple it
    visited is dead, and both searches skip them from then on.  A reached
    triple with a live successor is itself live, so the live triples are
    met in the same order, with the same first parent and overhang, as by a
    search over the live triples alone, and the witness is that of the
    full product.  Every walk meets successors in ``_moves`` order, so ties
    always resolve the same way.
    """
    if not code.final:
        return None
    t = sigma.standard_form()
    machine = code.minimal[0]
    rows, moves = machine._rows, t._moves
    final, start = machine.final_state, machine.initial_state
    stride = machine.length + 2
    feasible = _feasible(t, machine.length)
    # the minimal trellis is layered: each state has one remaining length
    left_in = [(m.bit_length() - 1) * stride for m in machine._lengths]
    left_out = [m.bit_length() - 1 for m in machine._lengths]
    accepting = {(final, q, final) for q in t.final}
    dead: set = set()

    def successors(triple):
        p, q, r = triple
        for x, xmoves in moves[q].items():
            pd = p if x is None else rows[p].get(x)
            if pd is None:
                continue
            base = left_in[pd]
            for y, qd in xmoves:
                rd = r if y is None else rows[r].get(y)
                if rd is not None and feasible[qd][base + left_out[rd]] \
                        and (pd, qd, rd) not in dead:
                    yield x, y, (pd, qd, rd)

    delays = {}
    links = {}
    queue = []
    for q in sorted(t.initial):
        if feasible[q][left_in[start] + left_out[start]]:
            s = (start, q, start)
            delays[s] = _SYNCED
            queue.append(s)
    # a final triple needs no check of its own: both sides of a path to it
    # have read a whole codeword, all of one length, so neither is ahead
    for s in queue:
        for x, y, d in successors(s):
            nd = _advance(delays[s], x, y)
            if nd is not None and d not in delays:
                delays[d] = nd
                links[d] = (s, x, y)
                queue.append(d)
            elif nd is None or delays[d] != nd:
                # a mismatch at an aligned position, or a second overhang at
                # d: the path along this edge, or else the first path to d,
                # disagrees with any completion, if d has one
                rest = _completion(d, successors, accepting, dead)
                if rest is None:
                    continue
                for path in (_labels(links, s) + [(x, y)], _labels(links, d)):
                    u, v = _words(path + rest)
                    if u != v:
                        return u, v
                raise AssertionError("overhang conflict without violating pair")
    return None


def _require_same_alphabet(code: Trellis, channel: Channel):
    if code.alphabet != channel.alphabet:
        raise AlphabetMismatchError(
            f"code over {code.alphabet} vs channel over {channel.alphabet}"
        )


def _require_universe_fits(code: Trellis, universe: Trellis):
    if universe.alphabet != code.alphabet:
        raise AlphabetMismatchError("universe alphabet differs from the code's")
    if universe.length != code.length:
        raise ParameterError(
            f"universe length {universe.length} != code length {code.length}"
        )


def detection_witness(code: Trellis, channel: Channel) -> Witness:
    """NONE iff no codeword maps through the channel to a different codeword;
    otherwise a concrete violating pair (u, v) with v in channel(u)."""
    _require_same_alphabet(code, channel)
    found = _identity_violation(code, channel.transducer)
    if found is None:
        return Witness.none()
    return Witness.detection(*found)


def correction_witness(code: Trellis, channel: Channel) -> Witness:
    """NONE iff no two distinct codewords share a possible channel output.

    Decided through the detection test against inverse(channel) . channel; a
    violating pair is post-processed into (u, v, z) with z a shared output.
    """
    _require_same_alphabet(code, channel)
    composed = channel.transducer.inverse().compose(channel.transducer)
    found = _identity_violation(code, composed)
    if found is None:
        return Witness.none()
    u, v = found
    z = _shared_output(channel.transducer, u, v)
    return Witness.correction(u, v, z)


def _shared_output(sigma: Transducer, u: Word, v: Word) -> Word:
    z = sigma.image(u).determinize().intersect(sigma.image(v)).least_word()
    if z is None:
        raise AssertionError("composed violation without a shared channel output")
    return z


def exclusion_automaton(code: Trellis, channel: Channel) -> Nfa:
    """Automaton for (channel | channel^-1)(C): the words excluded by C.
    Built on the minimal trellis, which accepts the same code."""
    return product(code.minimal[0], channel.self_union_inverse())


def maximality_witness(
    code: Trellis, channel: Channel, universe: "Trellis | None" = None
) -> Witness:
    """ADDABLE w for some word of the universe that can join the code while
    keeping it detecting, or NONE when the code is maximal in that universe.

    Exact but worst-case exponential (the subset construction of the
    exclusion automaton, run inside the universe), hence meant for small
    block lengths.  The default universe is all words of the code's length; a
    given one must share the code's alphabet and length.
    """
    _require_same_alphabet(code, channel)
    if universe is None:
        universe = universe_trellis(code.alphabet, code.length)
    _require_universe_fits(code, universe)
    candidates = universe.minus(code.minimal[0]).minus(
        exclusion_automaton(code, channel))
    if candidates.count_words() == 0:
        return Witness.none()
    return Witness.addable(candidates.first_word())


def maximality_index(code: Trellis, channel: Channel) -> Fraction:
    """|Sigma^l  intersect  (channel | channel^-1)(C)| / |Sigma^l|, exactly.

    Requires the code to be detecting (Definition of the index presupposes
    it); a violating code raises NotDetectingError carrying the witness.
    """
    witness = detection_witness(code, channel)
    if witness:
        raise NotDetectingError(
            f"code is not error-detecting for {channel.name}: {witness}",
            witness=witness,
        )
    used = universe_trellis(code.alphabet, code.length).intersect(
        exclusion_automaton(code, channel)).count_words()
    return Fraction(used, len(code.alphabet) ** code.length)

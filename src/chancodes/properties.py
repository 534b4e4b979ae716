"""Exact decision procedures for block codes against a channel:
error-detection and error-correction with concrete witnesses, a deterministic
non-maximality witness, and the exact maximality index.

Detection searches the three-way product (code as input language,
channel, code as output language) for an accepted pair of different words.
Insertions and deletions desynchronize the two sides, so each triple
carries the *overhang* by which one side is ahead; with no conflict every
accepted pair is an identity pair (``_identity_violation``).  The
completions at conflicts share one visited map, which keeps the triples
proved dead; when the channel's states have mirrors
(``Transducer._mirror``), each triple proved dead proves its mirror dead
too.  ``_feasible``, the table of (input, output) lengths that a channel
state can still read and write, prunes this search and the membership
test of ``codegen.Exclusion``.

Exact maximality walks the subset construction of the exclusion automaton
(channel | channel^-1)(C) lazily and keeps no transitions: the witness
search stops at the least addable word, and the index counts Sigma^l layer
by layer.  The channel enters reduced by ``Transducer.quotient``, which
keeps one copy of a symmetric channel (sub:2, id:2: 6 -> 3 states).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import Alphabet, Nfa, Trellis, Word, format_word, \
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

    def to_text(self, alphabet: Alphabet) -> str:
        """The witness line, its words as ``format_word`` writes them over
        ``alphabet``."""
        u, v, z, w = (format_word(x or (), alphabet)
                      for x in (self.u, self.v, self.z, self.w))
        if self.kind == NONE_KIND:
            return "NONE"
        if self.kind == DETECT_KIND:
            return f"DETECT-VIOLATION {u} {v}"
        if self.kind == CORRECT_KIND:
            return f"CORRECT-VIOLATION {u} {v} via {z}"
        return f"ADDABLE {w}"


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
    x, y)) records back to a triple without a link (absent, or None), in
    path order."""
    labels = []
    link = links.get(triple)
    while link is not None:
        triple, x, y = link
        labels.append((x, y))
        link = links.get(triple)
    labels.reverse()
    return labels


def _words(labels: list) -> tuple[Word, Word]:
    return (tuple(x for x, _ in labels if x is not None),
            tuple(y for _, y in labels if y is not None))


def _completion(triple, expand, accepting: set, visited: dict, mirror):
    """The (x, y) labels of a shortest path from ``triple`` to a triple in
    ``accepting``, or None when there is none.

    ``expand(s)`` lists the (x, y, successor) moves of s in order.  The
    search enters no triple that ``visited`` holds and records each one it
    enters there as successor -> (predecessor, x, y), ``triple`` as None.
    When no path is found every triple (p, q, r) it entered is dead, and
    its entry stays in ``visited`` to mark it so; (r, mirror[q], p) is
    marked dead too unless ``mirror`` is None."""
    visited[triple] = None
    queue = [triple]
    for s in queue:
        if s in accepting:
            return _labels(visited, s)
        for x, y, d in expand(s):
            if d not in visited:
                visited[d] = (s, x, y)
                queue.append(d)
    if mirror is not None:
        for p, q, r in queue:
            visited[r, mirror[q], p] = None
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
    the witness to a final triple (``_completion``).  When it finds none,
    every triple it visited is dead, and both searches skip them from then
    on.  A reached triple with a live successor is itself live, so the live
    triples are met in the same order, with the same first parent and
    overhang, as by a search over the live triples alone, and the witness
    is that of the full product.  Every walk meets successors in ``_moves``
    order, so ties always resolve the same way.

    The completions share one map, ``visited``: a failed completion leaves
    its entries there as the dead set, so no completion enters a triple
    that an earlier one entered, and each edge costs one lookup.  The move
    table pairs each target sigma state with its ``_feasible`` row, and
    the main search expands its triples inline.

    (p, q, r) is dead exactly when (r, q-bar, p) is, where q-bar relates
    inversely to q (``Transducer._mirror``), so a failed completion marks
    both.  Every state has a mirror for sub:k, id:k, bsid2 and every sigma^-1
    . sigma, so every correction search; on the maximal length-14 greedy
    codes this halves the dead triples entered (sub:2 23183 -> 12212
    triples in all, id:2 32439 -> 18361).
    """
    if not code.final:
        return None
    t = sigma.standard_form()
    machine = code.minimal
    rows, mirror = machine._rows, t._mirror
    final, start = machine.final_state, machine.initial_state
    stride = machine.length + 2
    feasible = _feasible(t, machine.length)
    table = [tuple((x, tuple((y, qd, feasible[qd]) for y, qd in xmoves))
                   for x, xmoves in row.items()) for row in t._moves]
    # the minimal trellis is layered: each state has one remaining length
    left_out = [m.bit_length() - 1 for m in length_masks(
        machine.num_states, machine.final,
        ((s, 1, d) for s, _, d in machine.transitions),
        (1 << machine.length + 1) - 1)]
    left_in = [k * stride for k in left_out]
    accepting = {(final, q, final) for q in t.final}
    visited: dict = {}

    def expand(triple):
        p, q, r = triple
        row_p, row_r = rows[p], rows[r]
        found = []
        for x, xmoves in table[q]:
            pd = p if x is None else row_p.get(x)
            if pd is None:
                continue
            base = left_in[pd]
            for y, qd, row in xmoves:
                rd = r if y is None else row_r.get(y)
                if rd is not None and row[base + left_out[rd]]:
                    found.append((x, y, (pd, qd, rd)))
        return found

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
        p, q, r = s
        row_p, row_r, delay = rows[p], rows[r], delays[s]
        for x, xmoves in table[q]:
            pd = p if x is None else row_p.get(x)
            if pd is None:
                continue
            base = left_in[pd]
            for y, qd, row in xmoves:
                rd = r if y is None else row_r.get(y)
                if rd is None or not row[base + left_out[rd]]:
                    continue
                d = (pd, qd, rd)
                if d in visited:  # dead
                    continue
                nd = _advance(delay, x, y)
                seen = delays.get(d)
                if seen is None:
                    if nd is not None:
                        delays[d] = nd
                        links[d] = (s, x, y)
                        queue.append(d)
                        continue
                elif seen == nd:
                    continue
                # a mismatch at an aligned position, or a second overhang
                # at d: the path along this edge, or else the first path to
                # d, disagrees with any completion, if d has one
                rest = _completion(d, expand, accepting, visited, mirror)
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


def _fitting_universe(code: Trellis, universe: "Trellis | None") -> Trellis:
    """``universe``, by default all words of the code's length, once it is
    checked to share the code's alphabet and length."""
    if universe is None:
        return universe_trellis(code.alphabet, code.length)
    if universe.alphabet != code.alphabet:
        raise AlphabetMismatchError("universe alphabet differs from the code's")
    if universe.length != code.length:
        raise ParameterError(
            f"universe length {universe.length} != code length {code.length}"
        )
    return universe


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
    return product(code.minimal, channel.self_union_inverse())


def _exclusion_walk(code: Trellis, channel: Channel):
    """The exclusion automaton x, ``fits`` and the start set of a lazy walk
    of its subset construction.  ``fits[k]`` holds the states of x with a
    path of exactly k symbols on to a final state: with k symbols left, no
    other state (nor any it leads to) can end a word of the block length."""
    x = exclusion_automaton(code, channel)
    masks = length_masks(
        x.num_states, x.final,
        ((s, 0 if a is None else 1, d) for s, a, d in x.transitions),
        (1 << code.length + 1) - 1)
    fits = [frozenset([q for q in x.states if masks[q] >> k & 1])
            for k in range(code.length + 1)]
    return x, fits, x.epsilon_closure(x.initial) & fits[-1]


def _least_addable(walk, u: int, m: "int | None", s: frozenset,
                   left: int) -> "Word | None":
    """The least completion, ``left`` symbols long, of a prefix that reached
    universe state u, minimal code state m (None off the code) and the set
    s of exclusion states into an addable word, or None.  ``walk`` is
    (universe, minimal trellis, exclusion automaton, ``fits``, the dead
    keys: those that lead to no addable word)."""
    universe, minimal, x, fits, dead = walk
    if not left:
        addable = u in universe.final and m not in minimal.final \
            and s.isdisjoint(x.final)
        return () if addable else None
    row = universe._rows[u]
    if m is None and not s:  # every completion is addable
        a = next(a for a in universe.alphabet if a in row)
        return (a,) + _least_addable(walk, row[a], m, s, left - 1)
    if (u, m, s) in dead:
        return None
    for a in universe.alphabet:
        if a in row:
            rest = _least_addable(
                walk, row[a], m if m is None else minimal._rows[m].get(a),
                x._step(s, a) & fits[left - 1], left - 1)
            if rest is not None:
                return (a,) + rest
    dead.add((u, m, s))
    return None


def maximality_witness(
    code: Trellis, channel: Channel, universe: "Trellis | None" = None
) -> Witness:
    """ADDABLE w for the least word of the universe that can join the code
    while keeping it detecting, or NONE when the code is maximal in that
    universe.  The default universe is all words of the code's length; a
    given one must share the code's alphabet and length.  The code need
    not be detecting: on any code the answer is the least word of the
    universe outside C | (channel | channel^-1)(C) (the CLI refuses a
    non-detecting code with exit 2 before asking).

    A depth-first search in alphabet order, so in lexicographic order, over
    keys (universe state, minimal code state, set of exclusion states)
    (``_least_addable``).  Exact but worst-case exponential, hence meant
    for small block lengths.
    """
    _require_same_alphabet(code, channel)
    universe = _fitting_universe(code, universe)
    x, fits, start = _exclusion_walk(code, channel)
    minimal = code.minimal
    found = _least_addable((universe, minimal, x, fits, set()),
                           universe.initial_state, minimal.initial_state,
                           start, code.length)
    return Witness.none() if found is None else Witness.addable(found)


def maximality_index(code: Trellis, channel: Channel) -> Fraction:
    """|Sigma^l  intersect  (channel | channel^-1)(C)| / |Sigma^l|, exactly.

    Counted layer by layer: a map from each nonempty filtered set of
    exclusion states to the number of prefixes that reach it.  Requires
    the code to be detecting (Definition of the index presupposes it); a
    violating code raises NotDetectingError carrying the witness.
    """
    witness = detection_witness(code, channel)
    if witness:
        raise NotDetectingError(
            f"code is not error-detecting for {channel.name}: "
            f"{witness.to_text(code.alphabet)}",
            witness=witness,
        )
    x, fits, start = _exclusion_walk(code, channel)
    layer = {start: 1} if start else {}
    for k in reversed(range(code.length)):
        following: dict = {}
        for s, n in layer.items():
            for a in code.alphabet.symbols:
                d = x._step(s, a) & fits[k]
                if d:
                    following[d] = following.get(d, 0) + n
        layer = following
    used = sum(n for s, n in layer.items() if not s.isdisjoint(x.final))
    return Fraction(used, len(code.alphabet) ** code.length)

"""Exact decision procedures for block codes against a channel:
error-detection and error-correction with concrete witnesses, a deterministic
non-maximality witness, and the exact maximality index.

The detection test runs on the three-way product (code as input language,
channel, code as output language) and searches it for an accepted path whose
input and output words differ.  Equality cannot be tracked symbol-by-symbol
when the two sides are desynchronized by insertions/deletions, so each product
state carries the *overhang*: the word by which one side is ahead of the
other.  A state with two distinct overhangs, an overhang/step mismatch, or a
final state with a non-empty overhang each pin down a violating pair, and if
none occurs every accepted pair is an identity pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import Nfa, StateIds, Trellis, Word, format_word, \
    universe_trellis
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


def _live_triples(machine: Trellis, t: Transducer) -> set:
    """The states of machine x t x machine on some accepted path: a forward
    build from the start triples, then a co-reachability prune.  ``t`` is in
    standard form."""
    rows, moves = machine._rows, t._moves
    final = machine.final_state
    ids = StateIds()
    for q in sorted(t.initial):
        ids[(machine.initial_state, q, machine.initial_state)]
    rev: list[list[int]] = [[] for _ in ids.order]
    stack = []
    for i, (p, q, r) in enumerate(ids.order):
        if p == final and q in t.final and r == final:
            stack.append(i)
        for x, xmoves in moves[q].items():
            pd = p if x is None else rows[p].get(x)
            if pd is None:
                continue
            for y, qd in xmoves:
                rd = r if y is None else rows[r].get(y)
                if rd is None:
                    continue
                n = len(ids.order)
                j = ids[(pd, qd, rd)]
                if j == n:
                    rev.append([])
                rev[j].append(i)
    alive = set(stack)
    while stack:
        for i in rev[stack.pop()]:
            if i not in alive:
                alive.add(i)
                stack.append(i)
    return {ids.order[i] for i in alive}


def _identity_violation(code: Trellis, sigma: Transducer):
    """Search code x sigma x code for an accepted pair (u, v) with u != v.

    Returns None when every accepted pair is an identity pair (the code is
    detecting), else the pair.  Deterministic: states and edges are explored
    in sorted order, so ties always resolve the same way.

    Only live triples (those on some accepted path) are built.  The code's
    minimal trellis has the same right languages, so ``(p, q, r)`` is live
    exactly when ``(cls[p], q, cls[r])`` is live in the small product
    minimal x sigma x minimal.  Every predecessor of a live triple is live,
    so the breadth-first search below meets the live triples in the same
    order, from the same parents, as a search of the full product would.
    """
    if not code.final:
        return None
    t = sigma.standard_form()
    minimal, cls = code.minimal
    live = _live_triples(minimal, t)

    def advance(delay, x, y):
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

    # one breadth-first pass numbers the live triples and carries the
    # overhangs; after the first conflict it only numbers the rest, which
    # the completion hops need for their tie-breaks
    code_rows, moves = code._rows, t._moves
    code_final = code.final_state
    start = code.initial_state
    ids = StateIds()
    delays: list[tuple[Word, Word]] = []
    for q in sorted(t.initial):
        if (cls[start], q, cls[start]) in live:
            ids[(start, q, start)]
            delays.append(_SYNCED)
    parent: dict[int, tuple[int, Optional[str], Optional[str]]] = {}
    finals: list[int] = []
    # edges[i] holds the out-edges of state i
    edges: list[list[tuple[Optional[str], Optional[str], int]]] = []
    conflict = None
    for i, (p, q, r) in enumerate(ids.order):
        if p == code_final and q in t.final and r == code_final:
            finals.append(i)
        out: list[tuple[Optional[str], Optional[str], int]] = []
        for x, xmoves in moves[q].items():
            pd = p if x is None else code_rows[p].get(x)
            if pd is None:
                continue
            for y, qd in xmoves:
                rd = r if y is None else code_rows[r].get(y)
                if rd is None or (cls[pd], qd, cls[rd]) not in live:
                    continue
                n = len(ids.order)
                j = ids[(pd, qd, rd)]
                out.append((x, y, j))
                if conflict is not None:
                    continue
                nd = advance(delays[i], x, y)
                if nd is None:
                    # mismatch at an aligned position
                    conflict = (i, x, y, j, True)
                elif j == n:
                    delays.append(nd)
                    parent[j] = (i, x, y)
                elif delays[j] != nd:
                    # two inconsistent overhangs
                    conflict = (i, x, y, j, False)
        edges.append(out)

    def path_words(s_idx: int) -> tuple[Word, Word]:
        xs: list[str] = []
        ys: list[str] = []
        while s_idx in parent:
            p_idx, x, y = parent[s_idx]
            if x is not None:
                xs.append(x)
            if y is not None:
                ys.append(y)
            s_idx = p_idx
        return tuple(reversed(xs)), tuple(reversed(ys))

    if conflict is None:
        for f in finals:
            if delays[f] != _SYNCED:
                return path_words(f)
        return None

    # completion hops toward a final state (shortest, deterministic)
    rev: list[list[int]] = [[] for _ in edges]
    for s_idx, es in enumerate(edges):
        for _, _, d_idx in es:
            rev[d_idx].append(s_idx)
    next_hop: dict[int, tuple[Optional[str], Optional[str], int]] = {}
    dist = {f: 0 for f in finals}
    frontier = finals
    while frontier:
        new_frontier = []
        for s_idx in frontier:
            for p_idx in rev[s_idx]:
                if p_idx in dist:
                    continue
                # find the concrete edge p->s with the smallest label key
                best = None
                for x, y, d_idx in edges[p_idx]:
                    if d_idx == s_idx:
                        k = (x is not None, x or "", y is not None, y or "")
                        if best is None or k < best[0]:
                            best = (k, (x, y, d_idx))
                dist[p_idx] = dist[s_idx] + 1
                next_hop[p_idx] = best[1]
                new_frontier.append(p_idx)
        frontier = sorted(new_frontier)

    def completion_words(s_idx: int) -> tuple[Word, Word]:
        xs: list[str] = []
        ys: list[str] = []
        while dist[s_idx]:
            x, y, s_idx = next_hop[s_idx]
            if x is not None:
                xs.append(x)
            if y is not None:
                ys.append(y)
        return tuple(xs), tuple(ys)

    s_idx, x, y, t_idx, mismatch = conflict
    cx, cy = completion_words(t_idx)
    if mismatch:
        # complete the mismatching path and report it
        ux, uy = path_words(s_idx)
        return (ux + ((x,) if x is not None else ()) + cx,
                uy + ((y,) if y is not None else ()) + cy)
    # one of the two paths must disagree with any shared completion
    ux1, uy1 = path_words(t_idx)
    ux2, uy2 = path_words(s_idx)
    ux2 += (x,) if x is not None else ()
    uy2 += (y,) if y is not None else ()
    for ux, uy in ((ux1, uy1), (ux2, uy2)):
        u, v = ux + cx, uy + cy
        if u != v:
            return u, v
    raise AssertionError("overhang conflict without violating pair")


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
    z = sigma.image(u).determinize().intersect(
        sigma.image(v).determinize()
    ).least_word()
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

    Exact but worst-case exponential (determinization), hence meant for small
    block lengths.  The default universe is all words of the code's length; a
    given one must share the code's alphabet and length.
    """
    _require_same_alphabet(code, channel)
    if universe is None:
        universe = universe_trellis(code.alphabet, code.length)
    _require_universe_fits(code, universe)
    excluded = Nfa.union_automata(exclusion_automaton(code, channel),
                                  code.minimal[0])
    blocked = excluded.determinize()
    candidates = universe.intersect(blocked.complement(length=code.length))
    if candidates.count_words() == 0:
        return Witness.none()
    return Witness.addable(candidates.first_word())


def maximality_index(code: Trellis, channel: Channel) -> Fraction:
    """|Sigma^l  intersect  (channel | channel^-1)(C)| / |Sigma^l|, exactly.

    Requires the code to be detecting (Definition of the index presupposes
    it); a violating code raises NotDetectingError carrying the witness.
    """
    _require_same_alphabet(code, channel)
    witness = detection_witness(code, channel)
    if witness:
        raise NotDetectingError(
            f"code is not error-detecting for {channel.name}: {witness}",
            witness=witness,
        )
    universe = universe_trellis(code.alphabet, code.length)
    excluded = exclusion_automaton(code, channel).determinize()
    used = universe.intersect(excluded)
    return Fraction(used.count_words(), len(code.alphabet) ** code.length)

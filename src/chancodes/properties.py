"""Exact decision procedures for block codes against a channel:
error-detection and error-correction with concrete witnesses, a deterministic
non-maximality witness, and the exact maximality index.

Detection searches the three-way product (code as input language,
channel, code as output language) for an accepted pair of different words.
Insertions and deletions desynchronize the two sides, so each triple
carries the *overhang* by which one side is ahead; with no conflict every
accepted pair is an identity pair (``_identity_violation``).  A conflict
is completed to an accepted triple (``_completion``) or proved dead: by a
failed completion, which leaves what it entered, mirrors too, in one
shared visited map, and once one has failed by one AND of an image mask
(``_image_masks``) and a suffix mask (``Trellis._suffix_masks``).  At a
channel state that copies and then appends or drops at most one free
symbol (``Transducer._copy_tails``) one AND of two padded suffix masks
settles a triple.  The search, the membership test of
``codegen.Exclusion`` and the maximality walk all read the channel's
``Transducer._table``, built once per block length, and prune by the
(input, output) lengths a channel state can still read and write.
``correction_witness`` searches sigma^-1 . sigma reduced by
``Transducer.quotient``.

Exact maximality walks the subset construction of the exclusion automaton
(channel | channel^-1)(C) without building it (``_exclusion_steps``).
The witness and the index share one walk (``_cut``) down to a cut above
the last layers, which hold at most 2^12 words; below it each pair reads
its suffixes off the same image masks.  The channel enters reduced by
``Transducer.quotient`` (sub:2, id:2: 6 -> 3 states).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from fractions import Fraction
from itertools import compress
from operator import or_
from typing import NamedTuple, Optional

from . import automata
from .automata import Alphabet, EPSILON_TOKEN, Trellis, Word, _reach, \
    format_word, universe_trellis
from .channels import Channel
from .errors import AlphabetMismatchError, NotDetectingError, ParameterError
from .transducers import Transducer

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
        ``alphabet`` and the empty word as ``@epsilon``, as code files read
        it."""
        u, v, z, w = (format_word(x or (), alphabet) or EPSILON_TOKEN
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


def _advance(delay: tuple[Word, Word], x: Optional[str], y: Optional[str]):
    """The overhang after reading x on the input side and y on the output
    side, or None when the two sides disagree at an aligned position.  One
    side of an overhang is empty, so at most one pair of symbols aligns."""
    pin, pout = delay
    if x is not None:
        pin += (x,)
    if y is not None:
        pout += (y,)
    if pin and pout:
        return None if pin[0] != pout[0] else (pin[1:], pout[1:])
    return (pin, pout)


def _labels(parents: dict, triple, table, rows) -> list:
    """The (x, y) labels of the path that ``parents`` (triple ->
    predecessor) records back to a triple without one, in path order.  A
    search enters each triple on the first move, in ``table`` order, that
    reaches it, so that is the label read back; two can reach one triple
    where the minimal trellis merges paths."""
    labels = []
    s = parents.get(triple)
    while s is not None:
        p, q, r = s
        labels.append(next(
            (x, y) for x, xmoves in table[q] for y, qd, _ in xmoves
            if (p if x is None else rows[p].get(x), qd,
                r if y is None else rows[r].get(y)) == triple))
        triple, s = s, parents.get(s)
    return labels[::-1]


def _words(labels: list) -> tuple[Word, Word]:
    return (tuple(x for x, _ in labels if x is not None),
            tuple(y for _, y in labels if y is not None))


class _Search(NamedTuple):
    """The tables of one detection search (``_identity_violation``)."""

    table: list  # per channel state, its (x, ((y, target, row), ...)) moves
    rows: tuple  # the minimal trellis's ``_rows``
    left_in: list  # per trellis state, ``_left`` times the row stride
    left_out: tuple  # per trellis state, its ``_left``
    final: int  # the minimal trellis's final state
    accepting: frozenset  # the channel's final states
    # per channel state, None, or at a ``_copy_tails`` tail (i, o) the
    # minimal trellis's ``_padded_masks`` (o, i): a triple there is live
    # exactly when the mask of p in the first meets that of r in the second
    tests: list


def _completion(triple, search: _Search, visited: dict, mirror):
    """The (x, y) labels of a shortest path from ``triple`` to an accepted
    triple, or None when there is none.

    The search enters no triple that ``visited`` holds, nor one at a copy
    tail whose trellis states' masks in ``search.tests`` do not meet, and
    records each one it enters there as successor -> predecessor,
    ``triple`` -> None.  When no path is found every triple (p, q, r) it
    entered is dead, and its entry stays in ``visited`` to mark it so;
    (r, mirror[q], p) is marked dead too unless ``mirror`` is None."""
    table, rows, left_in, left_out, final, accepting, tests = search
    visited[triple] = None
    queue = [triple]
    for s in queue:
        p, q, r = s
        if p == final and r == final and q in accepting:
            return _labels(visited, s, table, rows)
        row_p, row_r = rows[p], rows[r]
        for x, xmoves in table[q]:
            pd = p if x is None else row_p.get(x)
            if pd is None:
                continue
            base = left_in[pd]
            for y, qd, row in xmoves:
                rd = r if y is None else row_r.get(y)
                if rd is not None and row[base + left_out[rd]]:
                    d = (pd, qd, rd)
                    if d not in visited and (
                            (test := tests[qd]) is None
                            or test[0][pd] & test[1][rd]):
                        visited[d] = s
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
    of two codewords, ``Trellis._left``), as every triple on an accepted
    path does.  At an overhang conflict at triple d, a second search
    forward from d completes the witness to a final triple
    (``_completion``); when it finds none, every triple it visited is dead
    and both searches skip it from then on.  A reached triple with a live
    successor is live, so the live triples are met in the same order, with
    the same first parent and overhang, as by a search over them alone:
    skipping dead triples keeps the witness.  Both searches expand triples
    inline from ``Transducer._table``, in ``_moves`` order, so ties always
    resolve the same way, and keep each one's parent (``_labels``).

    The completions share one map, ``visited``, where a failed one leaves
    its entries as the dead set.  (p, q, r) is dead exactly when
    (r, q-bar, p) is, where q-bar relates inversely to q
    (``Transducer._mirror``: sub:k, id:k, bsid2, every sigma^-1 . sigma),
    so each dead mark marks both.  Once a completion has failed (the first
    runs unchecked, since on a violating code it often succeeds), a later
    conflict at d = (p, q, r) runs none where image(q, p, left(r)) of
    ``_image_masks``, the suffixes of p written, misses the suffixes of r
    (``Trellis._suffix_masks``, where r has one): d is marked dead.

    At a copy tail q (``Transducer._copy_tails``) sigma relates s x to
    s y for every s and every x, y of the tail's lengths (i, o): (0, 0)
    copies, del1's (0, 1) copies and appends a symbol, ins1's (1, 0)
    copies and drops one.  So (p, q, r) is live exactly when the masks of
    p in ``Trellis._padded_masks(o)`` and of r in ``_padded_masks(i)``
    meet (-1, no mask, meets all), and both searches skip it, unentered,
    when they do not.
    """
    if not code.final:
        return None
    machine = code.minimal
    rows, start = machine._rows, machine.initial_state
    feasible, moves = sigma._table(machine.length)
    table = [tuple(row.items()) for row in moves]
    left_out = machine._left
    left_in = [k * (machine.length + 2) for k in left_out]
    tails = sigma._copy_tails
    # a padded pass also builds pad 0, so it goes first
    padded = {d: machine._padded_masks(d)
              for d in sorted(set().union(*tails.values()), reverse=True)}
    tests = [None] * sigma.num_states
    for q, (i, o) in tails.items():
        tests[q] = (padded[o], padded[i])
    search = _Search(table, rows, left_in, left_out, machine.final_state,
                     sigma.final, tests)
    queue = [(start, q, start) for q in sorted(sigma.initial)
             if feasible[q][left_in[start] + left_out[start]]]
    delays = dict.fromkeys(queue, _SYNCED)
    links = {}
    visited: dict = {}
    image = None  # ``_image_masks``, once a completion has failed
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
                    test = tests[qd]
                    if test is not None and not test[0][pd] & test[1][rd]:
                        continue  # dead: qd copies, and pd, rd share no end
                    if nd is not None:
                        delays[d] = nd
                        links[d] = s
                        queue.append(d)
                        continue
                elif seen == nd:
                    continue
                # a mismatch at an aligned position, or a second overhang
                # at d: the path along this edge, or else the first path to
                # d, disagrees with any completion, if d has one
                if image is not None and (mask := suffix[rd]) >= 0 \
                        and not image(qd, pd, left_out[rd]) & mask:
                    visited[d] = None  # dead: no suffix of rd is written
                    if mirror is not None:
                        visited[rd, mirror[qd], pd] = None
                    continue
                rest = _completion(d, search, visited, sigma._mirror)
                if rest is None:
                    if image is None:
                        image, suffix, mirror = _image_masks(machine, sigma), \
                            machine._suffix_masks, sigma._mirror
                    continue
                for path in (_labels(links, s, table, rows) + [(x, y)],
                             _labels(links, d, table, rows)):
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

    Decided through the detection test against inverse(channel) . channel,
    reduced by ``Transducer.quotient`` (sub:2, id:2: 9 -> 6 states; the same
    relation); a violating pair is post-processed into (u, v, z) with z a
    shared output.
    """
    _require_same_alphabet(code, channel)
    composed = channel.transducer.inverse().compose(
        channel.transducer).quotient()
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


def _exclusion_steps(code: Trellis, t: Transducer):
    """(step, start set) of the subset walk of the exclusion automaton
    T(C), with T = ``channel.self_union_inverse()``, stepped on demand: no
    product is built.

    A subset state is a frozenset of pairs m * n + q: m a state of the
    minimal trellis, q one of the n states of T, which reads a codeword
    along the trellis and writes the word walked.  ``step(s, a, k)`` is the
    set of pairs in ``fits[k]`` that s reaches on a; a pair's
    epsilon-closed successor set on a is built at the first step that needs
    it, and kept.

    ``fits[k]`` holds the pairs met so far whose T state can read the
    ``left[m]`` symbols left of the codeword and write exactly k symbols:
    ``T._table(l)[0][q]`` at ``left[m] * (l + 2) + k``, the test of
    ``_identity_violation``.  It may keep a pair that reaches no final pair
    in k symbols, but then no pair it leads to does in fewer, so the count
    and the least addable word are those of the trimmed product (the
    tests' ``exclusion_automaton``).  No memo refers back to its own
    filler, so a walk is freed when it ends.
    """
    machine, ell, n = code.minimal, code.length, t.num_states
    rows, left = machine._rows, machine._left
    feasible, stride = t._table(ell)[0], ell + 2

    @cache
    def lengths(q: int, i: int) -> list[int]:
        """The lengths that T state q can write while it reads the i
        symbols left of a codeword."""
        return list(compress(range(ell + 1),
                             feasible[q][i * stride:i * stride + ell + 1]))

    # per output (None: none), per T state, its (input, target) moves
    by_output = {y: [[] for _ in t.states]
                 for y in (None, *code.alphabet.symbols)}
    for q, row in enumerate(t._moves):
        for x, xmoves in row.items():
            for y, d in xmoves:
                by_output[y][q].append((x, d))
    fits: list[set] = [set() for _ in range(ell + 1)]

    def targets(p: int, moves) -> list[int]:
        """The pairs that p reaches on its T state's ``moves``."""
        m, q = divmod(p, n)
        row = rows[m]
        return [md * n + qd for x, qd in moves[q]
                if (md := m if x is None else row.get(x)) is not None]

    @cache
    def closure(p: int) -> frozenset:
        """The pairs that p reaches on moves that write nothing; each joins
        ``fits`` at the k it passes."""
        seen = {p}
        stack = [p]
        while stack:
            for d in targets(stack.pop(), by_output[None]):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        for d in seen:
            m, q = divmod(d, n)
            for k in lengths(q, left[m]):
                fits[k].add(d)
        return frozenset(seen)

    def successors(moves, p: int) -> frozenset:
        """The epsilon-closed set of pairs that p reaches on ``moves``."""
        return frozenset().union(*map(closure, targets(p, moves)))

    following = {a: cache(partial(successors, by_output[a]))
                 for a in code.alphabet.symbols}

    def step(s: frozenset, a: str, k: int) -> frozenset:
        return frozenset().union(*map(following[a], s)) & fits[k]

    if not machine.final:
        return step, frozenset()
    start = frozenset().union(*map(closure, t.initial))  # pairs 0 * n + q
    return step, start & fits[-1]


def _tail_moves(t: Transducer) -> tuple[list, list]:
    """(moves, ends) per state q of t: the moves that read or write a symbol
    from the states that q reaches on epsilon/epsilon moves, q among them,
    as (input or None, writes, output digit or 0, target), and whether one of
    those states is final.  Such moves can cycle; folded in, they leave no
    move that keeps both the trellis state and the length to write."""
    digit = t.alphabet._index
    silent = [[d for y, d in row.get(None, ()) if y is None]
              for row in t._moves]
    moves, ends = [], []
    for q in t.states:
        closed = _reach((q,), silent)
        moves.append(tuple(dict.fromkeys(
            (x, y is not None, digit.get(y, 0), d)
            for r in sorted(closed) for x, xmoves in t._moves[r].items()
            for y, d in xmoves if x is not None or y is not None)))
        ends.append(not closed.isdisjoint(t.final))
    return moves, ends


def _image_masks(machine: Trellis, t: Transducer):
    """image(q, p, k): the words of length k that t can write from state q
    while it reads a suffix of trellis state p, to a final state, as a
    bitmask over their ranks in Sigma^k, in ``Trellis._suffix_masks``'
    order.  A move that writes symbol i shifts the mask one symbol shorter
    by i |Sigma|^(k-1) (shift-and, Baeza-Yates & Gonnet, CACM 1992), one
    that reads a symbol and writes none ORs in the mask deeper in the
    trellis; ``_tail_moves`` folds in the epsilon/epsilon moves, so every
    move lowers left(p) + k, and the length rows of ``t._table`` drop the
    keys that cannot end.  One memo of ints serves every call (``_image``)."""
    ell, size = machine.length, len(machine.alphabet)
    return partial(_image, (
        machine._rows, machine._left, machine.final_state, *_tail_moves(t),
        t._table(ell)[0], ell + 2, [0] + [size ** j for j in range(ell)], {}))


def _image(context: tuple, q: int, p: int, k: int) -> int:
    """``_image_masks``' image(q, p, k), memoized by key (q, p, k).  A
    walk scans each key's moves once, in one iterator: at a target not in
    the memo it pushes the key's frame, enters the target, and resumes the
    frame with its mask, so no recursion grows with left(p) + k."""
    rows, left, final, moves, ends, feasible, stride, spans, memo = context
    enter = q, p, k
    if enter in memo:
        return memo[enter]
    stack = []
    while True:
        if enter:
            key, enter = enter, None
            q, p, k = key
            row, span, it = rows[p], spans[k], iter(moves[q])
            mask = int(not k and p == final and ends[q])
        for x, writes, i, qd in it:
            pd = p if x is None else row.get(x)
            kd = k - writes
            if pd is None or kd < 0:
                continue
            known = memo.get((qd, pd, kd))
            if known is not None:
                mask |= known << i * span
            elif feasible[qd][left[pd] * stride + kd]:
                stack.append((key, row, span, it, mask, i))
                enter = qd, pd, kd
                break
        else:
            memo[key] = known = mask
            if not stack:
                return mask
            key, row, span, it, mask, i = stack.pop()
            _, p, k = key
            mask |= known << i * span


def _cut(code: Trellis, t: Transducer, universe: Trellis):
    """(keys, covered, tail) of the exclusion walk that ``maximality_witness``
    and ``maximality_index`` share.

    The tail is the last b layers, b the most with |Sigma|^b <= 2^12
    (``automata._MASK_BITS``: 12 on a binary alphabet, 7 on a ternary
    one), and the cut sits at depth l - b.  Above it the forward walk of
    ``_exclusion_steps`` maps each key (universe state, minimal code state
    or None off the code, set of exclusion pairs) that a prefix of the
    universe reaches at the cut to [number of such prefixes, least such
    prefix], keys in least-prefix order: a key is first met from the key
    with the least prefix and on the least symbol that reach it, in
    alphabet order.  Below it ``covered(s)`` ORs image(q, m, b) of T
    (``_image_masks``, one memo) over the pairs m * n + q of a set s: the
    suffixes they can write, over the ranks of ``Trellis._suffix_masks``,
    which are exact at the cut.  All prefixes of one key share their
    suffixes' fate, so each answer is read off the keys and these masks."""
    size, width, tail = len(code.alphabet), 1 << automata._MASK_BITS, 0
    while tail < code.length and size ** (tail + 1) <= width:
        tail += 1
    step, start = _exclusion_steps(code, t)
    minimal = code.minimal
    rows, code_rows = universe._rows, minimal._rows
    keys = {(universe.initial_state, minimal.initial_state, start): [1, ()]}
    for k in range(code.length - 1, tail - 1, -1):
        following: dict = {}
        for (u, m, s), (n, prefix) in keys.items():
            row, code_row = rows[u], {} if m is None else code_rows[m]
            for a in code.alphabet.symbols:
                if a in row:
                    key = (row[a], code_row.get(a), step(s, a, k))
                    entry = following.get(key)
                    if entry is None:
                        following[key] = [n, prefix + (a,)]
                    else:
                        entry[0] += n
        keys = following
    image, n = _image_masks(minimal, t), t.num_states
    return keys, lambda s: reduce(
        or_, (image(p % n, p // n, tail) for p in s), 0), tail


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

    The first key of ``_cut`` at universe state u and code state m whose
    free suffixes, the universe's mask of u without ``covered`` of its set
    and the code's mask of m (``Trellis._suffix_masks``), are not none
    gives w: its least prefix, then the least free suffix, decoded from
    its rank by ``_unrank`` on Sigma^tail.  Exact but worst-case
    exponential, hence meant for small block lengths.
    """
    _require_same_alphabet(code, channel)
    universe = _fitting_universe(code, universe)
    keys, covered, tail = _cut(code, channel.self_union_inverse(), universe)
    free, coded = universe._suffix_masks, code.minimal._suffix_masks
    for (u, m, s), (_, prefix) in keys.items():
        rest = free[u] & ~covered(s) & ~(0 if m is None else coded[m])
        if rest:
            rank = (rest & -rest).bit_length() - 1
            return Witness.addable(prefix + universe_trellis(
                code.alphabet, tail)._unrank(rank))
    return Witness.none()


def maximality_index(code: Trellis, channel: Channel) -> Fraction:
    """|Sigma^l  intersect  (channel | channel^-1)(C)| / |Sigma^l|, exactly.

    A word is counted exactly when some pair of its prefix's set at the
    cut of ``_cut`` (over Sigma^l) can write its suffix, so the index sums
    count times the number of bits of ``covered`` of the key's set, one
    term per key (at l <= 12 on a binary alphabet only the start key).

    The count is of (channel | channel^-1)(C) alone, while
    ``maximality_witness`` also excludes C itself.  The two agree whenever
    the channel is input-preserving, since C then lies inside the image;
    on a channel that is not, a maximal code can have an index below 1:
    a channel that flips every bit maps {0} to {1}, so the code {0} is
    maximal at length 1 and its index is 1/2.  Requires the code to be
    detecting (Definition of the index presupposes it); a violating code
    raises NotDetectingError carrying the witness.
    """
    witness = detection_witness(code, channel)
    if witness:
        raise NotDetectingError(
            f"code is not error-detecting for {channel.name}: "
            f"{witness.to_text(code.alphabet)}",
            witness=witness,
        )
    keys, covered, _ = _cut(code, channel.self_union_inverse(),
                            universe_trellis(code.alphabet, code.length))
    used = sum(n * covered(s).bit_count()
               for (_, _, s), (n, _) in keys.items())
    return Fraction(used, len(code.alphabet) ** code.length)

"""Exact decision procedures for block codes against a channel:
error-detection and error-correction with concrete witnesses, a deterministic
non-maximality witness, and the exact maximality index.

Detection searches the three-way product (code as input language,
channel, code as output language) for an accepted pair of different words.
Insertions and deletions desynchronize the two sides, so each triple
carries the *overhang* by which one side is ahead; with no conflict every
accepted pair is an identity pair (``_identity_violation``).  The
completions at conflicts (``_completion``) expand their triples inline and
share one visited map of parents, which keeps the triples proved dead; when
the channel's states have mirrors (``Transducer._mirror``), each triple
proved dead proves its mirror dead too.  At a channel state that only copies
(``Transducer._identity_tails``) one AND of two suffix masks
(``Trellis._suffix_masks``) settles a triple, and a dead one is never
entered.  A witness path reads its labels back off the move table
(``_labels``).  This search, the membership test of ``codegen.Exclusion``
and the maximality walk all read the channel's ``Transducer._table``, built
once per block length, and prune by the (input, output) lengths a channel
state can still read and write.

Exact maximality walks the subset construction of the exclusion automaton
(channel | channel^-1)(C) without building it: a subset state is a set of
(minimal trellis state, channel state) pairs, each pair's successors are
built the first time a step meets it, and the ``Transducer._table`` rows
drop the pairs that cannot finish a word of the block length
(``_exclusion_steps``).  The witness search stops at the least addable
word.  The index walks the sets forward down to a cut above the last
layers, which hold at most 2^12 words, and there reads each pair's
suffixes as one bitmask (``_tail_masks``): a set at the cut adds its
count times the bits of the OR of its pairs' masks.  The channel enters
reduced by ``Transducer.quotient`` (sub:2, id:2: 6 -> 3 states).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from fractions import Fraction
from operator import or_
from typing import NamedTuple, Optional

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
    tails: frozenset  # the channel's ``_identity_tails``
    machine: Trellis  # the minimal trellis, for its ``_suffix_masks``


def _completion(triple, search: _Search, visited: dict, mirror):
    """The (x, y) labels of a shortest path from ``triple`` to an accepted
    triple, or None when there is none.

    The search enters no triple that ``visited`` holds, nor one at an
    identity tail that the suffix masks prove dead, and records each one it
    enters there as successor -> predecessor, ``triple`` -> None.  When no
    path is found every triple (p, q, r) it entered is dead, and its entry
    stays in ``visited`` to mark it so; (r, mirror[q], p) is marked dead too
    unless ``mirror`` is None."""
    table, rows, left_in, left_out, final, accepting, tails, machine = search
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
                    if d not in visited and (qd not in tails or (
                            m := machine._suffix_masks)[pd] & m[rd]):
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
    of two codewords, ``Trellis._left``); every triple on an accepted path
    passes it.  At an overhang conflict at triple d, a second search
    forward from d completes the witness to a final triple
    (``_completion``).  When it finds none, every triple it visited is
    dead, and both searches skip them from then on.  A reached triple with
    a live successor is itself live, so the live triples are met in the
    same order, with the same first parent and overhang, as by a search
    over the live triples alone, and the witness is that of the full
    product.  Every walk meets successors in ``_moves`` order, so ties
    always resolve the same way.

    Both searches expand triples inline from sigma's ``Transducer._table``,
    whose moves carry each target's length row, and keep only each
    triple's parent; a witness reads its labels back (``_labels``).  The
    completions share one map, ``visited``: a failed completion leaves its
    entries there as the dead set, so no completion enters a triple that an
    earlier one entered, and each edge costs one lookup.  (p, q, r) is dead
    exactly when (r, q-bar, p) is, where q-bar relates inversely to q
    (``Transducer._mirror``), so a failed completion marks both; every
    state has a mirror for sub:k, id:k, bsid2 and every sigma^-1 . sigma.

    Those channels also end in an identity tail q
    (``Transducer._identity_tails``), from which sigma relates each word to
    itself alone, so (p, q, r) is live exactly when p and r share a suffix;
    the length rows already put p and r in one layer.  Both searches skip
    such a triple, unentered, when the suffix masks of p and r
    (``Trellis._suffix_masks``, built at the first such test) do not meet,
    and enter it as any other where one of them has no mask.  Only dead
    triples are skipped, so by the argument above the witness stays the
    same.
    """
    if not code.final:
        return None
    machine = code.minimal
    rows, start = machine._rows, machine.initial_state
    feasible, moves = sigma._table(machine.length)
    table = [tuple(row.items()) for row in moves]
    left_out = machine._left
    left_in = [k * (machine.length + 2) for k in left_out]
    tails = sigma._identity_tails
    search = _Search(table, rows, left_in, left_out, machine.final_state,
                     sigma.final, tails, machine)
    queue = [(start, q, start) for q in sorted(sigma.initial)
             if feasible[q][left_in[start] + left_out[start]]]
    delays = dict.fromkeys(queue, _SYNCED)
    links = {}
    visited: dict = {}
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
                    if qd in tails \
                            and not (m := machine._suffix_masks)[pd] & m[rd]:
                        continue  # dead: qd copies, and pd, rd share no suffix
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
                rest = _completion(d, search, visited, sigma._mirror)
                if rest is None:
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


def _exclusion_steps(code: Trellis, t: Transducer):
    """(step, start set, final pairs) of the subset walk of the exclusion
    automaton T(C), with T = ``channel.self_union_inverse()``, stepped on
    demand: no product is built.

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
    stride = ell + 2
    # per T state and code length left, the lengths it can write
    ks = [[[k for k in range(ell + 1) if row[i * stride + k]]
           for i in range(ell + 1)] for row in t._table(ell)[0]]
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
            for k in ks[q][left[m]]:
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
        return step, frozenset(), frozenset()
    start = frozenset().union(*map(closure, t.initial))  # pairs 0 * n + q
    return step, start & fits[-1], frozenset(
        machine.final_state * n + q for q in t.final)


def _least_addable(walk, u: int, m: "int | None", s: frozenset,
                   left: int) -> "Word | None":
    """The least completion, ``left`` symbols long, of a prefix that reached
    universe state u, minimal code state m (None off the code) and the set
    s of exclusion pairs into an addable word, or None.  ``walk`` is
    (universe, minimal trellis, the step and the final pairs of
    ``_exclusion_steps``, the dead keys: those that lead to no addable
    word)."""
    universe, minimal, step, final, dead = walk
    if not left:
        addable = u in universe.final and m not in minimal.final \
            and s.isdisjoint(final)
        return () if addable else None
    if (u, m, s) in dead:
        return None
    row = universe._rows[u]
    for a in universe.alphabet:
        if a in row:
            rest = _least_addable(
                walk, row[a], m if m is None else minimal._rows[m].get(a),
                step(s, a, left - 1), left - 1)
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
    keys (universe state, minimal code state, set of exclusion pairs)
    (``_least_addable``).  Exact but worst-case exponential, hence meant
    for small block lengths.
    """
    _require_same_alphabet(code, channel)
    universe = _fitting_universe(code, universe)
    step, start, final = _exclusion_steps(code, channel.self_union_inverse())
    minimal = code.minimal
    found = _least_addable((universe, minimal, step, final, set()),
                           universe.initial_state, minimal.initial_state,
                           start, code.length)
    return Witness.none() if found is None else Witness.addable(found)


def _layer_counts(walk, code: Trellis, layers: int) -> dict:
    """Per nonempty set that ``walk`` (a result of ``_exclusion_steps`` on
    ``code``) reaches in ``layers`` steps from its start set, the number of
    words that reach it."""
    step, start, _ = walk
    layer = {start: 1} if start else {}
    for k in range(code.length - 1, code.length - 1 - layers, -1):
        following: dict = {}
        for s, n in layer.items():
            for a in code.alphabet.symbols:
                d = step(s, a, k)
                if d:
                    following[d] = following.get(d, 0) + n
        layer = following
    return layer


# a suffix mask below the index's cut holds at most 2 ** _TAIL_BITS bits
_TAIL_BITS = 12


def _tail_moves(t: Transducer) -> tuple[list, list]:
    """(moves, ends) per state q of t: the moves that read or write a symbol
    from the states that q reaches on epsilon/epsilon moves, q among them,
    as (input or None, output digit or None, target), and whether one of
    those states is final.  Such moves can cycle, and folding them in
    leaves a pair no move that keeps both its trellis state and its
    layer."""
    digit = t.alphabet._index
    silent = [[d for y, d in row.get(None, ()) if y is None]
              for row in t._moves]
    moves, ends = [], []
    for q in t.states:
        closed = _reach((q,), silent)
        moves.append(tuple(dict.fromkeys(
            (x, None if y is None else digit[y], d)
            for r in sorted(closed) for x, xmoves in t._moves[r].items()
            for y, d in xmoves if x is not None or y is not None)))
        ends.append(not closed.isdisjoint(t.final))
    return moves, ends


def _tail_masks(code: Trellis, t: Transducer, cut, layers: int) -> dict:
    """Per pair of ``cut`` (pairs m * n + q of ``_exclusion_steps`` that
    have ``layers`` symbols left to write) and per pair that they reach
    without writing, the words of that length that T can write from it to
    a final pair, as a bitmask over their ranks in
    Sigma^layers (symbols as digits in alphabet order, the first most
    significant; Baeza-Yates & Gonnet, CACM 1992).

    One pass down collects, per number k of symbols left to write, the
    pairs that the cut reaches and that pass the length test of
    ``_exclusion_steps``.  One pass up gives each its mask: a move that
    writes symbol i shifts the mask of its target, one layer down, by i
    |Sigma|^(k-1), and a move that reads a symbol and writes none ORs in
    that of its target, deeper in the trellis and in the same layer.
    ``_tail_moves`` folds in the epsilon/epsilon moves, and the minimal
    trellis numbers its states breadth-first, so a layer's pairs taken in
    decreasing order meet every such target first."""
    machine, ell, n = code.minimal, code.length, t.num_states
    rows, left, final = machine._rows, machine._left, machine.final_state
    feasible, stride = t._table(ell)[0], ell + 2
    moves, ends = _tail_moves(t)
    reached, here = [], set(cut)
    for k in range(layers, -1, -1):
        below: set = set()
        stack = list(here)
        while stack:
            m, q = divmod(stack.pop(), n)
            row = rows[m]
            for x, i, qd in moves[q]:
                md = m if x is None else row.get(x)
                if md is None:
                    continue
                d = md * n + qd
                if i is None:
                    if d not in here and feasible[qd][left[md] * stride + k]:
                        here.add(d)
                        stack.append(d)
                elif k and d not in below \
                        and feasible[qd][left[md] * stride + k - 1]:
                    below.add(d)
        reached.append(here)
        here = below
    masks: dict = {}
    for k, here in enumerate(reversed(reached)):
        lower, masks = masks, {}
        span = len(code.alphabet) ** (k - 1) if k else 0
        for p in sorted(here, reverse=True):
            m, q = divmod(p, n)
            row = rows[m]
            mask = int(m == final and ends[q]) if not k else 0
            for x, i, qd in moves[q]:
                md = m if x is None else row.get(x)
                if md is not None:
                    if i is None:
                        mask |= masks.get(md * n + qd, 0)
                    else:
                        mask |= lower.get(md * n + qd, 0) << i * span
            masks[p] = mask
    return masks


def maximality_index(code: Trellis, channel: Channel) -> Fraction:
    """|Sigma^l  intersect  (channel | channel^-1)(C)| / |Sigma^l|, exactly.

    The last b layers form the tail, b the most with |Sigma|^b <= 2^12 (12
    on a binary alphabet, 7 on a ternary one), and the cut sits at depth
    l - b.  Above it the forward walk of ``_exclusion_steps`` maps each set
    S it reaches to the number of prefixes that reach it (``_layer_counts``;
    at l <= 12 on a binary alphabet only the start set).  Below it each
    pair gets the bitmask of the suffixes it can write to the end
    (``_tail_masks``; shift-and, Baeza-Yates & Gonnet, CACM 1992).  A word
    is counted exactly when some pair of its prefix's set can write its
    suffix, so the index sums count(S) times the number of bits of the OR
    of the masks of S's pairs, one term per set.

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
    t = channel.self_union_inverse()
    size, tail = len(code.alphabet), 0
    while tail < code.length and size ** (tail + 1) <= 1 << _TAIL_BITS:
        tail += 1
    cut = _layer_counts(_exclusion_steps(code, t), code, code.length - tail)
    masks = _tail_masks(code, t, frozenset().union(*cut), tail)
    used = sum(count * reduce(or_, map(masks.__getitem__, s)).bit_count()
               for s, count in cut.items())
    return Fraction(used, size ** code.length)

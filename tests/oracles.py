"""Independent brute-force oracles used to cross-check the library.

Nothing here goes through the product/image machinery under test: images are
enumerated by walking raw transducer transitions, and the per-channel models
are written directly from each channel's informal description.  The
exceptions are ``exclusion_automaton``, the trimmed product that the
maximality walks, which never build it, are checked against (``product``
is itself checked against path enumeration), and
``predecessor_exclusion_steps``, a backward walk on the minimal
trellis's own states, which the index's suffix masks are checked against.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product as iproduct

from chancodes import Alphabet, Channel, Nfa, Transducer, Trellis, Word, \
    is_overlap_free, product


def enumerate_image(t: Transducer, word, max_len: int) -> set[Word]:
    """All outputs of ``t`` on ``word`` with length <= max_len, by exhaustive
    path enumeration over the transducer's transition tuples."""
    w = tuple(word)
    results: set[Word] = set()
    seen: set[tuple[int, int, Word]] = set()
    stack = [(q, 0, ()) for q in sorted(t.initial)]
    while stack:
        state, pos, out = stack.pop()
        if (state, pos, out) in seen:
            continue
        seen.add((state, pos, out))
        if state in t.final and pos == len(w):
            results.add(out)
        for src, inp, outw, dst in t.transitions:
            if src != state:
                continue
            if w[pos : pos + len(inp)] != inp:
                continue
            new_out = out + outw
            if len(new_out) > max_len:
                continue
            stack.append((dst, pos + len(inp), new_out))
    return results


def length_pairs(t: Transducer, q: int, bound: int) -> set[tuple[int, int]]:
    """The (input, output) lengths, each at most ``bound``, of the paths
    from state q to a final state: a search over (state, symbols read,
    symbols written) along the raw transitions."""
    seen = {(q, 0, 0)}
    stack = [(q, 0, 0)]
    while stack:
        state, i, o = stack.pop()
        for src, inp, out, dst in t.transitions:
            key = (dst, i + len(inp), o + len(out))
            if src == state and max(key[1:]) <= bound and key not in seen:
                seen.add(key)
                stack.append(key)
    return {(i, o) for state, i, o in seen if state in t.final}


def is_standard(t: Transducer) -> bool:
    """Every label holds at most one symbol on each side."""
    return all(len(i) <= 1 and len(o) <= 1 for _, i, o, _ in t.transitions)


def relation_pairs(t: Transducer, alphabet: Alphabet, max_in: int,
                   max_out: int) -> set[tuple[Word, Word]]:
    pairs = set()
    for n in range(max_in + 1):
        for x in alphabet.words_of_length(n):
            for y in enumerate_image(t, x, max_out):
                pairs.add((x, y))
    return pairs


# -- distances -------------------------------------------------------------------


def hamming_distance(u, v) -> int:
    u, v = tuple(u), tuple(v)
    assert len(u) == len(v)
    return sum(1 for a, b in zip(u, v) if a != b)


def hamming_ball(word, k: int, alphabet: Alphabet) -> set[Word]:
    w = tuple(word)
    return {
        v
        for v in alphabet.words_of_length(len(w))
        if hamming_distance(w, v) <= k
    }


def indel_distance(u, v) -> int:
    """Insertions+deletions needed to turn u into v: |u|+|v| - 2 LCS(u, v)."""
    u, v = tuple(u), tuple(v)
    rows = [[0] * (len(v) + 1) for _ in range(len(u) + 1)]
    for i in range(1, len(u) + 1):
        for j in range(1, len(v) + 1):
            if u[i - 1] == v[j - 1]:
                rows[i][j] = rows[i - 1][j - 1] + 1
            else:
                rows[i][j] = max(rows[i - 1][j], rows[i][j - 1])
    return len(u) + len(v) - 2 * rows[len(u)][len(v)]


# -- per-channel error models -------------------------------------------------------


def sub_image(word, k: int, alphabet: Alphabet) -> set[Word]:
    return hamming_ball(word, k, alphabet)


def id_image(word, k: int, alphabet: Alphabet) -> set[Word]:
    """Words reachable by at most k insertions/deletions."""
    w = tuple(word)
    out = set()
    for n in range(max(0, len(w) - k), len(w) + k + 1):
        for v in alphabet.words_of_length(n):
            if indel_distance(w, v) <= k:
                out.add(v)
    return out


def del1_image(word, alphabet: Alphabet) -> set[Word]:
    """Identity, or delete one symbol and append one symbol at the end."""
    w = tuple(word)
    out = {w}
    for i in range(len(w)):
        trunk = w[:i] + w[i + 1 :]
        for a in alphabet:
            out.add(trunk + (a,))
    return out


def ins1_image(word, alphabet: Alphabet) -> set[Word]:
    """Inverse of del1: v is a result iff word results from v under del1."""
    w = tuple(word)
    return {
        v
        for v in alphabet.words_of_length(len(w))
        if w in del1_image(v, alphabet)
    }


def edit_ball(word, spec: str, alphabet: Alphabet) -> set[Word]:
    """The words of the word's length in (sigma | sigma^-1)(word), built by
    applying the edits themselves rather than by testing all of Sigma^l, so
    that long words stay cheap: for sub:k at most k substitutions; for id:k
    rounds of one deletion and one insertion, k // 2 of them; for del1 the
    del1 image and its inverse, one symbol of the word without its last
    inserted anywhere."""
    w = tuple(word)
    head, _, arg = spec.partition(":")
    ball = {w}
    if head == "sub":
        for _ in range(int(arg)):
            ball |= {v[:i] + (a,) + v[i + 1:] for v in ball
                     for i in range(len(v)) for a in alphabet}
    elif head == "id":
        for _ in range(int(arg) // 2):
            ball |= {t[:j] + (a,) + t[j:] for v in ball
                     for i in range(len(v)) for t in (v[:i] + v[i + 1:],)
                     for j in range(len(t) + 1) for a in alphabet}
    elif spec == "del1":
        ball |= del1_image(w, alphabet) | {
            w[:-1][:i] + (a,) + w[:-1][i:] for i in range(len(w))
            for a in alphabet}
    else:
        raise ValueError(f"no edit ball for {spec}")
    return ball


def bsid_image(word, k: int, alphabet: Alphabet) -> set[Word]:
    """One left-to-right pass over the word with at most k events, each event a
    deletion, an insertion (also possible at the very end), or a swap of two
    adjacent differing symbols."""
    w = tuple(word)
    results: set[Word] = set()
    seen = set()
    stack = [(0, 0, ())]
    while stack:
        pos, errs, out = stack.pop()
        if (pos, errs, out) in seen:
            continue
        seen.add((pos, errs, out))
        if pos == len(w):
            results.add(out)
        if pos < len(w):
            stack.append((pos + 1, errs, out + (w[pos],)))  # plain copy
        if errs < k:
            if pos < len(w):
                stack.append((pos + 1, errs + 1, out))  # deletion
            for a in alphabet:
                stack.append((pos, errs + 1, out + (a,)))  # insertion
            if pos + 1 < len(w) and w[pos] != w[pos + 1]:
                stack.append((pos + 2, errs + 1, out + (w[pos + 1], w[pos])))
    return results


def segd_image(word, b: int) -> set[Word]:
    """At most one deletion in each consecutive length-b segment; empty if the
    input length is not a positive multiple of b."""
    w = tuple(word)
    if len(w) == 0 or len(w) % b != 0:
        return set()
    segments = [w[i : i + b] for i in range(0, len(w), b)]
    variants = []
    for seg in segments:
        opts = {seg}
        for i in range(b):
            opts.add(seg[:i] + seg[i + 1 :])
        variants.append(sorted(opts))
    out = set()
    for combo in iproduct(*variants):
        out.add(tuple(sym for part in combo for sym in part))
    return out


def overlap_image(word, alphabet: Alphabet, max_len: int) -> set[Word]:
    """Drop a prefix (keeping at least one symbol), then append any word;
    restricted to outputs of length <= max_len."""
    w = tuple(word)
    out = set()
    for i in range(len(w)):
        kept = w[i:]
        if len(kept) > max_len:
            continue
        for extra in range(max_len - len(kept) + 1):
            for tail in alphabet.words_of_length(extra):
                out.add(kept + tail)
    return out


# -- code-level predicates ------------------------------------------------------------


def brute_detecting(code, images: dict[Word, set[Word]]) -> bool:
    """No codeword maps to a different codeword."""
    code = [tuple(w) for w in code]
    for u in code:
        for v in code:
            if u != v and v in images[u]:
                return False
    return True


def brute_correcting(code, images: dict[Word, set[Word]]) -> bool:
    """No two distinct codewords share an output."""
    code = [tuple(w) for w in code]
    for i, u in enumerate(code):
        for v in code[i + 1 :]:
            if images[u] & images[v]:
                return False
    return True


def is_solid_code(words) -> bool:
    """Block solid code predicate: all words overlap-free, and no proper
    non-empty prefix of any codeword is a suffix of any codeword."""
    code = [tuple(w) for w in words]
    if not all(is_overlap_free(w) for w in code):
        return False
    for u in code:
        for v in code:
            if any(u[:k] == v[len(v) - k :] for k in range(1, len(u))):
                return False
    return True


def exclusion_automaton(code: Trellis, channel: Channel) -> Nfa:
    """Automaton for (channel | channel^-1)(C): the words excluded by C.
    Built on the minimal trellis, which accepts the same code."""
    return product(code.minimal, channel.self_union_inverse())


def predecessor_exclusion_steps(code: Trellis, t: Transducer):
    """(step, start set, final pairs) of the backward subset walk of the
    exclusion automaton T(C) on pairs m * n + q, m a state of the minimal
    trellis: its predecessor rows, several per symbol, read from the final
    state, and T reversed.  ``step(s, a, k)`` keeps the pairs whose T state
    can read the depth of m and write exactly k symbols.  A set B reached
    on a suffix holds the pairs that can write it and end, so the suffix
    masks of the index (``properties._tail_masks``) of the pairs of a set
    S hold, together, as many suffixes as the sets B that meet S count.
    """
    machine, ell, n = code.minimal, code.length, t.num_states
    t = t.reverse()
    rows = [{} for _ in machine.states]
    for p, a, d in machine.transitions:
        rows[d][a] = rows[d].get(a, ()) + (p,)
    depth = [ell - k for k in machine._left]
    stride = ell + 2
    ks = [[[k for k in range(ell + 1) if row[i * stride + k]]
           for i in range(ell + 1)] for row in t._table(ell)[0]]
    by_output = {y: [[] for _ in t.states]
                 for y in (None, *code.alphabet.symbols)}
    for q, row in enumerate(t._moves):
        for x, xmoves in row.items():
            for y, d in xmoves:
                by_output[y][q].append((x, d))
    fits: list[set] = [set() for _ in range(ell + 1)]

    def targets(p: int, moves) -> list[int]:
        m, q = divmod(p, n)
        return [md * n + qd for x, qd in moves[q]
                for md in ((m,) if x is None else rows[m].get(x, ()))]

    @cache
    def closure(p: int) -> frozenset:
        seen = {p}
        stack = [p]
        while stack:
            for d in targets(stack.pop(), by_output[None]):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        for d in seen:
            m, q = divmod(d, n)
            for k in ks[q][depth[m]]:
                fits[k].add(d)
        return frozenset(seen)

    def successors(moves, p: int) -> frozenset:
        return frozenset().union(*map(closure, targets(p, moves)))

    following = {a: cache(partial(successors, by_output[a]))
                 for a in code.alphabet.symbols}

    def step(s: frozenset, a: str, k: int) -> frozenset:
        return frozenset().union(*map(following[a], s)) & fits[k]

    if not machine.final:
        return step, frozenset(), frozenset()
    start = frozenset().union(*map(closure, [machine.final_state * n + q
                                             for q in t.initial]))
    return step, start & fits[-1], frozenset(machine.initial_state * n + q
                                             for q in t.final)


# -- trellises ------------------------------------------------------------------------


def prefix_tree(words, alphabet: Alphabet, length=None) -> Trellis:
    """The prefix tree of equal-length words with one merged final state:
    one state per distinct prefix, numbered in sorted word order, and the
    final state last.  The unreduced trellis that ``Trellis.minimal`` folds
    and that ``trellis_from_words`` must equal once folded."""
    coerced = sorted({alphabet.word(w) for w in words})
    if not coerced:
        return Trellis(alphabet, 1, {0}, set(), (), length=length)
    (ell,) = {len(w) for w in coerced}
    assert length in (None, ell)
    if ell == 0:
        return Trellis(alphabet, 1, {0}, {0}, (), length=0)
    final = -1  # numbered last, once every prefix has its number
    node_of: dict[Word, int] = {(): 0}
    transitions = []
    for w in coerced:
        q = 0
        for i, sym in enumerate(w[:-1]):
            prefix = w[: i + 1]
            if prefix not in node_of:
                node_of[prefix] = len(node_of)
                transitions.append((q, sym, node_of[prefix]))
            q = node_of[prefix]
        transitions.append((q, w[-1], final))
    final = len(node_of)
    return Trellis(alphabet, final + 1, {0}, {final},
                   [(s, a, final if d == -1 else d) for s, a, d in transitions],
                   length=ell)


def minimal_trellis(words, alphabet: Alphabet, length=None) -> Trellis:
    """The minimal trellis of equal-length words from its definition: one
    state per distinct set of suffixes that completes some prefix of a word
    into a word, numbered breadth-first from the set of all words with
    symbols in alphabet order.  The final state is the set {()}."""
    code = frozenset(alphabet.word(w) for w in words)
    if not code:
        return Trellis(alphabet, 1, {0}, set(), (), length=length)
    (ell,) = {len(w) for w in code}
    assert length in (None, ell)
    order = [code]
    transitions = []
    for i, suffixes in enumerate(order):  # ``order`` grows while it is read
        for sym in alphabet:
            after = frozenset(w[1:] for w in suffixes if w[:1] == (sym,))
            if after:
                if after not in order:
                    order.append(after)
                transitions.append((i, sym, order.index(after)))
    return Trellis(alphabet, len(order), {0}, {order.index(frozenset({()}))},
                   transitions, length=ell)


# -- orders and block shapes ----------------------------------------------------------


def simple_paths(num_states: int, transitions, start: int
                 ) -> list[tuple[int, ...]]:
    """Every path from ``start`` along the (source, label, target)
    ``transitions`` that repeats no state, as its tuple of states; the path
    of ``start`` alone included."""
    succ = [[d for s, _, d in transitions if s == q] for q in range(num_states)]
    paths, stack = [], [(start,)]
    while stack:
        path = stack.pop()
        paths.append(path)
        stack += [path + (d,) for d in succ[path[-1]] if d not in path]
    return paths


def has_cycle(num_states: int, transitions) -> bool:
    """Whether some edge leads back to a state that reaches its source."""
    return any(s in {p[-1] for p in simple_paths(num_states, transitions, d)}
               for s, _, d in transitions)


def heights(num_states: int, transitions) -> list[set[int]]:
    """Per state, the lengths of the paths from it to a state without
    successors (acyclic machines: every path is simple)."""
    sinks = set(range(num_states)) - {s for s, _, _ in transitions}
    return [{len(p) - 1 for p in simple_paths(num_states, transitions, q)
             if p[-1] in sinks} for q in range(num_states)]


def trellis_faults(num_states: int, final: int, transitions, length: int
                   ) -> dict[str, str]:
    """The faults of a would-be trellis with initial state 0 and the one
    final state ``final``, found by path enumeration, each mapped to the
    message with which ``Trellis(...)`` refuses an input that has it alone:

    - ``cycle``: some edge leads back to a state that reaches its source;
    - ``trim``: some state is on no path from 0 to ``final``;
    - ``layered``: some state is reached from 0 by paths of two lengths, or
      reaches ``final`` by paths of two lengths;
    - ``length``: the paths from 0 to ``final`` have one length, not
      ``length``.

    No fault means a valid trellis.
    """
    n = num_states
    unlayered = "trellis must be layered: it has a cycle or paths of " \
        "different lengths"
    from_initial = simple_paths(n, transitions, 0)
    depths = [{len(p) - 1 for p in from_initial if p[-1] == q}
              for q in range(n)]
    to_final = [{len(p) - 1 for p in simple_paths(n, transitions, q)
                 if p[-1] == final} for q in range(n)]
    faults = {}
    if has_cycle(n, transitions):
        faults["cycle"] = unlayered
    if set().union(*(p for p in from_initial if p[-1] == final)) != \
            set(range(n)):
        faults["trim"] = "trellis must be trim"
    if any(len(lengths) > 1 for lengths in depths + to_final):
        faults["layered"] = unlayered
    if len(depths[final]) == 1 and depths[final] != {length}:
        (ell,) = depths[final]
        faults["length"] = f"trellis accepts words of length {ell}, " \
            f"declared {length}"
    return faults


def block_code(machine: Nfa, length=None) -> "set[Word] | str":
    """What ``as_trellis(machine, length)`` makes of a DFA, by path
    enumeration: the set of its words when it is a block code, else the
    message of the error it raises.  Only the states on some initial->final
    path count, so a cycle elsewhere does no harm."""
    n, tr, final = machine.num_states, machine.transitions, machine.final
    (start,) = machine.initial
    useful = {p[-1] for p in simple_paths(n, tr, start)
              if any(q[-1] in final for q in simple_paths(n, tr, p[-1]))}
    if not useful:
        if length is None:
            return "empty language needs an explicit block length"
        return set()
    inner = [(s, a, d) for s, a, d in tr if s in useful and d in useful]
    if has_cycle(n, inner):
        return "automaton is cyclic; not a block code"
    words, stack = set(), [(start, ())]
    while stack:
        q, w = stack.pop()
        if q in final:
            words.add(w)
        stack += [(d, w + (a,)) for s, a, d in inner if s == q]
    lengths = {len(w) for w in words}
    if len(lengths) > 1:
        return "language has mixed lengths; not a block code"
    (ell,) = lengths
    if length is not None and length != ell:
        return f"language has length {ell}, declared {length}"
    return words


def machine_size(m) -> int:
    """States plus transition sizes: a transition counts 1 plus the symbols
    on its labels.  An automaton transition is (source, symbol or None,
    target); a transducer's is (source, input word, output word, target)."""
    def symbols(tr) -> int:
        if len(tr) == 4:
            return len(tr[1]) + len(tr[2])
        return tr[1] is not None

    return m.num_states + sum(1 + symbols(tr) for tr in m.transitions)

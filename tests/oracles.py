"""Independent brute-force oracles used to cross-check the library.

Nothing here goes through the product/image machinery under test: images are
enumerated by walking raw transducer transitions, and the per-channel models
are written directly from each channel's informal description.
"""

from __future__ import annotations

from itertools import product as iproduct

from chancodes import Alphabet, Transducer, Trellis, Word, is_overlap_free


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


def machine_size(m) -> int:
    """States plus transition sizes: a transition counts 1 plus the symbols
    on its labels.  An automaton transition is (source, symbol or None,
    target); a transducer's is (source, input word, output word, target)."""
    def symbols(tr) -> int:
        if len(tr) == 4:
            return len(tr[1]) + len(tr[2])
        return tr[1] is not None

    return m.num_states + sum(1 + symbols(tr) for tr in m.transitions)

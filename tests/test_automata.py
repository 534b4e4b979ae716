import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from chancodes import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    Dfa,
    EmptyLanguageError,
    FormatError,
    Nfa,
    ParameterError,
    Trellis,
    WordError,
    as_trellis,
    format_word,
    overlap_free_trellis,
    suffix_universe,
    trellis_from_words,
    universe_trellis,
)
from chancodes.automata import _Growing

import oracles


def random_nfa(rng: random.Random, max_states=6, eps=True) -> Nfa:
    n = rng.randint(1, max_states)
    labels = ["0", "1"] + ([None] if eps else [])
    transitions = []
    for _ in range(rng.randint(0, 3 * n)):
        transitions.append(
            (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        )
    states = list(range(n))
    initial = frozenset(rng.sample(states, rng.randint(1, n)))
    final = frozenset(rng.sample(states, rng.randint(0, n)))
    return Nfa(BINARY, n, initial, final, tuple(transitions))


def brute_accepts_dfa(d: Dfa, word) -> bool:
    """Path search over the raw transition tuples, no delta map."""
    current = {q for q in d.initial}
    for sym in word:
        current = {
            dst for src, lab, dst in d.transitions
            if src in current and lab == sym
        }
    return bool(current & d.final)


def machine_fields(m: Nfa) -> str:
    return repr((m.alphabet.symbols, m.num_states, sorted(m.initial),
                 sorted(m.final), m.transitions))


def random_dfa(rng: random.Random, max_states=6) -> Dfa:
    """A random partial DFA whose states lie on four layers: most edges go
    one layer down, so many of them are layered, and a few go anywhere, so
    some have cycles or paths of mixed lengths.  Unreachable parts, several
    final states and final states with successors all come up."""
    n = rng.randint(1, max_states)
    layer = [rng.randrange(4) for _ in range(n)]
    transitions = []
    for s in range(n):
        below = [d for d in range(n) if layer[d] == layer[s] - 1]
        for a in "01":
            r = rng.random()
            if r < 0.15:
                transitions.append((s, a, rng.randrange(n)))
            elif r < 0.7 and below:
                transitions.append((s, a, rng.choice(below)))
    top = [q for q in range(n) if layer[q] == max(layer)]
    initial = rng.choice(top if rng.random() < 0.7 else range(n))
    final = {q for q in range(n)
             if rng.random() < (0.8 if layer[q] == 0 else 0.15)}
    return Dfa(BINARY, n, {initial}, final, tuple(transitions))


class TestWordsOfLength:
    def test_last_symbol_varies_fastest(self):
        assert list(BINARY.words_of_length(2)) == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        assert list(Alphabet(("1", "0")).words_of_length(2)) == [
            ("1", "1"), ("1", "0"), ("0", "1"), ("0", "0")]
        assert list(BINARY.words_of_length(0)) == [()]

    def test_negative_length_rejected(self):
        # used to recurse until RecursionError
        with pytest.raises(ParameterError,
                           match="block length must be >= 0, got -1"):
            BINARY.words_of_length(-1)


class TestAlphabetWord:
    def test_every_printed_word_reads_back(self):
        for alphabet in (BINARY, Alphabet(("a", "bc")),
                         Alphabet(("bc", "a", "d"))):
            for n in range(4):
                for w in alphabet.words_of_length(n):
                    assert alphabet.word(format_word(w, alphabet)) == w

    def test_readings_of_a_string(self):
        ab = Alphabet(("a", "bc"))
        assert ab.word("bc") == ("bc",)
        assert ab.word(" a  bc\ta ") == ("a", "bc", "a")
        assert ab.word("aa") == ("a", "a")
        assert ab.word("") == ()
        with pytest.raises(WordError, match="symbol 'b' not in"):
            ab.word("abc")
        assert suffix_universe(ab, 3, "a bc").count_words() == 2
        # a line that is one symbol is that symbol, also where the symbol
        # is a concatenation of others; other lines split per character
        aa = Alphabet(("a", "aa"))
        assert aa.word("aa") == ("aa",)
        assert aa.word("a a") == ("a", "a")
        assert aa.word("aaa") == ("a", "a", "a")
        assert aa.word("aa a") == ("aa", "a")

    def test_every_word_reads_back_in_its_alphabets_form(self):
        # one written form per alphabet: spaced as soon as one symbol is
        # longer than a character, plain (as before) over {0,1}
        for alphabet in (Alphabet(("a", "aa")), Alphabet(("a", "bc")),
                         Alphabet(("bc", "a", "d")), BINARY):
            spaced = alphabet != BINARY
            for n in range(5):
                for w in alphabet.words_of_length(n):
                    text = format_word(w, alphabet)
                    assert alphabet.word(text) == w
                    assert (" " in text) == (spaced and n > 1)
        assert format_word(("a", "a", "a", "a"), Alphabet(("a", "bc"))) == \
            "a a a a"
        assert format_word(("0", "1", "1"), BINARY) == "011"


class TestMembership:
    def test_universe_membership(self):
        u = universe_trellis(BINARY, 3)
        assert u.accepts("010")
        assert not u.accepts("01")

    def test_block_code_membership(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        assert t.accepts("0100") and t.accepts("1001")
        assert not t.accepts("0000")

    def test_epsilon_cycle_accepts_empty_word(self):
        a = Nfa(BINARY, 2, frozenset({0}), frozenset({1}),
                ((0, None, 1), (1, None, 0)))
        assert a.accepts("")
        assert not a.accepts("0")

    def test_symbol_outside_alphabet_rejected(self):
        u = universe_trellis(BINARY, 2)
        with pytest.raises(WordError):
            u.accepts("0x")

    def test_accepts_agrees_with_path_search(self):
        rng = random.Random(13)
        for _ in range(40):
            nfa = random_nfa(rng, max_states=6, eps=False)
            d = nfa.determinize()
            assert d.num_states <= 2**6 + 1
            for _ in range(20):
                w = tuple(rng.choice("01") for _ in range(rng.randint(0, 6)))
                assert d.accepts(w) == brute_accepts_dfa(d, w)


class TestTrim:
    def test_removes_unreachable_component(self):
        a = Nfa(BINARY, 5, frozenset({0}), frozenset({2}),
                ((0, "0", 1), (1, "1", 2), (3, "0", 4), (4, "0", 3)))
        t = a.trim()
        assert t.num_states == 3
        assert t.words_up_to(4) == a.words_up_to(4)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_nfa(rng)
            once = a.trim()
            assert once.trim() == once

    def test_trim_machine_comes_back_equal_and_of_its_kind(self):
        """Nothing to drop: the same fields; a trellis trims to a plain DFA."""
        a = Nfa(BINARY, 3, frozenset({0}), frozenset({2}),
                ((0, None, 1), (0, "1", 2), (1, "0", 2)))
        d = a.determinize()
        code = trellis_from_words(["001", "010", "111"], BINARY)
        for machine, kind in ((a, Nfa), (d, Dfa), (code, Dfa)):
            trimmed = machine.trim()
            assert type(trimmed) is kind
            assert trimmed == kind(machine.alphabet, machine.num_states,
                                   machine.initial, machine.final,
                                   machine.transitions)

    def test_empty_language_trims_to_nothing(self):
        a = Nfa(BINARY, 2, frozenset({0}), frozenset(), ((0, "0", 1),))
        assert a.trim().num_states == 0


class TestDeterminize:
    def test_language_preserved(self):
        rng = random.Random(99)
        for _ in range(30):
            a = random_nfa(rng)
            d = a.determinize()
            assert a.words_up_to(8) == d.words_up_to(8)

    def test_two_initial_states(self):
        a = Nfa(BINARY, 4, frozenset({0, 1}), frozenset({2, 3}),
                ((0, "0", 2), (1, "1", 3)))
        d = a.determinize()
        assert len(d.initial) == 1
        assert {format_word(w, BINARY) for w in d.words_up_to(3)} == {"0", "1"}

    def test_numbering_is_pinned(self):
        """SHA-256 of the fields of 400 determinized random NFAs, epsilon
        edges included, every other one over the reversed symbol order.
        Computed with the hand-written subset loop that ``determinize`` ran
        before it became the subset walk inside the all-words DFA."""
        rng = random.Random(2026)
        lines, had_epsilon = [], set()
        for k in range(400):
            a = random_nfa(rng)
            if k % 2:
                a = dataclasses.replace(a, alphabet=REVERSED)
            had_epsilon.add(any(sym is None for _, sym, _ in a.transitions))
            lines.append(machine_fields(a.determinize()))
        assert had_epsilon == {True, False}
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "8f0790e7ed635bc1d9bf9a88bca98c197fcaf5f760995526736504c9c4855628"


class TestBooleanOps:
    def test_intersect_over_another_alphabet(self):
        ab = universe_trellis(Alphabet(("a", "bc")), 2)
        with pytest.raises(AlphabetMismatchError,
                           match=r"cannot intersect over \{0,1\} and \{a,bc\}"):
            universe_trellis(BINARY, 2).intersect(ab)

    def test_intersection_identity(self):
        u = universe_trellis(BINARY, 3)
        t = trellis_from_words(["010", "111"], BINARY)
        both = u.intersect(t).trim()
        assert {format_word(w, BINARY) for w in both.words_up_to(3)} == \
            {"010", "111"}

    @pytest.mark.parametrize("alphabet", [BINARY, Alphabet(("1", "0"))],
                             ids=["01", "10"])
    def test_walk_matches_word_set_algebra(self, alphabet):
        """``intersect`` against a raw epsilon-NFA accepts the set
        intersection of the two languages, and numbers its states
        breadth-first with symbols in alphabet order."""
        rng = random.Random(41)
        bound = 7
        had_epsilon = set()
        for _ in range(200):
            a = dataclasses.replace(random_nfa(rng), alphabet=alphabet)
            b = dataclasses.replace(random_nfa(rng), alphabet=alphabet)
            d = a.determinize()
            la, lb = a.words_up_to(bound), b.words_up_to(bound)
            both = d.intersect(b)
            assert both.words_up_to(bound) == la & lb
            assert both.initial_state == 0
            assert both.transitions == both.determinize().transitions
            had_epsilon.add(any(sym is None for _, sym, _ in b.transitions))
        assert had_epsilon == {True, False}

    @pytest.mark.parametrize("alphabet", [BINARY, Alphabet(("1", "0"))],
                             ids=["01", "10"])
    def test_length_filter_keeps_the_languages(self, alphabet):
        """With an acyclic DFA as ``self`` (trellises, minimal trellises,
        the trellises of their complements in Sigma^l and determinized
        acyclic NFAs of mixed lengths), ``intersect`` against a raw
        epsilon-NFA accepts the set intersection, numbers its states
        breadth-first, and builds exactly the pairs that a plain subset walk
        reaches: no set member is dropped for its lengths."""
        rng = random.Random(43)
        kinds = set()
        for k in range(300):
            code = dataclasses.replace(random_block_code(rng, BINARY),
                                       alphabet=alphabet)
            rest = set(alphabet.words_of_length(code.length)) - \
                set(code.iter_words())
            d = (code, code.minimal,
                 trellis_from_words(rest, alphabet, length=code.length),
                 dataclasses.replace(random_nfa(rng), alphabet=alphabet)
                 .determinize())[k % 4]
            if not d.is_acyclic:
                continue
            b = dataclasses.replace(random_nfa(rng), alphabet=alphabet)
            bound = 7  # no word of d is longer: codes and random_nfa paths
            ld, lb = d.words_up_to(bound), b.words_up_to(bound)
            result = d.intersect(b)
            assert result.words_up_to(bound) == ld & lb
            assert result.initial_state == 0
            assert result.transitions == result.determinize().transitions
            assert result.num_states == unfiltered_walk_size(d, b)
            kinds.add((k % 4, any(sym is None for _, sym, _ in b.transitions)))
        assert kinds == {(kind, eps) for kind in range(4)
                         for eps in (True, False)}


def unfiltered_walk_size(d: Dfa, other: Nfa) -> int:
    """The number of pairs (state of d, epsilon-closed set of states of
    other) that the subset walk meets without dropping any state: sets
    found by breadth-first search over the raw transition tuples."""
    def closure(states):
        seen, stack = set(states), list(states)
        while stack:
            q = stack.pop()
            for s, a, t in other.transitions:
                if s == q and a is None and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    start = (d.initial_state, closure(other.initial))
    seen, queue = {start}, [start]
    for p, subset in queue:
        for s, a, pd in d.transitions:
            if s != p:
                continue
            reach = closure({t for q, b, t in other.transitions
                             if q in subset and b == a})
            if reach and (pd, reach) not in seen:
                seen.add((pd, reach))
                queue.append((pd, reach))
    return len(seen)


class TestCyclicDfa:
    SELF_LOOP = Dfa(BINARY, 1, frozenset({0}), frozenset({0}), ((0, "0", 0),))
    TWO_CYCLE = Dfa(BINARY, 2, frozenset({0}), frozenset({1}),
                    ((0, "0", 1), (1, "1", 0)))

    @pytest.mark.parametrize("d", [SELF_LOOP, TWO_CYCLE])
    def test_counting_and_enumeration_refused(self, d):
        assert not d.is_acyclic
        with pytest.raises(ValueError, match="acyclic"):
            d.count_words()
        with pytest.raises(ValueError, match="acyclic"):
            d.iter_words()
        with pytest.raises(WordError, match="cyclic"):
            as_trellis(d)

    def test_least_word_still_works(self):
        assert self.SELF_LOOP.least_word() == ()
        assert self.TWO_CYCLE.least_word() == ("0",)


class TestTopologicalOrder:
    def test_order_and_layers_match_path_enumeration(self):
        """Random DFAs, among them cyclic ones, ones with unreachable
        parts, with several final states and with final states that have
        successors: ``_postorder`` is None exactly on a cycle and else puts
        every edge's target before its source; ``_left`` is the one length
        of the paths to a state without successors on layered DFAs; and
        ``as_trellis`` builds the words or raises the message that path
        enumeration gives."""
        rng = random.Random(71)
        kinds = set()
        for _ in range(400):
            d = random_dfa(rng)
            n, transitions = d.num_states, d.transitions
            order = d._postorder
            assert (order is None) == oracles.has_cycle(n, transitions)
            if order is not None:
                place = {q: i for i, q in enumerate(order)}
                assert sorted(order) == list(d.states)
                assert all(place[t] < place[s] for s, _, t in transitions)
                heights = oracles.heights(n, transitions)
                layered = all(len(h) == 1 for h in heights)
                assert d._is_layered == layered
                if layered:
                    assert d._left == tuple(min(h) for h in heights)
                    kinds.add("layered")
            length = rng.choice((None, None, rng.randint(0, 3)))
            expected = oracles.block_code(d, length)
            try:
                t = as_trellis(d, length)
            except WordError as exc:
                assert str(exc) == expected
                kinds.add(expected.split(";")[0])
            else:
                assert set(t.iter_words()) == expected
                if expected:
                    assert t.length == len(next(iter(expected)))
                kinds.add("block code")
            kinds.add(("cyclic", order is None))
            reached = {p[-1] for p in oracles.simple_paths(
                n, transitions, d.initial_state)}
            kinds.add(("unreachable", len(reached) < n))
            kinds.add(("finals", min(len(d.final), 2)))
            kinds.add(("final with successor",
                       any(s in d.final for s, _, _ in transitions)))
        assert kinds >= {
            "layered", "block code", "automaton is cyclic",
            "language has mixed lengths",
            "empty language needs an explicit block length",
            *(("cyclic", b) for b in (True, False)),
            *(("unreachable", b) for b in (True, False)),
            *(("finals", k) for k in (0, 1, 2)),
            *(("final with successor", b) for b in (True, False))}
        assert any(kind.startswith("language has length")
                   for kind in kinds if isinstance(kind, str))


class TestUniverseTrellis:
    def test_small(self):
        u = universe_trellis(BINARY, 2)
        assert u.num_states == 3
        assert {format_word(w, BINARY) for w in u.iter_words()} == \
            {"00", "01", "10", "11"}

    def test_count(self):
        assert universe_trellis(BINARY, 8).count_words() == 256

    def test_other_alphabet(self):
        abc = Alphabet(("a", "b", "c"))
        u = universe_trellis(abc, 1)
        assert {format_word(w, abc) for w in u.iter_words()} == {"a", "b", "c"}

    def test_degenerate_zero_length(self):
        u = universe_trellis(BINARY, 0)
        assert u.count_words() == 1
        assert u.accepts("")

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError, match="must be >= 0"):
            universe_trellis(BINARY, -1)


class TestTrellisFromWords:
    def test_two_words(self):
        t = trellis_from_words(["00", "11"], BINARY)
        assert {format_word(w, BINARY) for w in t.iter_words()} == {"00", "11"}
        assert len(t.final) == 1

    def test_exact_language(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        assert sorted(format_word(w, BINARY) for w in t.iter_words()) == \
            ["0100", "1001"]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(WordError):
            trellis_from_words(["0", "00"], BINARY)

    def test_empty_set_needs_length(self):
        with pytest.raises(WordError):
            trellis_from_words([], BINARY)
        t = trellis_from_words([], BINARY, length=3)
        assert t.count_words() == 0 and t.length == 3

    def test_negative_length_rejected(self):
        for words in ([], ["01"]):
            with pytest.raises(ParameterError, match="must be >= 0"):
                trellis_from_words(words, BINARY, length=-1)

    def test_builds_the_minimal_trellis(self):
        """The direct build equals the folded prefix tree, state numbers
        included, and is its own ``minimal``."""
        rng = random.Random(17)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        for k in range(240):
            alphabet = alphabets[k % 3]
            ell = k % 8
            words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                     for _ in range(rng.randint(0, 30))]
            t = trellis_from_words(words, alphabet, length=ell)
            assert t == oracles.prefix_tree(words, alphabet, length=ell).minimal
            assert t.minimal is t
            assert t == Trellis(alphabet, t.num_states, t.initial, t.final,
                                t.transitions, length=ell)

    @pytest.mark.parametrize("form", ["strings", "spaced", "tuples",
                                      "generator"])
    def test_equals_the_minimal_trellis_of_suffix_sets(self, form):
        """The build equals the referee from suffix sets, with the same
        ``_rows`` (dict item order included) and ``_left``, whatever form
        the words come in.  It hands both tables over, and with them
        deleted the trellis recomputes them equal."""
        rng = random.Random(30)
        for k in range(160):
            alphabet = FROM_WORDS_ALPHABETS[k % 4]
            ell = k % 10
            words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                     for _ in range(rng.randint(0, 40))]
            given = {
                "strings": [format_word(w, alphabet) for w in words],
                "spaced": [rng.choice((" ", "\t", "  ")).join(w)
                           for w in words],
                "tuples": words,
                "generator": (format_word(w, alphabet) for w in words),
            }[form]
            t = trellis_from_words(given, alphabet, length=ell)
            if words:
                assert {"_rows", "_left"} <= t.__dict__.keys()
            want = oracles.minimal_trellis(words, alphabet, length=ell)
            assert t == want
            assert row_items(t) == row_items(want) and t._left == want._left
            handed = row_items(t), t._left
            t.__dict__.pop("_rows", None)
            t.__dict__.pop("_left", None)
            assert (row_items(t), t._left) == handed

    def test_plain_strings_are_sorted_as_they_are(self, monkeypatch):
        """Over one-character symbols a list of strings of symbols is read
        without ``Alphabet.word``; a tuple, whitespace, a symbol outside the
        alphabet or a longer symbol sends every word through it."""
        read = []
        word = Alphabet.word
        monkeypatch.setattr(Alphabet, "word",
                            lambda self, w: read.append(w) or word(self, w))
        for words, alphabet, reads in (
                (["0110", "1001", "0110"], BINARY, 0),
                (["zyx", "xxy"], Alphabet(("z", "y", "x")), 0),
                (["0110", ("1", "0", "0", "1")], BINARY, 2),
                (["0110", "1 0 0 1"], BINARY, 2),
                (["a d", "d bc"], Alphabet(("a", "bc", "d")), 2)):
            read.clear()
            trellis_from_words(words, alphabet)
            assert len(read) == reads, words
        read.clear()
        with pytest.raises(WordError):
            trellis_from_words(["0110", "01x0"], BINARY)
        assert read == ["0110", "01x0"]

    def test_folding_add_word_growth_gives_the_same_trellis(self):
        """``minimal`` of a code grown word by word from the empty code
        (``Trellis._reduced``) numbers its classes as the direct build and
        comes with its ``_rows`` and ``_left``."""
        rng = random.Random(31)
        for k in range(160):
            alphabet = FROM_WORDS_ALPHABETS[k % 4]
            ell = k % 10
            t = trellis_from_words([], alphabet, length=ell)
            words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                     for _ in range(rng.randint(1, 30))]
            for w in words:
                t = t.add_word(w)
            m = t.minimal
            assert {"_rows", "_left"} <= m.__dict__.keys()
            want = oracles.minimal_trellis(words, alphabet)
            assert m == want == trellis_from_words(words, alphabet)
            assert row_items(m) == row_items(want) and m._left == want._left

    @pytest.mark.parametrize("words, alphabet, length, error, message", [
        (["01", "0y", "0x"], BINARY, None, WordError,
         "symbol 'y' not in alphabet {0,1}"),
        (["01", "1 2"], BINARY, None, WordError,
         "symbol '2' not in alphabet {0,1}"),
        (["01", ("0", "10")], BINARY, None, WordError,
         "symbol '10' not in alphabet {0,1}"),
        (["0\t1", "#1"], BINARY, None, WordError,
         "symbol '#' not in alphabet {0,1}"),
        (["a d", "abc"], Alphabet(("a", "bc", "d")), None, WordError,
         "symbol 'b' not in alphabet {a,bc,d}"),
        (["0", "00", ""], BINARY, None, WordError,
         "words have mixed lengths: [0, 1, 2]"),
        (["01", "1 0"], BINARY, 3, WordError,
         "words have length 2, declared 3"),
        ([], BINARY, None, WordError,
         "empty word set needs an explicit block length"),
        (["01"], BINARY, -1, ParameterError,
         "block length must be >= 0, got -1"),
    ], ids=["first-bad-word", "spaced", "tuple", "whitespace", "multi-char",
            "mixed", "declared", "empty", "negative"])
    def test_error_messages(self, words, alphabet, length, error, message):
        for given in (words, iter(words)):
            with pytest.raises(error) as info:
                trellis_from_words(given, alphabet, length)
            assert str(info.value) == message


class TestTrellisValidation:
    def test_final_less_trellis_must_be_the_empty_code(self):
        # cyclic and final-less: its minimal class map could not commute
        # with its transitions
        with pytest.raises(ValueError, match="empty code"):
            Trellis(BINARY, 2, {0}, set(), ((0, "0", 1), (1, "0", 0)),
                    length=2)
        with pytest.raises(ValueError, match="empty code"):
            Trellis(BINARY, 2, {0}, set(), (), length=2)
        with pytest.raises(ValueError, match="empty code"):
            Trellis(BINARY, 1, {0}, set(), ((0, "0", 0),), length=2)

    @pytest.mark.parametrize("num_states,final,transitions,length,match", [
        (3, 1, ((0, "0", 1),), 1, "trim"),
        (3, 2, ((0, "0", 1), (0, "1", 2)), 1, "trim"),
        (3, 1, ((0, "0", 1), (1, "0", 2)), 1, "trim"),
        (3, 2, ((0, "0", 1), (1, "0", 0), (1, "1", 2)), 2, "a cycle"),
        (3, 2, ((0, "0", 1), (0, "1", 2), (1, "1", 2)), 2,
         "paths of different lengths"),
        (2, 1, ((0, "0", 1),), 2, "length 1, declared 2"),
    ], ids=["unreachable-state", "dead-end", "final-with-successor",
            "two-cycle", "two-path-lengths", "declared-length"])
    def test_bad_shape_rejected(self, num_states, final, transitions, length,
                                match):
        with pytest.raises(ValueError, match=match):
            Trellis(BINARY, num_states, {0}, {final}, transitions,
                    length=length)

    def test_layered_check_matches_path_enumeration(self):
        """Mutated prefix trees: the constructor accepts exactly the inputs
        on which every state lies on an initial->final path, no path repeats
        a state, and every initial->final path has the declared length.  An
        input with one fault gets that fault's message; one with several
        gets the message of one of them."""
        rng = random.Random(31)
        verdicts, single = set(), set()
        for _ in range(1500):
            ell = rng.randint(1, 4)
            words = [tuple(rng.choice("01") for _ in range(ell))
                     for _ in range(rng.randint(1, 6))]
            tree = oracles.prefix_tree(words, BINARY)
            num = tree.num_states + rng.randint(0, 1)
            rows = {(s, a): d for s, a, d in tree.transitions}
            for _ in range(rng.randint(0, 2)):
                key = (rng.randrange(num), rng.choice("01"))
                if rng.random() < 0.3:
                    rows.pop(key, None)
                else:
                    rows[key] = rng.randrange(num)
            length = ell + rng.choice((0, 0, 0, 1, -1))
            transitions = tuple((s, a, d) for (s, a), d in rows.items())
            faults = oracles.trellis_faults(num, tree.final_state, transitions,
                                            length)
            try:
                Trellis(BINARY, num, {0}, tree.final, transitions,
                        length=length)
                message = None
            except ValueError as exc:
                message = str(exc)
            assert (message is None) == (not faults), (num, transitions, length)
            if len(faults) == 1:
                assert [message] == list(faults.values())
                successor = any(s == tree.final_state for s, _ in rows)
                single.add((*faults, successor))
            elif faults:
                assert message in faults.values()
            verdicts.add(message is None)
        assert verdicts == {True, False}
        assert single >= {("cycle", False), ("trim", False), ("trim", True),
                          ("layered", False), ("length", False)}

    def test_empty_code_still_builds(self):
        t = trellis_from_words((), BINARY, length=2)
        assert t == Trellis(BINARY, 1, {0}, set(), (), length=2)
        assert t.minimal == t
        assert t.add_word("01").count_words() == 1


# {0, 01}: two final states, one of them with an outgoing edge;
# {01, 1}: one final state, reached by paths of two lengths
MIXED_LENGTH_FILES = [
    "@DFA 1 2 * 0\n0 0 1\n1 1 2\n",
    "@DFA 2 * 0\n0 0 1\n1 1 2\n0 1 2\n",
]


class TestAsTrellis:
    @pytest.mark.parametrize("text", MIXED_LENGTH_FILES)
    def test_mixed_lengths_rejected(self, text):
        with pytest.raises(WordError, match="mixed lengths"):
            as_trellis(Nfa.from_text(text, BINARY))

    def test_from_text_reads_a_trellis(self):
        """``Trellis.from_text`` reads back what ``to_text`` writes, as a
        trellis; an @NFA file goes through ``as_trellis`` too."""
        rng = random.Random(11)
        for _ in range(20):
            ell = rng.randint(0, 5)
            words = {tuple(rng.choice("01") for _ in range(ell))
                     for _ in range(rng.randint(1, 6))}
            code = trellis_from_words(words, BINARY)
            for t in (code, code.minimal):
                back = Trellis.from_text(t.to_text(), BINARY)
                assert type(back) is Trellis and back == t
        nfa = "@NFA 3 * 0\n0 0 1\n0 0 2\n1 1 3\n2 0 3\n0 @epsilon 4\n4 1 2\n"
        read = Trellis.from_text(nfa, BINARY)
        assert type(read) is Trellis
        assert set(read.iter_words()) == {("0", "0"), ("0", "1"), ("1", "0")}

    def test_from_text_refuses_what_is_no_block_code(self):
        with pytest.raises(WordError, match="cyclic"):
            Trellis.from_text("@DFA 1 * 0\n0 0 0\n0 1 1\n", BINARY)
        with pytest.raises(WordError, match="mixed lengths"):
            Trellis.from_text(MIXED_LENGTH_FILES[0], BINARY)
        with pytest.raises(FormatError, match="expected one of @DFA, @NFA"):
            Trellis.from_text("@Transducer 0 * 0\n", BINARY)

    def test_several_finals_merged(self):
        # {00, 11} with one final state per word, through an NFA
        a = Nfa(BINARY, 5, frozenset({0}), frozenset({3, 4}),
                ((0, "0", 1), (0, "1", 2), (1, "0", 3), (2, "1", 4)))
        t = as_trellis(a)
        assert isinstance(t, Trellis) and len(t.final) == 1
        assert t == trellis_from_words(["00", "11"], BINARY)

    def test_empty_language_needs_length(self):
        a = Nfa(BINARY, 2, frozenset({0}), frozenset(), ((0, "0", 1),))
        with pytest.raises(WordError):
            as_trellis(a)
        assert as_trellis(a, length=3).count_words() == 0

    def test_declared_length_checked(self):
        with pytest.raises(WordError):
            as_trellis(universe_trellis(BINARY, 3), length=4)


class TestAddWord:
    def test_basic(self):
        t = trellis_from_words(["00"], BINARY)
        t2 = t.add_word("01")
        assert {format_word(w, BINARY) for w in t2.iter_words()} == {"00", "01"}

    def test_grow_from_empty(self):
        t = trellis_from_words([], BINARY, length=2)
        t = t.add_word("11").add_word("10")
        assert {format_word(w, BINARY) for w in t.iter_words()} == {"10", "11"}

    def test_noop_when_present(self):
        t = trellis_from_words(["00", "11"], BINARY)
        assert t.add_word("11") is t

    def test_wrong_length(self):
        t = trellis_from_words(["00"], BINARY)
        with pytest.raises(WordError):
            t.add_word("000")

    def test_language_and_determinism_random(self):
        rng = random.Random(31)
        for _ in range(20):
            ell = rng.randint(1, 10)
            words = {
                "".join(rng.choice("01") for _ in range(ell))
                for _ in range(rng.randint(0, 12))
            }
            t = trellis_from_words([], BINARY, length=ell)
            expected: set[str] = set()
            for w in sorted(words):
                t = t.add_word(w)
                expected.add(w)
                assert isinstance(t, Trellis)
                assert {format_word(x, BINARY) for x in t.iter_words()} == expected

    def test_trusted_result_equals_validated_trellis(self):
        # add_word skips the trim/acyclicity/depth checks; rebuilding the same
        # fields through the validating constructor must succeed and compare
        # equal, so the skipped checks would have passed
        rng = random.Random(47)
        alphabets = [BINARY, Alphabet(("a", "bc", "d"))]
        for _ in range(60):
            alphabet = rng.choice(alphabets)
            ell = rng.randint(1, 7)
            start = [
                tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                for _ in range(rng.randint(0, 5))
            ]
            t = trellis_from_words(start, alphabet, length=ell)
            for _ in range(rng.randint(1, 25)):
                w = tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                t = t.add_word(w)
                validated = Trellis(alphabet, t.num_states, t.initial, t.final,
                                    t.transitions, length=t.length)
                assert validated == t
                assert validated._rows == t._rows
                assert validated.count_words() == t.count_words()

    def test_grows_any_trellis(self):
        """On trellises where paths meet (minimal trellises, and DAGs read
        with ``Trellis.from_text``) the result accepts the set union and
        passes the validating constructor, and a ``_Growing`` that splices
        the same words keeps the counts of entering edges that a recount
        of the built trellis finds."""
        rng = random.Random(53)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        met = 0  # words whose prefix enters a state with two incoming edges
        for k in range(150):
            alphabet = alphabets[k % 3]
            if k % 2:
                t = random_block_code(rng, alphabet).minimal
            else:  # a random layered DAG, written as text and read back
                ell = rng.randint(1, 5)
                rows = [(d, rng.choice(alphabet.symbols), d + 1)
                        for d in range(ell)
                        for _ in range(rng.randint(1, 3))]
                lines = [f"@NFA {ell} * 0"]
                lines += [f"{s} {a} {d}" for s, a, d in rows]
                t = Trellis.from_text("\n".join(lines) + "\n", alphabet)
            expected = set(t.iter_words())
            growing = _Growing(t)
            for _ in range(rng.randint(1, 12)):
                w = tuple(rng.choice(alphabet.symbols)
                          for _ in range(t.length))
                met += enters_a_shared_state(t, w)
                t = t.add_word(w)
                expected.add(w)
                assert set(t.iter_words()) == expected
                validated = Trellis(alphabet, t.num_states, t.initial,
                                    t.final, t.transitions, length=t.length)
                assert validated == t
                if not growing.accepts(w):
                    growing.splice(w)
                built = growing.trellis()
                assert built == t
                assert growing._entering == \
                    Counter(d for _, _, d in built.transitions)
        assert met > 100

    def test_rows_are_handed_on_as_a_fresh_build_has_them(self):
        """``add_word`` hands its result a ``_rows`` table and sorted
        transitions equal to what the validating constructor builds, dict
        item order included, and leaves the parent's rows as they were."""
        rng = random.Random(59)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        kinds = ["tree", "minimal", "clone", "dag"]
        met = 0  # words whose prefix enters a state with two incoming edges
        for k in range(120):
            alphabet, kind = alphabets[k % 3], kinds[k % 4]
            syms = alphabet.symbols
            grow = []
            if kind == "clone":  # as in test_confluent_prefix_is_cloned
                words = ["000000", "001011", "111111"]
                t = trellis_from_words(
                    [[syms[int(c)] for c in w] for w in words], alphabet)
                grow.append(tuple(syms[int(c)] for c in "001000"))
            elif kind == "dag":  # a layered DAG read back from text
                ell = rng.randint(1, 5)
                lines = [f"@NFA {ell} * 0"] + [
                    f"{d} {rng.choice(syms)} {d + 1}"
                    for d in range(ell) for _ in range(rng.randint(1, 3))]
                t = Trellis.from_text("\n".join(lines) + "\n", alphabet)
            else:
                t = random_block_code(rng, alphabet)
                if kind == "minimal":
                    t = t.minimal
            grow += [tuple(rng.choice(syms) for _ in range(t.length))
                     for _ in range(rng.randint(1, 10))]
            for w in grow:
                met += enters_a_shared_state(t, w)
                parent_rows = t._rows
                before = [list(row.items()) for row in parent_rows]
                grown = t.add_word(w)
                if grown is t:
                    continue
                assert "_rows" in grown.__dict__  # handed on, not rebuilt
                assert t._rows is parent_rows
                assert [list(row.items()) for row in t._rows] == before
                fresh = Trellis(alphabet, grown.num_states, grown.initial,
                                grown.final, grown.transitions,
                                length=grown.length)
                assert fresh == grown  # the constructor sorts transitions
                assert [list(row.items()) for row in grown._rows] == \
                    [list(row.items()) for row in fresh._rows]
                t = grown
        assert met > 100

    def test_confluent_prefix_is_cloned(self):
        # 0010 and 1111 lead to one state of the minimal trellis (its right
        # language is {11}); branching off there must not add 111100 too
        t = trellis_from_words(["000000", "001011", "111111"], BINARY).minimal
        grown = t.add_word("001000")
        assert {format_word(w, BINARY) for w in grown.iter_words()} == \
            {"000000", "001000", "001011", "111111"}


REVERSED = Alphabet(("1", "0"))
# one-character symbols in and against string order, and a longer symbol
FROM_WORDS_ALPHABETS = [BINARY, REVERSED, Alphabet(("a", "bc", "d")),
                        Alphabet(("z", "y", "x"))]


def row_items(t: Trellis) -> list:
    """``t._rows`` with the order of each row's items."""
    return [list(row.items()) for row in t._rows]


def enters_a_shared_state(t: Trellis, w) -> bool:
    """Whether the path of a prefix of ``w`` enters a state with more than
    one incoming edge, where ``add_word`` must clone."""
    entered = [d for _, _, d in t.transitions]
    q = t.initial_state
    for sym in w[:-1]:
        q = t._rows[q].get(sym)
        if q is None:
            return False
        if entered.count(q) > 1:
            return True
    return False


def random_block_code(rng: random.Random, alphabet: Alphabet) -> Trellis:
    """The prefix tree of up to 24 random words, so that ``minimal`` has
    states to merge."""
    ell = rng.randint(0, 7)
    words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
             for _ in range(rng.randint(0, 24))]
    return oracles.prefix_tree(words, alphabet, length=ell)


def right_languages(t: Trellis) -> set:
    """The distinct right languages of the states, by word enumeration over
    the raw transition tuples."""
    return set(suffix_sets(t))


def suffix_sets(t: Trellis) -> list:
    """Per state, its right language, by word enumeration over the raw
    transition tuples."""
    langs: dict[int, frozenset] = {}

    def lang(q: int) -> frozenset:
        if q not in langs:
            words = {()} if q in t.final else set()
            for src, sym, dst in t.transitions:
                if src == q:
                    words |= {(sym,) + w for w in lang(dst)}
            langs[q] = frozenset(words)
        return langs[q]

    return [lang(q) for q in t.states]


class TestMinimal:
    def test_random_codes(self):
        rng = random.Random(12)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        shrunk = 0
        for k in range(150):
            t = random_block_code(rng, alphabets[k % 3])
            m = t.minimal
            assert isinstance(m, Trellis) and m.length == t.length
            assert set(m.iter_words()) == set(t.iter_words())
            assert m.num_states == len(right_languages(t))
            shrunk += m.num_states < t.num_states
            # idempotent
            assert m.minimal == m
        assert shrunk > 75

    def test_classes_numbered_breadth_first_in_alphabet_order(self):
        for alphabet in (BINARY, REVERSED):
            t = trellis_from_words(["000", "011", "101", "110"], alphabet)
            m = t.minimal
            order = [0]
            for q in order:
                for sym in alphabet:
                    d = m._rows[q].get(sym)
                    if d is not None and d not in order:
                        order.append(d)
            assert order == list(m.states)
        # reversed symbol order: state 1 is reached on "1"
        assert m._rows[0]["1"] == 1

    def test_suffix_masks_hold_the_ranks_of_the_suffixes(self, monkeypatch):
        """A state's ``_suffix_masks`` entry has bit i set exactly for the
        word of rank i in Sigma^left that leads from it to the final state
        (symbols as digits in alphabet order, the first most significant),
        and ``_unrank`` on Sigma^left reads each such bit back as its word.
        It is -1 exactly where |Sigma|^left > 2^_MASK_BITS: with masks of
        at most 4096, 16 and 4 bits, some states over each alphabet get
        -1."""
        from chancodes import automata, universe_trellis

        rng = random.Random(31)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        unmasked = set()
        for k in range(150):
            bits = (12, 4, 2)[k // 3 % 3]
            monkeypatch.setattr(automata, "_MASK_BITS", bits)
            m = random_block_code(rng, alphabets[k % 3]).minimal
            size = len(m.alphabet)
            digit = {a: i for i, a in enumerate(m.alphabet)}
            masks = m._suffix_masks
            for q, words in enumerate(suffix_sets(m)):
                left = m._left[q]
                if size ** left > 2 ** bits:
                    assert masks[q] == -1
                    unmasked.add(m.alphabet)
                    continue
                ranks = {sum(digit[a] * size ** i
                             for i, a in enumerate(reversed(w)))
                         for w in words}
                assert masks[q] == sum(1 << i for i in ranks)
                chain = universe_trellis(m.alphabet, left)
                assert {chain._unrank(i) for i in ranks} == words
        assert unmasked == set(alphabets)

    def test_padded_masks_hold_the_ranks_of_the_padded_suffixes(
            self, monkeypatch):
        """``_padded_masks(d)`` has bit i set exactly for the word of rank i
        in Sigma^(left + d) that is a suffix of the state followed by any d
        symbols, S(q) Sigma^d, by brute force; it is -1 exactly where
        |Sigma|^(left + d) > 2^_MASK_BITS, at 12, 4 and 2 bits, and
        ``_padded_masks(0)`` is ``_suffix_masks``."""
        from chancodes import automata
        from itertools import product as words_of

        rng = random.Random(35)
        alphabets = [BINARY, REVERSED, Alphabet(("a", "bc", "d"))]
        unmasked = set()
        for k in range(90):
            bits = (12, 4, 2)[k // 3 % 3]
            monkeypatch.setattr(automata, "_MASK_BITS", bits)
            m = random_block_code(rng, alphabets[k % 3]).minimal
            size = len(m.alphabet)
            digit = {a: i for i, a in enumerate(m.alphabet)}
            assert m._padded_masks(0) == m._suffix_masks
            for pad in (1, 2):
                masks = m._padded_masks(pad)
                tails = list(words_of(m.alphabet.symbols, repeat=pad))
                for q, words in enumerate(suffix_sets(m)):
                    if size ** (m._left[q] + pad) > 2 ** bits:
                        assert masks[q] == -1
                        unmasked.add((m.alphabet, pad))
                        continue
                    ranks = {sum(digit[a] * size ** i
                                 for i, a in enumerate(reversed(w + x)))
                             for w in words for x in tails}
                    assert masks[q] == sum(1 << i for i in ranks), (q, pad)
        assert unmasked == {(a, pad) for a in alphabets for pad in (1, 2)}

    def test_suffix_masks_stay_small_on_long_sparse_codes(self):
        """On three words of length 40 a state gets a mask exactly when it
        has at most 12 symbols left, so no mask holds more than 2^12 bits,
        where one at the root would take 2^40.  A code longer than the
        recursion limit gets its masks too, since the pass follows
        ``_postorder`` and does not recurse."""
        import sys

        words = ["0" * 40, "01" * 20, "1" * 40]
        m = trellis_from_words(words, BINARY)
        masks = m._suffix_masks
        assert [q for q in m.states if masks[q] == -1] \
            == [q for q in m.states if m._left[q] > 12]
        assert masks[m.initial_state] == -1
        assert 0 < max(mask.bit_length() for mask in masks) <= 2 ** 12
        long = "0" * (sys.getrecursionlimit() + 10)
        m = trellis_from_words([long, long[1:] + "1"], BINARY)
        assert m._suffix_masks[m.initial_state] == -1
        assert m._suffix_masks[m.final_state] == 1

    def test_empty_code(self):
        t = trellis_from_words([], BINARY, length=3)
        m = t.minimal
        assert (m.num_states, m.final, m.transitions) == (1, frozenset(), ())
        assert m.length == 3

    def test_length_zero_code(self):
        t = trellis_from_words([""], BINARY)
        assert t.minimal == t

    def test_cached(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        assert t.minimal is t.minimal

    @pytest.mark.parametrize("words, length", [
        (["0100", "1001", "1000"], None), ([], 3), ([""], None),
    ], ids=["code", "empty", "length-0"])
    def test_freed_without_the_cycle_collector(self, words, length):
        """No trellis refers to itself: with the cycle collector off, a
        ``trellis_from_words`` result, its own ``minimal``, is freed as
        soon as it is dropped, and so are a prefix tree and the minimal
        trellis it caches."""
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            t = trellis_from_words(words, BINARY, length)
            assert t.minimal is t and t._left == t.minimal._left
            ref = weakref.ref(t)
            del t
            assert ref() is None
            tree = oracles.prefix_tree(words, BINARY, length=length)
            refs = [weakref.ref(tree), weakref.ref(tree.minimal)]
            del tree
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestCountingAndSampling:
    def test_count_matches_enumeration(self):
        rng = random.Random(4)
        for _ in range(15):
            ell = rng.randint(1, 10)
            words = {
                "".join(rng.choice("01") for _ in range(ell))
                for _ in range(rng.randint(1, 40))
            }
            t = trellis_from_words(words, BINARY)
            assert t.count_words() == len(words)
            assert {format_word(w, BINARY) for w in t.iter_words()} == words

    def test_sampling_uniform_chi_squared(self):
        # 30 words, 1e5 draws, fixed seed; critical value for df=29 at the
        # 0.001 level is 58.3012
        words = [format_word(w, BINARY) for w in BINARY.words_of_length(6)][:30]
        t = trellis_from_words(words, BINARY)
        rng = random.Random(20240817)
        draws = 100_000
        counts: dict[str, int] = {w: 0 for w in words}
        for _ in range(draws):
            counts[format_word(t.sample_uniform(rng), BINARY)] += 1
        expected = draws / 30
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 58.3012

    def test_two_word_frequencies(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        assert t.count_words() == 2
        rng = random.Random(8)
        hits = sum(
            1 for _ in range(10_000)
            if format_word(t.sample_uniform(rng), BINARY) == "0100"
        )
        # 3 sigma around p=1/2 over 10k draws
        assert abs(hits / 10_000 - 0.5) < 3 * 0.005

    def test_empty_language_sampling_error(self):
        t = trellis_from_words([], BINARY, length=4)
        with pytest.raises(EmptyLanguageError):
            t.sample_uniform(random.Random(0))

    def test_counts_on_universe(self):
        u = universe_trellis(BINARY, 8)
        rng = random.Random(17)
        seen = {format_word(u.sample_uniform(rng), BINARY) for _ in range(2000)}
        assert len(seen) > 250  # almost all of the 256 words show up


def draw_universe(name: str) -> Dfa:
    """The automata whose seeded draw streams are pinned below."""
    if name == "sigma8":
        return universe_trellis(BINARY, 8)
    if name == "sigma13":
        return universe_trellis(BINARY, 13)
    if name == "of8":
        return overlap_free_trellis(BINARY, 8)
    if name == "end01":
        return suffix_universe(BINARY, 8, "01")
    if name == "mixed-depth":
        # finals at depths 1, 2 and 3, so a draw can stop before the end
        return Dfa(BINARY, 4, frozenset({0}), frozenset({1, 2, 3}),
                   ((0, "0", 1), (0, "1", 2), (1, "0", 2), (1, "1", 3),
                    (2, "0", 3), (2, "1", 3)))
    alphabet = {"reversed": REVERSED,
                "three": Alphabet(("a", "bc", "d"))}[name]
    rng = random.Random(71)
    words = {tuple(rng.choice(alphabet.symbols) for _ in range(7))
             for _ in range(60)}
    return trellis_from_words(words, alphabet, length=7)


def draw_stream(u: Dfa, seed: int, draws: int = 2000) -> list:
    rng = random.Random(seed)
    return [u.sample_uniform(rng) for _ in range(draws)]


# SHA-256 of 2,000 seeded sample_uniform draws, one word a line, per
# automaton.  Computed with the symbol-by-symbol walk that drew words before
# ranks were memoized; a draw is a pure function of one randrange call, so
# the stream must not move.
PINNED_DRAW_STREAMS = [
    ("sigma8",
     "fc3d614224ba9aa81d6cc707b8fc33a1248b4fd054a31e8763e5d12929f37983"),
    ("sigma13",
     "ba96fd274e415209298e1a852de6863ce4b8a0cc63a3fea3a24c2fb1e37de380"),
    ("of8",
     "9b6fc8b4dc26c4bc2fff2cf3b56c71f5ad3b701734b18895e71b6cd170175f7f"),
    ("end01",
     "dbd40d1e9cfb6a67394508df3024f6a049ad8d6554867068bdcbc29ec77aafef"),
    ("reversed",
     "01c69187acac619c2618cc701f35b5cb9284225bdf927230120c2a2202ad7856"),
    ("three",
     "d5b6facff5651f06410c770a2409586bcd2a9db62c82709136855bfc8c305cef"),
    ("mixed-depth",
     "53c6bafefb3e11b6501def5e21b877a06df859e6fc43a6014db0d9f7e13c8580"),
]


@pytest.mark.parametrize("name,digest", PINNED_DRAW_STREAMS,
                         ids=[name for name, _ in PINNED_DRAW_STREAMS])
def test_draw_stream_is_pinned(name, digest):
    lines = "".join(" ".join(w) + "\n"
                    for w in draw_stream(draw_universe(name), seed=2024))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["sigma8", "of8", "three", "mixed-depth"])
def test_warmed_memo_draws_like_a_fresh_automaton(name):
    warm = draw_universe(name)
    draw_stream(warm, seed=5)  # fills the memo of drawn ranks
    assert 0 < len(warm._drawn) <= warm.count_words()
    fresh = draw_universe(name)
    assert "_drawn" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert draw_stream(warm, seed=9) == draw_stream(fresh, seed=9)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert fresh._drawn.items() <= warm._drawn.items()
    # every memo entry is the word of its rank in enumeration order
    ranked = list(warm.iter_words())
    assert all(ranked[rank] == w for rank, w in warm._drawn.items())

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from chancodes import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    Channel,
    NotDetectingError,
    ParameterError,
    Transducer,
    Witness,
    as_trellis,
    channel_from_spec,
    correction_witness,
    detection_witness,
    format_word,
    make_del1_insend,
    make_id,
    make_overlap,
    make_sub,
    maximality_index,
    maximality_witness,
    overlap_free_trellis,
    product,
    suffix_universe,
    trellis_from_words,
    universe_trellis,
)

from chancodes import automata, properties

import oracles
from oracles import exclusion_automaton


def hamming_7_4() -> list[str]:
    rows = [
        (1, 0, 0, 0, 1, 1, 0),
        (0, 1, 0, 0, 1, 0, 1),
        (0, 0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1),
    ]
    code = []
    for bits in iproduct((0, 1), repeat=4):
        word = [0] * 7
        for flag, row in zip(bits, rows):
            if flag:
                word = [(c + r) % 2 for c, r in zip(word, row)]
        code.append("".join(str(c) for c in word))
    return sorted(set(code))


def systematic_del1_code() -> list[str]:
    return ["".join(bits) + "01" for bits in iproduct("01", repeat=6)]


class TestWitnessRendering:
    def test_strings(self):
        w = BINARY.word
        assert Witness.none().to_text(BINARY) == "NONE"
        assert Witness.detection(w("00"), w("01")).to_text(BINARY) == \
            "DETECT-VIOLATION 00 01"
        assert Witness.correction(w("00"), w("11"), w("01")).to_text(
            BINARY) == "CORRECT-VIOLATION 00 11 via 01"
        assert Witness.addable(w("10")).to_text(BINARY) == "ADDABLE 10"
        # over {a, aa} the word (a, a) is written spaced, so it reads back
        aa = Alphabet(("a", "aa"))
        assert Witness.addable(("a", "a")).to_text(aa) == "ADDABLE a a"
        assert not Witness.none()
        assert Witness.addable(w("10"))


class TestDetection:
    def test_overlap_violation_pair(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        w = detection_witness(t, make_overlap())
        assert w.kind == "detect-violation"
        assert {format_word(w.u, BINARY), format_word(w.v, BINARY)} == \
            {"0100", "1001"}
        # the reported pair is a genuine one
        assert make_overlap().transducer.image(w.u).accepts(w.v)

    def test_witness_deterministic(self):
        t = trellis_from_words(["0100", "1001"], BINARY)
        first = detection_witness(t, make_overlap())
        for _ in range(3):
            again = detection_witness(t, make_overlap())
            assert (again.u, again.v) == (first.u, first.v)

    def test_hamming_code_sub2(self):
        code = hamming_7_4()
        assert len(code) == 16
        dist = min(oracles.hamming_distance(u, v)
                   for u, v in combinations(code, 2))
        assert dist == 3
        t = trellis_from_words(code, BINARY)
        assert not detection_witness(t, make_sub(2))
        assert detection_witness(t, make_sub(3))

    def test_two_word_indel(self):
        t = trellis_from_words(["00", "11"], BINARY)
        assert not detection_witness(t, make_id(1))

    def test_violation_seen_only_as_two_overhangs(self):
        # no step of the search meets a mismatch on this channel: the
        # violation shows only as two different overhangs at one triple
        t = Transducer(BINARY, 2, {0, 1}, {0, 1}, (
            (0, "0", "0", 1), (0, "1", "10", 1), (1, "", "0", 0),
            (1, "0", "", 1), (1, "00", "1", 0), (1, "1", "", 1),
            (1, "11", "00", 1),
        ))
        words = [BINARY.word("0"), BINARY.word("1")]
        images = {w: oracles.enumerate_image(t, w, 1) for w in words}
        assert not oracles.brute_detecting(words, images)
        got = detection_witness(trellis_from_words(["0", "1"], BINARY),
                                Channel("two-overhangs", t))
        assert got.u != got.v and got.v in images[got.u]

    def test_empty_and_singleton_codes(self):
        empty = trellis_from_words([], BINARY, length=4)
        assert not detection_witness(empty, make_sub(2))
        single = trellis_from_words(["0000"], BINARY)
        assert not detection_witness(single, make_sub(2))

    @pytest.mark.parametrize("ell,rounds,max_size", [(4, 80, 4), (5, 40, 5)])
    def test_witness_pair_verified_against_oracle(self, ell, rounds, max_size):
        rng = random.Random(3)
        channels = [make_sub(1), make_id(1), make_del1_insend(), make_overlap()]
        pool = [format_word(w, BINARY) for w in BINARY.words_of_length(ell)]
        for _ in range(rounds):
            combo = rng.sample(pool, rng.randint(1, max_size))
            t = trellis_from_words(combo, BINARY)
            for ch in channels:
                images = {
                    BINARY.word(w): oracles.enumerate_image(
                        ch.transducer, BINARY.word(w), 6
                    )
                    for w in combo
                }
                expected = oracles.brute_detecting(
                    [BINARY.word(w) for w in combo], images
                )
                got = detection_witness(t, ch)
                assert (not got) == expected, (combo, ch.name)
                if got:
                    assert format_word(got.u, BINARY) in combo
                    assert format_word(got.v, BINARY) in combo
                    assert got.u != got.v
                    assert got.v in images[got.u]


class TestCorrection:
    def test_hamming_corrects_one_substitution(self):
        t = trellis_from_words(hamming_7_4(), BINARY)
        assert not correction_witness(t, make_sub(1))

    def test_overlapping_balls(self):
        t = trellis_from_words(["000", "011"], BINARY)
        w = correction_witness(t, make_sub(1))
        assert w.kind == "correct-violation"
        assert format_word(w.z, BINARY) in {"010", "001"}
        assert {format_word(w.u, BINARY), format_word(w.v, BINARY)} == \
            {"000", "011"}

    def test_distance_three_pair(self):
        t = trellis_from_words(["000", "111"], BINARY)
        assert not correction_witness(t, make_sub(1))

    def test_shared_output_is_genuine(self):
        rng = random.Random(11)
        pool = [format_word(w, BINARY) for w in BINARY.words_of_length(4)]
        channels = [make_sub(1), make_id(1), make_del1_insend()]
        for _ in range(60):
            combo = rng.sample(pool, rng.randint(2, 3))
            t = trellis_from_words(combo, BINARY)
            for ch in channels:
                got = correction_witness(t, ch)
                images = {
                    BINARY.word(w): oracles.enumerate_image(
                        ch.transducer, BINARY.word(w), 6
                    )
                    for w in combo
                }
                expected = oracles.brute_correcting(
                    [BINARY.word(w) for w in combo], images
                )
                assert (not got) == expected, (combo, ch.name)
                if got:
                    assert got.z in images[got.u] and got.z in images[got.v]


class TestMaximality:
    def test_empty_code_any_word_addable(self):
        t = trellis_from_words([], BINARY, length=3)
        w = maximality_witness(t, make_sub(1))
        assert w.kind == "addable"
        assert len(w.w) == 3

    def test_singleton_sub2(self):
        t = trellis_from_words(["0000"], BINARY)
        w = maximality_witness(t, make_sub(2))
        assert w.kind == "addable"
        assert oracles.hamming_distance(w.w, BINARY.word("0000")) >= 3
        assert format_word(w.w, BINARY) == "0111"  # least witness under 0 < 1

    def test_index_singleton_sub1(self):
        t = trellis_from_words(["0000"], BINARY)
        assert maximality_index(t, make_sub(1)) == Fraction(5, 16)

    def test_index_requires_detecting_code(self):
        t = trellis_from_words(["0000", "0001"], BINARY)
        with pytest.raises(NotDetectingError) as err:
            maximality_index(t, make_sub(1))
        assert err.value.witness.kind == "detect-violation"

    def test_systematic_del1_code_is_maximal(self):
        t = trellis_from_words(systematic_del1_code(), BINARY)
        del1 = make_del1_insend()
        assert maximality_index(t, del1) == 1
        assert not maximality_witness(t, del1)

    def test_witness_agrees_with_index(self):
        rng = random.Random(41)
        pool = [format_word(w, BINARY) for w in BINARY.words_of_length(4)]
        channels = [make_sub(1), make_sub(2), make_id(1), make_del1_insend()]
        checked_maximal = 0
        for _ in range(60):
            combo = rng.sample(pool, rng.randint(1, 4))
            t = trellis_from_words(combo, BINARY)
            for ch in channels:
                if detection_witness(t, ch):
                    continue
                idx = maximality_index(t, ch)
                found = maximality_witness(t, ch)
                assert bool(found) == (idx < 1), (combo, ch.name)
                if found:
                    # the witness really can be added
                    grown = t.add_word(found.w)
                    assert grown is not t
                    assert not detection_witness(grown, ch)
                else:
                    checked_maximal += 1
        assert checked_maximal  # the family does hit maximal cases

    def test_restricted_universe(self):
        # within the words ending in 1, {001} excludes its whole sub-ball
        t = trellis_from_words(["0001"], BINARY)
        universe = suffix_universe(BINARY, 4, "1")
        w = maximality_witness(t, make_sub(1), universe)
        assert w.kind == "addable"
        assert format_word(w.w, BINARY).endswith("1")
        assert oracles.hamming_distance(w.w, BINARY.word("0001")) >= 2
        # the answers of the CLI's --universe of and --end universes
        of4, of6 = (overlap_free_trellis(BINARY, n) for n in (4, 6))
        for words, spec, universe, least in (
                (["0001"], "sub:1", of4, "0111"),
                (["0001"], "sub:1", suffix_universe(BINARY, 4, "11"), "0111"),
                (["000000"], "id:2", suffix_universe(BINARY, 6, "01"),
                 "000101"),
                (["000000"], "del1", as_trellis(
                    of6.intersect(suffix_universe(BINARY, 6, "1")), 6),
                 "000011")):
            t = trellis_from_words(words, BINARY)
            found = maximality_witness(t, channel_from_spec(spec), universe)
            assert found == Witness.addable(BINARY.word(least)), spec
        # on overlap-free and fixed-suffix universes at lengths 6-9 the
        # witness is the least universe word outside the code and related
        # to no codeword either way, or NONE when there is none; codes: two
        # random words, and greedy scans of the shuffled universe over half
        # of it (addable words left) and all of it (maximal in it)

        def one_deletion(w):
            return {w[:i] + w[i + 1:] for i in range(len(w))}

        related = {  # u -> v through the channel, u and v of one length
            "sub:1": lambda u, v: oracles.hamming_distance(u, v) <= 1,
            "sub:2": lambda u, v: oracles.hamming_distance(u, v) <= 2,
            # two equal-length words are 2 indels apart iff deleting one
            # symbol from each leaves the same word
            "id:2": lambda u, v: not one_deletion(u).isdisjoint(
                one_deletion(v)),
            "del1": lambda u, v: v in oracles.del1_image(u, BINARY),
            # drop a prefix of i < |u| symbols, then append i symbols
            "ov": lambda u, v: any(u[i:] == v[:len(u) - i]
                                   for i in range(len(u))),
        }
        def excluded(rel, w, words):
            return w in words or any(rel(c, w) or rel(w, c) for c in words)

        rng = random.Random(61)
        answers = set()
        for ell in (6, 7, 8, 9):
            pool = list(BINARY.words_of_length(ell))
            for universe in (overlap_free_trellis(BINARY, ell),
                             suffix_universe(BINARY, ell,
                                             rng.choice(["1", "01", "110"]))):
                allowed = list(universe.iter_words())
                for spec, rel in related.items():
                    codes = [set(rng.sample(pool, 2))]
                    for scan in (0.5, 1.0):
                        order = rng.sample(allowed, len(allowed))
                        words: set = set()
                        for w in order[:int(len(order) * scan)]:
                            if not excluded(rel, w, words):
                                words.add(w)
                        codes.append(words)
                    for words in codes:
                        least = next((w for w in allowed
                                      if not excluded(rel, w, words)), None)
                        t = trellis_from_words(words, BINARY, length=ell)
                        found = maximality_witness(
                            t, channel_from_spec(spec), universe)
                        expected = Witness.none() if least is None \
                            else Witness.addable(least)
                        assert found == expected, (spec, ell, sorted(words))
                        answers.add(least is None)
        assert answers == {True, False}

    @pytest.mark.parametrize("spec", ["sub:1", "id:1", "id:2", "del1", "ov",
                                      "bsid2"])
    def test_length_zero(self, spec):
        """At length 0 the only word is the empty one: the empty code can
        take it (index 0), the code {epsilon} is maximal, and its index is
        1 unless the channel maps epsilon to nothing (ov keeps a symbol)."""
        ch = channel_from_spec(spec)
        empty = trellis_from_words([], BINARY, length=0)
        eps = trellis_from_words([""], BINARY)
        assert maximality_witness(empty, ch) == Witness.addable(())
        assert maximality_index(empty, ch) == 0
        assert maximality_witness(eps, ch) == Witness.none()
        assert maximality_index(eps, ch) == (0 if spec == "ov" else 1)
        for code in (empty, eps):  # the empty universe has nothing to add
            assert not maximality_witness(code, ch, empty)

    def test_witness_stops_at_the_least_addable_word(self, monkeypatch):
        """On a half-greedy sub:2 code of length 10 the witness is the least
        addable word at every mask width.  At 12 bits the cut sits at the
        start key, so no set is stepped; at 4 bits it sits at depth 6, and
        each key above it is stepped once per symbol, at most 2 (2^6 - 1)
        = 126 times, where building universe - C - exclusion in full took
        932 subset steps (``Nfa._step`` calls)."""
        rng = random.Random(0)
        pool = list(BINARY.words_of_length(10))
        rng.shuffle(pool)
        words: list = []
        blocked: set = set()
        for w in pool[:len(pool) // 2]:
            if w not in blocked:
                words.append(w)
                blocked |= oracles.sub_image(w, 2, BINARY)
        calls = 0
        walk = properties._exclusion_steps

        def counting(code, t):
            step, start = walk(code, t)

            def counted(subset, sym, k):
                nonlocal calls
                calls += 1
                return step(subset, sym, k)

            return counted, start

        monkeypatch.setattr(properties, "_exclusion_steps", counting)
        for bits, steps in ((12, range(1)), (4, range(1, 127))):
            monkeypatch.setattr(automata, "_MASK_BITS", bits)
            calls = 0
            code = trellis_from_words(words, BINARY, length=10)
            found = maximality_witness(code, make_sub(2))
            assert found == Witness.addable(BINARY.word("0110111100"))
            assert calls in steps, bits

    def test_witness_answers_past_the_recursion_limit(self):
        """On {0^L, 1^L}, L above the recursion limit, the walk answers
        without recursing: under sub:2 the least addable word is
        0^(L-3)111, the least word at distance 3 from both codewords, and
        under del1 it is 0^(L-2)11, since every word of weight 1 is a del1
        preimage of 0^L."""
        import sys

        n = sys.getrecursionlimit() + 10
        code = trellis_from_words(["0" * n, "1" * n], BINARY)
        for spec, least in (("sub:2", "0" * (n - 3) + "111"),
                            ("del1", "0" * (n - 2) + "11")):
            assert maximality_witness(code, channel_from_spec(spec)) \
                == Witness.addable(BINARY.word(least)), spec

    @pytest.mark.parametrize("spec", ["sub:2", "del1", "id:2"])
    def test_index_expands_each_pair_once_per_layer_below_the_cut(
            self, monkeypatch, spec):
        """On a maximal greedy code of length 12 the cut sits at the start
        set, so the index steps no set, and each pass of the tail expands
        each pair at most once per layer it can be in: once in all on
        sub:2, whose every pair writes as many symbols as it reads, and
        there every pair of the trimmed product is met."""
        channel = channel_from_spec(spec)
        rng = random.Random(0)
        pool = list(BINARY.words_of_length(12))
        rng.shuffle(pool)
        words: list = []
        blocked: set = set()
        for w in pool:
            if w not in blocked:
                words.append(w)
                blocked |= oracles.edit_ball(w, spec, BINARY)
        code = trellis_from_words(words, BINARY, length=12)
        steps = []
        walk = properties._exclusion_steps

        def counting(code, t):
            step, start = walk(code, t)

            def counted(subset, sym, k):
                steps.append(k)
                return step(subset, sym, k)

            return counted, start

        read_rows, read_moves = [], []

        class Rows(tuple):
            def __getitem__(self, m):
                read_rows.append(m)
                return tuple.__getitem__(self, m)

        class Moves(tuple):
            def __iter__(self):
                read_moves.append(self.q)
                return tuple.__iter__(self)

        tail_moves = properties._tail_moves

        def logged_moves(t):
            moves, ends = tail_moves(t)
            logged = [Moves(row) for row in moves]
            for q, row in enumerate(logged):
                row.q = q
            return logged, ends

        tail = properties._tail_masks
        layers = []

        def logged_tail(code, t, cut, width):
            layers.append(width)
            m = code.minimal
            rows = m._rows
            object.__setattr__(m, "_rows", Rows(rows))
            try:
                return tail(code, t, cut, width)
            finally:
                object.__setattr__(m, "_rows", rows)

        monkeypatch.setattr(properties, "_exclusion_steps", counting)
        monkeypatch.setattr(properties, "_tail_moves", logged_moves)
        monkeypatch.setattr(properties, "_tail_masks", logged_tail)
        assert maximality_index(code, channel) == 1
        assert steps == [] and layers == [12]
        assert len(read_rows) == len(read_moves) > 0
        t = channel.self_union_inverse()
        n, stride = t.num_states, 14
        feasible, left = t._table(12)[0], code.minimal._left
        met = Counter(m * n + q for m, q in zip(read_rows, read_moves))
        for p, times in met.items():
            m, q = divmod(p, n)
            fits = sum(feasible[q][left[m] * stride + k] for k in range(13))
            assert times <= 2 * fits, (spec, p)
        if spec == "sub:2":
            assert set(met.values()) == {2}
            assert len(met) == exclusion_automaton(code, channel).num_states

    def test_universe_must_fit_the_code(self):
        t = trellis_from_words(["0000", "1111"], BINARY)
        with pytest.raises(ParameterError):
            maximality_witness(t, make_sub(1), universe_trellis(BINARY, 3))
        abc = Alphabet(("a", "b"))
        with pytest.raises(AlphabetMismatchError):
            maximality_witness(t, make_sub(1), universe_trellis(abc, 4))

    @pytest.mark.parametrize("decide", [
        detection_witness, correction_witness, maximality_witness,
        maximality_index])
    def test_code_alphabet_must_match_the_channel(self, decide):
        t = trellis_from_words(["ab", "ba"], Alphabet(("a", "b")))
        with pytest.raises(AlphabetMismatchError, match="code over"):
            decide(t, make_sub(1))

    def test_index_equals_exclusion_probability(self):
        # empirical check of the probabilistic reading of the index
        t = trellis_from_words(["0000"], BINARY)
        ch = make_sub(1)
        idx = maximality_index(t, ch)
        blocked = exclusion_automaton(t, ch).determinize()
        u = universe_trellis(BINARY, 4)
        rng = random.Random(2024)
        draws = 10_000
        hits = sum(
            1 for _ in range(draws) if blocked.accepts(u.sample_uniform(rng))
        )
        p = float(idx)
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(hits / draws - p) <= 3 * sigma

    @pytest.mark.parametrize("ch", [make_sub(2), make_id(2)],
                             ids=["sub2", "id2"])
    def test_exclusion_walks_one_copy_of_a_symmetric_channel(self, ch):
        # sigma^-1 is sigma renamed, so the reduced sigma | sigma^-1 keeps
        # one copy and the exclusion automaton at most half the states
        t = ch.transducer
        rng = random.Random(12)
        for ell in (1, 3, 6):
            pool = ["".join(w) for w in iproduct("01", repeat=ell)]
            words = rng.sample(pool, min(len(pool), 5))
            code = trellis_from_words(words, BINARY, length=ell)
            full = product(code.minimal, t.union(t.inverse()))
            assert 2 * exclusion_automaton(code, ch).num_states \
                <= full.num_states


class TestMaximalCorrectionEquivalence:
    def test_maximal_correction_equals_composed_detection(self):
        # maximal correcting iff maximal detecting for the composed channel,
        # checked directly against brute force on length-3 codes
        ch = make_sub(1)
        pool = [format_word(w, BINARY) for w in BINARY.words_of_length(3)]
        images = {
            BINARY.word(w): oracles.enumerate_image(
                ch.transducer, BINARY.word(w), 5
            )
            for w in pool
        }
        comp = Channel(
            "sub1-then-back",
            ch.transducer.inverse().compose(ch.transducer),
        )
        for size in (1, 2):
            for combo in combinations(pool, size):
                words = [BINARY.word(w) for w in combo]
                if not oracles.brute_correcting(words, images):
                    continue
                # brute maximal-correcting: no word of the complement keeps
                # the code correcting when added
                brute_maximal = True
                for w in pool:
                    if w in combo:
                        continue
                    cand = words + [BINARY.word(w)]
                    if oracles.brute_correcting(cand, images):
                        brute_maximal = False
                        break
                t = trellis_from_words(combo, BINARY)
                found = maximality_witness(t, comp)
                assert (not found) == brute_maximal, combo


# -- referee: witnesses on random transducers, checked by brute force ---------------


@pytest.mark.parametrize("alphabet", [BINARY, Alphabet(("a", "bc"))],
                         ids=["01", "a-bc"])
def test_random_channel_witnesses_are_genuine(alphabet):
    """On random transducers (epsilon/epsilon edges and cycles included) every
    detection witness is a pair u != v of codewords with v in sigma(u), every
    correction witness adds a shared output z, and NONE comes exactly when
    the brute-force oracles find no violation."""
    from test_codegen import random_channel

    rng = random.Random(17)
    seen = set()
    for _ in range(150):
        channel = random_channel(rng, alphabet)
        ell = rng.randint(1, 4)
        words = sorted({
            tuple(rng.choice(alphabet.symbols) for _ in range(ell))
            for _ in range(rng.randint(1, 6))
        })
        code = trellis_from_words(words, alphabet)
        detect = detection_witness(code, channel)
        correct = correction_witness(code, channel)
        # NONE must hold up to any bound; a shared output must show at its own
        bound = max(ell + 2, len(correct.z) if correct else 0)
        images = {w: oracles.enumerate_image(channel.transducer, w, bound)
                  for w in words}
        assert (not detect) == oracles.brute_detecting(words, images), words
        assert (not correct) == oracles.brute_correcting(words, images), words
        if detect:
            assert detect.u in words and detect.v in words
            assert detect.u != detect.v
            assert detect.v in images[detect.u]
        if correct:
            assert correct.u in words and correct.v in words
            assert correct.u != correct.v
            assert correct.z in images[correct.u] & images[correct.v]
        eps_eps = any(not inp and not out
                      for _, inp, out, _ in channel.transducer.transitions)
        seen.add((eps_eps, bool(detect), bool(correct)))
    # epsilon/epsilon channels meet violating and NONE answers of both kinds
    assert {(True, True), (True, False)} <= {(e, d) for e, d, _ in seen}
    assert {(True, True), (True, False)} <= {(e, c) for e, _, c in seen}


@pytest.mark.parametrize("alphabet", [BINARY, Alphabet(("a", "bc"))],
                         ids=["01", "a-bc"])
def test_random_channel_maximality_matches_brute_force(alphabet):
    """On random transducers (epsilon/epsilon edges and cycles included) the
    index counts the words of the block length in sigma(C) | sigma^-1(C),
    ADDABLE names the least word of the universe outside C and that set, and
    NONE comes exactly when no such word exists.  Every other case passes a
    random sub-universe of Sigma^l, the empty one included."""
    from test_codegen import random_channel

    rng = random.Random(23)
    universe_rng = random.Random(29)  # keeps the channel stream of rng
    seen = set()
    for k in range(150):
        channel = random_channel(rng, alphabet)
        t = channel.transducer
        ell = rng.randint(1, 3)
        pool = list(alphabet.words_of_length(ell))
        words = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        code = trellis_from_words(words, alphabet, length=ell)
        images = {w: oracles.enumerate_image(t, w, ell) for w in pool}
        excluded = [w for w in pool
                    if any(w in images[c] for c in words)
                    or images[w] & words]
        universe = None
        allowed = pool
        if k % 2:
            allowed = set(universe_rng.sample(
                pool, universe_rng.randint(0, len(pool))))
            universe = trellis_from_words(allowed, alphabet, length=ell)
        addable = [w for w in pool if w in allowed
                   and w not in words and w not in excluded]
        found = maximality_witness(code, channel, universe)
        if addable:
            assert found == Witness.addable(addable[0]), (t.to_text(), words)
        else:
            assert not found, (t.to_text(), words)
        detecting = oracles.brute_detecting(words, images)
        if detecting:
            assert maximality_index(code, channel) == Fraction(
                len(excluded), len(pool)), (t.to_text(), words)
        else:
            with pytest.raises(NotDetectingError):
                maximality_index(code, channel)
        eps_eps = any(not inp and not out for _, inp, out, _ in t.transitions)
        seen.add((eps_eps, bool(found), detecting, universe is None))
    # epsilon/epsilon channels meet both answer kinds; both index branches
    # run; a sub-universe meets both answer kinds
    assert {(True, True), (True, False)} <= {(e, f) for e, f, _, _ in seen}
    assert {d for _, _, d, _ in seen} == {True, False}
    assert {(True, False), (False, False)} <= {(f, u) for _, f, _, u in seen}


def greedy_detecting(rng, pool, code, channel, tries):
    """``code`` grown by up to ``tries`` random words of ``pool`` that keep
    it detecting for ``channel``."""
    for w in rng.sample(pool, min(tries, len(pool))):
        grown = code.add_word(w)
        if not detection_witness(grown, channel):
            code = grown
    return code


def test_lazy_exclusion_walk_matches_the_trimmed_product(monkeypatch):
    """The index and the least addable word that the on-demand walk finds
    are those read off the trimmed product ``exclusion_automaton``, on
    random transducers and on every zoo channel at block lengths 4-6,
    over the full universe, random sub-universes, overlap-free words and a
    suffix universe.  With masks of one bit the tail is the last layer, so
    the walk steps every layer above it.  Its length filter is looser than
    trimming, so some walks keep more pairs than the trimmed product has
    states."""
    from test_codegen import random_channel

    kept: set = set()
    walk = properties._exclusion_steps

    def recording(code, t):
        step, start = walk(code, t)

        def recorded(subset, sym, k):
            found = step(subset, sym, k)
            kept.update(found)
            return found

        return recorded, start

    monkeypatch.setattr(properties, "_exclusion_steps", recording)
    monkeypatch.setattr(automata, "_MASK_BITS", 1)
    rng = random.Random(43)
    zoo = ["sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "bsid2",
           "segd:3", "ov"]
    cases = [(channel_from_spec(spec), ell) for spec in zoo
             for ell in (4, 6)]
    cases += [(random_channel(rng, BINARY), rng.randint(4, 6))
              for _ in range(60)]
    loose = 0
    for channel, ell in cases:
        pool = list(BINARY.words_of_length(ell))
        full = universe_trellis(BINARY, ell)
        empty = trellis_from_words([], BINARY, length=ell)
        codes = [greedy_detecting(rng, pool, empty, channel, 6),
                 trellis_from_words(rng.sample(pool, 3), BINARY)]
        universes = [None, overlap_free_trellis(BINARY, ell),
                     suffix_universe(BINARY, ell, rng.choice(["1", "01"])),
                     trellis_from_words(
                         rng.sample(pool, rng.randint(0, len(pool) // 2)),
                         BINARY, length=ell)]
        for code in codes:
            x = exclusion_automaton(code, channel)
            blocked = x.determinize()
            for universe in universes:
                least = next((w for w in (universe or full).iter_words()
                              if not code.accepts(w)
                              and not blocked.accepts(w)), None)
                expected = Witness.none() if least is None \
                    else Witness.addable(least)
                kept.clear()
                assert maximality_witness(code, channel, universe) \
                    == expected, (channel.name, ell, list(code.iter_words()))
                loose += len(kept) > x.num_states
            if not detection_witness(code, channel):
                kept.clear()
                assert maximality_index(code, channel) == Fraction(
                    full.intersect(x).count_words(), 2 ** ell), channel.name
                loose += len(kept) > x.num_states
    assert loose


def test_index_meets_in_the_middle_at_every_split_parity():
    """The index equals the count read off the trimmed product
    ``exclusion_automaton`` at block lengths 0, 1, 2, 3, 5 and 7, odd and
    even, where the suffix-mask tail covers every layer and the cut is the
    start set: on every zoo channel and on random transducers, for the
    empty code, a one-word code and greedy codes."""
    from test_codegen import random_channel

    rng = random.Random(47)
    zoo = ["sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "bsid2",
           "segd:3", "ov"]
    answers, moves = set(), set()
    for ell in (0, 1, 2, 3, 5, 7):
        pool = list(BINARY.words_of_length(ell))
        full = universe_trellis(BINARY, ell)
        empty = trellis_from_words([], BINARY, length=ell)
        channels = [channel_from_spec(spec) for spec in zoo]
        channels += [random_channel(rng, BINARY) for _ in range(25)]
        for channel in channels:
            codes = [empty, trellis_from_words([rng.choice(pool)], BINARY),
                     greedy_detecting(rng, pool, empty, channel, 8),
                     greedy_detecting(rng, pool, empty, channel, len(pool))]
            for code in codes:
                if detection_witness(code, channel):
                    continue
                x = exclusion_automaton(code, channel)
                index = maximality_index(code, channel)
                assert index == Fraction(full.intersect(x).count_words(),
                                         2 ** ell), \
                    (channel.transducer.to_text(), ell,
                     list(code.iter_words()))
                answers.add(index == 1)
                if channel.name == "random":
                    moves |= {(not i, not o) for _, i, o, _
                              in channel.transducer.transitions}
    assert answers == {True, False}
    # epsilon-input, epsilon-output and epsilon/epsilon moves all occur
    assert {(True, False), (False, True), (True, True)} <= moves


def brute_image_count(sigma: Transducer, words, alphabet, ell: int) -> int:
    """|Sigma^l intersect (sigma | sigma^-1)(C)|, by path enumeration over
    the raw transducer: the outputs of each codeword, and the words with a
    codeword among their outputs."""
    excluded = {w for c in words for w in oracles.enumerate_image(sigma, c, ell)
                if len(w) == ell}
    excluded |= {w for w in alphabet.words_of_length(ell)
                 if not set(words).isdisjoint(
                     oracles.enumerate_image(sigma, w, ell))}
    return len(excluded)


def test_index_matches_brute_force_at_every_cut(monkeypatch):
    """The index equals the brute-force count of (sigma | sigma^-1)(C) with
    the tail masks at most 2, 4, 8 or 4096 bits wide, so that the cut
    falls at every depth of the codes up to length 4: over the alphabets 01, {a, bc}
    and {0, 1, 2}, on zoo channels and random transducers, for detecting
    codes that ``make_code`` grows and for one-word codes."""
    from chancodes import make_code
    from test_codegen import random_channel

    tail = properties._tail_masks
    widths = set()

    def recorded(code, t, cut, layers):
        widths.add((code.length, layers))
        return tail(code, t, cut, layers)

    monkeypatch.setattr(properties, "_tail_masks", recorded)
    rng = random.Random(59)
    zoo = ["sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "ov"]
    alphabets = [BINARY, Alphabet(("a", "bc")), Alphabet(("0", "1", "2"))]
    answers = set()
    for k in range(300):
        alphabet = alphabets[k % 3]
        if k % 2:
            channel = random_channel(rng, alphabet)
        else:
            channel = channel_from_spec(rng.choice(zoo), alphabet)
        ell = rng.randint(0, 5 if len(alphabet) == 2 else 4)
        if rng.random() < 0.7:
            words = make_code(channel, rng.randint(1, 12), ell,
                              seed=k).words
        else:
            words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))]
        if detection_witness(trellis_from_words(words, alphabet, length=ell),
                             channel):
            continue
        expected = Fraction(brute_image_count(
            channel.transducer, words, alphabet, ell), len(alphabet) ** ell)
        for bits in (1, 2, 3, 12):
            monkeypatch.setattr(automata, "_MASK_BITS", bits)
            code = trellis_from_words(words, alphabet, length=ell)
            assert maximality_index(code, channel) == expected, \
                (channel.transducer.to_text(), alphabet, words, bits)
        answers.add(expected == 1)
    assert answers == {True, False}
    cuts = {(ell, ell - layers) for ell, layers in widths}
    assert {(ell, h) for ell in range(5) for h in range(ell + 1)} <= cuts


def test_witness_matches_brute_force_at_every_cut(monkeypatch):
    """The witness is the brute-force least word of U - (C | (sigma |
    sigma^-1)(C)) with the masks at most 2, 4, 8 or 4096 bits wide, so
    that the cut falls at every depth of the codes up to length 4, and
    keys above it carry their least prefixes: over the alphabets 01,
    {1, 0}, {a, bc} and {0, 1, 2}, on zoo channels and random transducers,
    for codes that ``make_code`` grows and for random ones, in the full,
    overlap-free, suffix and random-file universes.  Masks are cached per
    trellis, so each is built after the width is set."""
    from chancodes import Trellis, make_code
    from test_codegen import random_channel, random_layered_dfa

    tail = properties._tail_masks
    widths = set()

    def recorded(code, t, cut, layers):
        widths.add((code.length, layers))
        return tail(code, t, cut, layers)

    monkeypatch.setattr(properties, "_tail_masks", recorded)
    rng = random.Random(61)
    zoo = ["sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "ov"]
    alphabets = [BINARY, Alphabet(("1", "0")), Alphabet(("a", "bc")),
                 Alphabet(("0", "1", "2"))]
    answers = set()
    for k in range(240):
        alphabet = alphabets[k % 4]
        if rng.random() < 0.5:
            channel = random_channel(rng, alphabet)
        else:
            channel = channel_from_spec(rng.choice(zoo), alphabet)
        ell = rng.randint(0, 5 if len(alphabet) == 2 else 4)
        space = list(alphabet.words_of_length(ell))
        if rng.random() < 0.6:
            words = make_code(channel, rng.randint(1, 12), ell,
                              seed=k).words
        else:
            words = rng.sample(space, rng.randint(0, min(len(space), 8)))
        # a random-file universe is a layered DFA, which needs ell > 0
        kind = k // 4 % (4 if ell else 3)
        pattern = rng.choices(alphabet.symbols, k=rng.randint(0, ell))
        text = random_layered_dfa(rng, alphabet, ell) if ell else None
        image = set(words)
        for c in words:
            image |= oracles.enumerate_image(channel.transducer, c, ell)
        image |= {w for w in space if not set(words).isdisjoint(
            oracles.enumerate_image(channel.transducer, w, ell))}
        for bits in (1, 2, 3, 12):
            monkeypatch.setattr(automata, "_MASK_BITS", bits)
            code = trellis_from_words(words, alphabet, length=ell)
            if kind == 0:
                universe = universe_trellis(alphabet, ell)
            elif kind == 1:
                universe = overlap_free_trellis(alphabet, ell)
            elif kind == 2:
                universe = suffix_universe(alphabet, ell, pattern)
            else:
                universe = Trellis.from_text(text, alphabet)
            least = next((w for w in universe.iter_words()
                          if w not in image), None)
            expected = Witness.none() if least is None \
                else Witness.addable(least)
            assert maximality_witness(code, channel, universe) == expected, \
                (channel.transducer.to_text(), alphabet, words, bits, kind)
            answers.add(least is None)
    assert answers == {True, False}
    cuts = {(ell, ell - layers) for ell, layers in widths}
    assert {(ell, h) for ell in range(5) for h in range(ell + 1)} <= cuts


def test_tail_masks_count_the_suffixes_of_the_predecessor_walk():
    """For each set S that the forward walk reaches at the cut (counted by
    ``oracles.layer_counts``), the OR of
    the suffix masks of its pairs has as many bits as there are suffixes
    whose set under the walk along the minimal trellis's predecessor rows
    (``oracles.predecessor_exclusion_steps``) meets S: the sum of the
    counts of those sets.  The same holds for each pair of S alone.  At
    every cut depth, on every zoo channel and on 10 random transducers per
    block length 0, 1, 2, 3, 5 and 7, for greedy and random codes."""
    from functools import reduce
    from operator import or_

    from test_codegen import random_channel

    rng = random.Random(53)
    zoo = ["sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "bsid2",
           "segd:3", "ov"]
    compared = 0
    for ell in (0, 1, 2, 3, 5, 7):
        pool = list(BINARY.words_of_length(ell))
        empty = trellis_from_words([], BINARY, length=ell)
        channels = [channel_from_spec(spec) for spec in zoo]
        channels += [random_channel(rng, BINARY) for _ in range(10)]
        for channel in channels:
            t = channel.self_union_inverse()
            codes = [greedy_detecting(rng, pool, empty, channel, 8),
                     trellis_from_words(
                         rng.sample(pool, rng.randint(1, len(pool))),
                         BINARY)]
            for code in codes:
                for tail in range(ell + 1):
                    cut = oracles.layer_counts(
                        properties._exclusion_steps(code, t), code,
                        ell - tail)
                    if not cut:
                        continue
                    masks = properties._tail_masks(
                        code, t, frozenset().union(*cut), tail)
                    behind = oracles.layer_counts(
                        oracles.predecessor_exclusion_steps(code, t), code,
                        tail)
                    for s in cut:
                        for group in (s, *({p} for p in s)):
                            bits = reduce(or_, (masks[p] for p in group))
                            assert bits.bit_count() == sum(
                                n for b, n in behind.items()
                                if not group.isdisjoint(b)), \
                                (channel.name, ell, tail)
                            compared += bits > 0
    assert compared


def unpruned_live_triples(machine, t) -> set:
    """The triples of machine x t x machine on some accepted path: a forward
    build over the raw transition tuples with no length test, then a
    backward sweep from the final triples."""
    succ = {}
    for p, a, pd in machine.transitions:
        succ.setdefault(p, []).append((a, pd))
    step = {}
    for q, inp, out, qd in t.transitions:
        step.setdefault(q, []).append((inp[0] if inp else None,
                                       out[0] if out else None, qd))

    def moves(p, x):
        return [p] if x is None else [d for a, d in succ.get(p, ()) if a == x]

    start = machine.initial_state
    reached = {(start, q, start) for q in t.initial}
    queue, pred = list(reached), {}
    for p, q, r in queue:
        for x, y, qd in step.get(q, ()):
            for pd in moves(p, x):
                for rd in moves(r, y):
                    d = (pd, qd, rd)
                    pred.setdefault(d, []).append((p, q, r))
                    if d not in reached:
                        reached.add(d)
                        queue.append(d)
    final = machine.final_state
    alive = {s for s in reached
             if s[0] == final and s[1] in t.final and s[2] == final}
    stack = list(alive)
    while stack:
        for s in pred.get(stack.pop(), ()):
            if s not in alive:
                alive.add(s)
                stack.append(s)
    return alive


def two_pass_violation(machine, t):
    """The detection search in two passes: find the live triples of machine
    x t x machine with ``unpruned_live_triples``, then run the overhang
    search and the completion over them alone, meeting successors in the
    order of t's transitions."""
    alive = unpruned_live_triples(machine, t)
    step = {}
    for q, inp, out, qd in t.transitions:
        step.setdefault(q, []).append((inp[0] if inp else None,
                                       out[0] if out else None, qd))

    def move(p, x):
        return p if x is None else machine._rows[p].get(x)

    def successors(s):
        p, q, r = s
        for x, y, qd in step.get(q, ()):
            d = (move(p, x), qd, move(r, y))
            if d in alive:
                yield x, y, d

    def path(links, s):
        labels = []
        while s in links:
            s, x, y = links[s]
            labels.append((x, y))
        return labels[::-1]

    def completion(triple):
        links, queue = {}, [triple]
        for s in queue:
            if s[0] == machine.final_state and s[1] in t.final \
                    and s[2] == machine.final_state:
                return path(links, s)
            for x, y, d in successors(s):
                if d != triple and d not in links:
                    links[d] = (s, x, y)
                    queue.append(d)
        raise AssertionError("live triple without a path to a final triple")

    def advance(delay, x, y):
        pin = delay[0] + ((x,) if x is not None else ())
        pout = delay[1] + ((y,) if y is not None else ())
        k = 0
        while k < min(len(pin), len(pout)):
            if pin[k] != pout[k]:
                return None
            k += 1
        return pin[k:], pout[k:]

    start = machine.initial_state
    queue = [(start, q, start) for q in sorted(t.initial)
             if (start, q, start) in alive]
    delays, links = dict.fromkeys(queue, ((), ())), {}
    for s in queue:
        for x, y, d in successors(s):
            nd = advance(delays[s], x, y)
            if nd is not None and d not in delays:
                delays[d] = nd
                links[d] = (s, x, y)
                queue.append(d)
            elif nd is None or delays[d] != nd:
                rest = completion(d)
                for labels in (path(links, s) + [(x, y)], path(links, d)):
                    u = tuple(a for a, _ in labels + rest if a is not None)
                    v = tuple(b for _, b in labels + rest if b is not None)
                    if u != v:
                        return u, v
                raise AssertionError("conflict without violating pair")
    return None


def referee_cases():
    """(words, code, sigma) for the two-pass referee: random transducers
    (labels of length 0-2, cycles, epsilon/epsilon edges), their
    sigma^-1 . sigma compositions and built-in channels, on random
    prefix-tree codes."""
    from chancodes import channel_from_spec
    from test_codegen import random_channel

    rng = random.Random(23)
    for k in range(240):
        built_in, composed = k % 8 >= 6, k % 2 == 1
        alphabet = BINARY if k % 4 else Alphabet(("a", "bc"))
        if built_in:
            spec = rng.choice(("id:1", "id:2", "del1", "ins1", "bsid2"))
            sigma = channel_from_spec(spec).transducer
        else:
            sigma = random_channel(rng, alphabet).transducer
        if composed:
            sigma = sigma.inverse().compose(sigma)
        ell = rng.randint(0, 5)
        words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                 for _ in range(rng.randint(1, 8))]
        yield words, oracles.prefix_tree(words, alphabet), sigma


def test_one_pass_search_matches_the_two_pass_referee(monkeypatch):
    """``_identity_violation``, one forward search that decides liveness
    only at a conflict, returns the answer of the two-pass search over the
    live triples, and both NONE and violating answers skip some conflict at
    a dead triple.  Every triple that a failed completion leaves in the
    visited map, mirrors included, lies outside the live set, and on some
    NONE answer a mirror saves a completion: without mirrors the same
    search runs more of them.  On the ``referee_cases``."""
    from chancodes import automata, properties

    completion = properties._completion
    misses = []
    buried = set()
    mirrors_on = [True]

    def recorded(triple, search, visited, mirror):
        before = set(visited)
        rest = completion(triple, search, visited,
                          mirror if mirrors_on[0] else None)
        misses.append(rest is None)
        if rest is None:  # what it left in the map is marked dead
            buried.update(visited.keys() - before)
        return rest

    monkeypatch.setattr(properties, "_completion", recorded)
    skipped = set()
    mirror_saves = 0
    for words, code, sigma in referee_cases():
        misses.clear()
        buried.clear()
        found = properties._identity_violation(code, sigma)
        referee = two_pass_violation(code.minimal, sigma)
        assert found == referee, (words, sigma.to_text())
        assert buried.isdisjoint(unpruned_live_triples(code.minimal, sigma))
        if any(misses):
            skipped.add(found is None)
        completions = len(misses)
        mirrors_on[0] = False
        misses.clear()
        assert properties._identity_violation(code, sigma) == found
        mirrors_on[0] = True
        mirror_saves += found is None and completions < len(misses)
    # a dead conflict is skipped on the way to either kind of answer
    assert skipped == {True, False}
    assert mirror_saves > 0


class _Entering(dict):
    """A copy of a visited map that lists, in order, the triples a
    completion from ``start`` enters in it: ``start`` and each triple
    stored with a predecessor.  Mirror marks are stored with None."""

    def __init__(self, visited, start):
        super().__init__(visited)
        self.start, self.entered = start, []

    def __setitem__(self, triple, parent):
        if parent is not None or triple == self.start:
            self.entered.append(triple)
        super().__setitem__(triple, parent)


def test_a_search_expands_each_triple_once_across_its_completions(
        monkeypatch):
    """The completions of one detection search share one visited map, so no
    completion expands a triple that an earlier one expanded: on the
    ``referee_cases``, with and without mirrors, the triples that
    ``_completion`` expands are distinct within each search, also on
    searches that run several completions that expand triples.  A
    completion is breadth-first, so it expands the triples it enters in
    the order entered, up to the first accepted one; some completions
    stop at one."""
    from chancodes import automata, properties

    completion = properties._completion
    expanded = []  # per completion, the triples it expanded
    mirrors_on = [True]
    stops = 0

    def recorded(triple, search, visited, mirror):
        nonlocal stops
        spy = _Entering(visited, triple)
        rest = completion(triple, search, spy,
                          mirror if mirrors_on[0] else None)
        visited.update(spy)
        entered = spy.entered
        done = next((i for i, (p, q, r) in enumerate(entered)
                     if p == search.final and r == search.final
                     and q in search.accepting), None)
        assert (done is None) == (rest is None)
        stops += done is not None
        expanded.append(entered if done is None else entered[:done])
        return rest

    monkeypatch.setattr(properties, "_completion", recorded)
    busy = 0
    for words, code, sigma in referee_cases():
        for mirrors_on[0] in (True, False):
            expanded.clear()
            properties._identity_violation(code, sigma)
            every = [s for mine in expanded for s in mine]
            assert len(every) == len(set(every)), (words, sigma.to_text())
            busy += sum(1 for mine in expanded if mine) >= 2
    assert busy > 0 and stops > 0


def zoo_cases():
    """(words, code, sigma) on every zoo channel and its sigma^-1 . sigma,
    on random binary codes of lengths 0-6, some of them greedy detecting
    codes, so that both kinds of answer occur."""
    rng = random.Random(41)
    for spec in BATTERY_SPECS:
        channel = channel_from_spec(spec)
        for sigma in (channel.transducer,
                      channel.transducer.inverse().compose(
                          channel.transducer)):
            for _ in range(8):
                ell = rng.randint(0, 6)
                pool = ["".join(w) for w in iproduct("01", repeat=ell)]
                words = rng.sample(pool, rng.randint(1, min(6, len(pool))))
                yield words, oracles.prefix_tree(words, BINARY), sigma


def test_identity_tails_are_the_copy_states_of_the_zoo():
    """The states from which a channel only copies: state k of sub:k, id:k
    and bsid2, one state of each of their sigma^-1 . sigma, and none of
    del1, ins1, ov or segd:b, nor of their compositions."""
    for spec, tail in (("sub:1", 1), ("sub:2", 2), ("sub:3", 3),
                       ("id:1", 1), ("id:2", 2), ("bsid2", 2),
                       ("del1", None), ("ins1", None), ("ov", None),
                       ("segd:2", None), ("segd:3", None)):
        sigma = channel_from_spec(spec).transducer
        composed = sigma.inverse().compose(sigma)
        assert sigma._identity_tails == ({tail} if tail else set()), spec
        assert len(composed._identity_tails) == (1 if tail else 0), spec
        for q in composed._identity_tails:
            assert q in composed.final
            assert composed._moves[q] == {a: ((a, q),) for a in BINARY}


def test_suffix_masks_skip_only_dead_triples(monkeypatch):
    """Every triple (p, q, r) at an identity tail q that the search skips
    because the suffix masks of p and r do not meet lies outside the live
    triples (``unpruned_live_triples``), and with no identity tails the
    search gives the same answer.  On the ``referee_cases`` and the zoo,
    with and without sigma^-1 . sigma; some skips occur, and on some NONE
    answer the masks keep triples out of the visited map."""
    from chancodes import Trellis

    masks_of = Trellis._suffix_masks.func
    reads = []

    class Logged(dict):
        """Suffix masks that log the states read, two per test."""

        def __getitem__(self, i):
            reads.append(i)
            return masks[i]

    sizes = []
    completion = properties._completion

    def recorded(triple, search, visited, mirror):
        rest = completion(triple, search, visited, mirror)
        sizes[-1] = len(visited)
        return rest

    monkeypatch.setattr(properties, "_completion", recorded)
    skips = smaller = 0
    for words, code, sigma in [*referee_cases(), *zoo_cases()]:
        masks = masks_of(code.minimal)
        monkeypatch.setattr(Trellis, "_suffix_masks",
                            property(lambda self: Logged()))
        reads.clear()
        sizes.append(0)
        found = properties._identity_violation(code, sigma)
        alive = unpruned_live_triples(code.minimal, sigma)
        skipped = {(p, r) for p, r in zip(reads[::2], reads[1::2])
                   if not masks[p] & masks[r]}
        skips += len(skipped)
        for p, r in skipped:
            for q in sigma._identity_tails:
                assert (p, q, r) not in alive, (words, sigma.to_text())
        monkeypatch.setattr(type(sigma), "_identity_tails",
                            property(lambda self: frozenset()))
        sizes.append(0)
        assert properties._identity_violation(code, sigma) == found
        monkeypatch.undo()
        monkeypatch.setattr(properties, "_completion", recorded)
        smaller += found is None and sizes[-2] < sizes[-1]
    assert skips > 0 and smaller > 0


def test_id1_never_conflicts():
    """One insertion or deletion changes the length, so every block code
    detects id:1: Sigma^l itself gets NONE at l <= 6 over 01 and 012.  So
    ``index`` is |C| / |Sigma|^l, and the least addable word is the least
    word outside C (NONE on Sigma^l)."""
    rng = random.Random(9)
    for alphabet in (BINARY, Alphabet(("0", "1", "2"))):
        channel = channel_from_spec("id:1", alphabet)
        for ell in range(7):
            universe = universe_trellis(alphabet, ell)
            assert detection_witness(universe, channel) == Witness.none()
        for _ in range(40):
            ell = rng.randint(1, 6)
            space = sorted(alphabet.words_of_length(ell))
            words = rng.sample(space, rng.randint(1, min(len(space), 60)))
            code = trellis_from_words(words, alphabet)
            assert maximality_index(code, channel) \
                == Fraction(len(words), len(alphabet) ** ell)
            outside = sorted(set(space) - set(words))
            assert maximality_witness(code, channel) == (
                Witness.addable(outside[0]) if outside else Witness.none())


def test_suffix_masks_are_built_only_for_identity_tails():
    """The detection and correction searches build the minimal trellis's
    suffix masks only for a channel with an identity tail: after del1,
    ins1, ov and segd:3 it has none, and after sub:2, id:2 and bsid2 they
    are one int per state in a tuple."""
    rng = random.Random(33)
    words = sorted({"".join(rng.choice("01") for _ in range(8))
                    for _ in range(20)})
    for spec, tails in [("del1", False), ("ins1", False), ("ov", False),
                        ("segd:3", False), ("sub:2", True), ("id:2", True),
                        ("bsid2", True)]:
        for witness in (detection_witness, correction_witness):
            code = trellis_from_words(words, BINARY)
            witness(code, channel_from_spec(spec))
            masks = vars(code.minimal).get("_suffix_masks")
            if not tails:
                assert masks is None, (spec, witness.__name__)
                continue
            assert type(masks) is tuple, (spec, witness.__name__)
            assert len(masks) == code.minimal.num_states
            assert all(type(mask) is int for mask in masks)


@pytest.mark.parametrize("alphabet, words", [
    (BINARY, ["0" * 40, "01" * 20, "1" * 40]),
    (BINARY, ["0" * 40, "0" * 39 + "1", "1" * 40]),
    (Alphabet(("a", "b", "c", "d")),
     ["abcdabcdab", "aaaaaaaaaa", "ddddcccbba", "bacdbacdbd", "cccccccccc",
      "dacbdacbda"]),
], ids=["l40-none", "l40-violation", "l10-four-symbols"])
@pytest.mark.parametrize("spec", ["sub:2", "id:2"])
def test_detection_memory_stays_bounded_on_long_codes(alphabet, words, spec):
    """Only states with |Sigma|^left <= 2^12 get a suffix mask, so no mask
    holds more than 2^12 bits: 1.5 KB in all on three words of length 40,
    where a mask at the root would need 2^40 bits.  The whole
    detection search stays under 4 MB of Python allocations there and on
    a six-word code over four symbols at length 10, and its answers are
    the brute-force ones."""
    import tracemalloc

    channel = channel_from_spec(spec, alphabet)
    code = trellis_from_words(words, alphabet)
    tracemalloc.start()
    try:
        found = detection_witness(code, channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    ell = len(alphabet.word(words[0]))
    images = {alphabet.word(w): oracles.enumerate_image(
        channel.transducer, alphabet.word(w), ell) for w in words}
    assert (not found) == oracles.brute_detecting(
        [alphabet.word(w) for w in words], images)


def long_code(rng, spec: str, size: int, ell: int) -> list:
    """``size`` random words of length ``ell``, each outside the edit balls
    of those before it, so detecting for the symmetric channel ``spec``."""
    words: list = []
    blocked: set = set()
    while len(words) < size:
        w = tuple(rng.choice("01") for _ in range(ell))
        if w not in blocked:
            words.append(w)
            blocked |= oracles.edit_ball(w, spec, BINARY)
    return words


@pytest.mark.parametrize("size, ell", [(3, 40), (30, 24)],
                         ids=["3-words-l40", "30-words-l24"])
@pytest.mark.parametrize("spec", ["sub:2", "id:2", "del1"])
def test_index_memory_stays_bounded_on_long_codes(spec, size, ell):
    """Only the last 12 layers carry suffix masks, 2^12 bits at most, so
    ``index`` on long sparse codes stays under 8 MB of Python allocations
    (measured: 0.1-1.4 MB; the forward sets above the cut are small
    there), where masks on both halves of a length-40 code would need 2^20
    bits each.  The answer is
    the size of the union of the codewords' edit balls."""
    import tracemalloc

    words = long_code(random.Random(ell + size), spec, size, ell)
    channel = channel_from_spec(spec)
    code = trellis_from_words(words, BINARY)
    tracemalloc.start()
    try:
        index = maximality_index(code, channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    ball = set().union(*(oracles.edit_ball(w, spec, BINARY) for w in words))
    assert index == Fraction(len(ball), 2 ** ell)


def test_edit_balls_are_the_same_length_images():
    """``oracles.edit_ball`` is the same-length part of the images that the
    brute-force oracles enumerate over all of Sigma^l, at lengths 0-6."""
    for ell in range(7):
        for w in BINARY.words_of_length(ell):
            assert oracles.edit_ball(w, "sub:2", BINARY) \
                == oracles.sub_image(w, 2, BINARY)
            assert oracles.edit_ball(w, "id:2", BINARY) == {
                v for v in oracles.id_image(w, 2, BINARY) if len(v) == ell}
            assert oracles.edit_ball(w, "del1", BINARY) \
                == oracles.del1_image(w, BINARY) \
                | oracles.ins1_image(w, BINARY)


@pytest.mark.parametrize("spec, words, correct, expected", [
    ("id:2", ["010", "011"], False, ("010", "011")),
    ("bsid2", ["100", "110"], False, ("100", "110")),
    ("bsid2", ["100", "110"], True, ("100", "110")),
], ids=["id2-check", "bsid2-check", "bsid2-correct"])
def test_a_witness_path_through_two_labels_to_one_triple(
        monkeypatch, spec, words, correct, expected):
    """Where two labels lead from one triple to the same successor (the
    minimal trellis merges the paths of 010 and 011 after their first
    symbol), the witness path reads back the first of them, the move the
    search entered the successor on, and the witness is the two-pass
    referee's.  The path of each case takes such a step."""
    from chancodes import channel_from_spec, properties

    labels = properties._labels
    merges = []

    def recorded(parents, triple, table, rows):
        s, d = parents.get(triple), triple
        while s is not None:
            p, q, r = s
            merges.append(sum(
                (p if x is None else rows[p].get(x), qd,
                 r if y is None else rows[r].get(y)) == d
                for x, xmoves in table[q] for y, qd, _ in xmoves) > 1)
            s, d = parents.get(s), s
        return labels(parents, triple, table, rows)

    monkeypatch.setattr(properties, "_labels", recorded)
    sigma = channel_from_spec(spec).transducer
    if correct:
        sigma = sigma.inverse().compose(sigma)
    code = trellis_from_words(words, BINARY)
    found = properties._identity_violation(code, sigma)
    assert found == tuple(BINARY.word(w) for w in expected)
    assert found == two_pass_violation(code.minimal, sigma)
    assert any(merges)


def test_witnesses_depend_only_on_the_words():
    """A prefix-tree code, its minimal trellis and the same words grown by
    ``add_word`` in shuffled order give the same witnesses."""
    from chancodes import channel_from_spec

    rng = random.Random(6)
    for spec in ("sub:1", "sub:2", "id:1", "id:2", "del1", "bsid2"):
        channel = channel_from_spec(spec)
        for _ in range(20):
            ell = rng.randint(4, 7)
            words = sorted({
                "".join(rng.choice("01") for _ in range(ell))
                for _ in range(rng.randint(2, 16))
            })
            tree = oracles.prefix_tree(words, BINARY)
            grown = trellis_from_words([], BINARY, length=ell)
            for w in rng.sample(words, len(words)):
                grown = grown.add_word(w)
            for decide in (detection_witness, correction_witness):
                answers = {str(decide(c, channel))
                           for c in (tree, tree.minimal, grown)}
                assert len(answers) == 1, (spec, words, answers)


# -- pinned byte-identity battery for the three-way search ---------------------------

BATTERY_SPECS = ("sub:1", "sub:2", "id:1", "id:2", "del1", "ins1", "bsid2",
                 "segd:2", "ov")

# SHA-256 of ``search_transcript()``.  The search runs on the minimal
# trellis, numbered by the code's words alone, and meets successors in the
# order of the channel's standard-form moves; this pins that tie-break rule
# along with every answer.
PINNED_SEARCH_DIGEST = \
    "15f09bebaa818c790ae19bdeaa533b6ace3afc207ffc58d566f2a0d697673934"


def _transcript_label(spec) -> str:
    """A random transducer as the transcript names it, by its raw spec: the
    text-format layout over the sorted, deduplicated raw transitions, with
    each label's symbols joined by spaces.  ``to_text`` writes the
    transducer, whose constructor splits long labels into new states."""
    finals = " ".join(str(q) for q in sorted(spec.final))
    initials = " ".join(str(q) for q in sorted(spec.initial))
    lines = [f"@Transducer {finals} * {initials}".rstrip()]
    lines += [f"{s} {' '.join(i) or '@epsilon'} {' '.join(o) or '@epsilon'} {d}"
              for s, i, o, d in sorted(set(spec.transitions))]
    return "\n".join(lines) + "\n"


def search_transcript() -> str:
    """Detection and correction witnesses on the built-in channels x random
    codes at lengths 4-7, then on random transducers, where each detection
    answer is also checked against the brute-force oracle."""
    from chancodes import channel_from_spec
    from test_codegen import random_spec

    rng = random.Random(4)
    lines = []
    for spec in BATTERY_SPECS:
        channel = channel_from_spec(spec)
        for ell in range(4, 8):
            for _ in range(6):
                words = sorted({
                    "".join(rng.choice("01") for _ in range(ell))
                    for _ in range(rng.randint(1, 16))
                })
                code = trellis_from_words(words, BINARY)
                detect = detection_witness(code, channel)
                correct = correction_witness(code, channel)
                lines.append(f"{spec} {','.join(words)}: "
                             f"{detect.to_text(BINARY)} | "
                             f"{correct.to_text(BINARY)}")
    kinds = set()
    for k in range(300):
        alphabet = BINARY if k % 3 else Alphabet(("a", "bc"))
        spec = random_spec(rng, alphabet)
        channel = Channel("random", Transducer(*spec))
        ell = rng.randint(1, 4)
        words = sorted({
            tuple(rng.choice(alphabet.symbols) for _ in range(ell))
            for _ in range(rng.randint(1, 6))
        })
        code = trellis_from_words(words, alphabet)
        found = detection_witness(code, channel)
        images = {w: oracles.enumerate_image(channel.transducer, w, ell)
                  for w in words}
        assert (not found) == oracles.brute_detecting(words, images), words
        kinds.add(bool(found))
        lines.append(f"random {k} {_transcript_label(spec)!r} "
                     f"{' '.join(format_word(w, alphabet) for w in words)}: "
                     f"{found.to_text(alphabet)} | "
                     f"{correction_witness(code, channel).to_text(alphabet)}")
    assert kinds == {True, False}
    return "\n".join(lines) + "\n"


def test_search_outputs_are_pinned():
    transcript = search_transcript()
    got = hashlib.sha256(transcript.encode()).hexdigest()
    assert got == PINNED_SEARCH_DIGEST, transcript

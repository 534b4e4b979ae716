import hashlib
import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from chancodes import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    Channel,
    Nfa,
    NotDetectingError,
    ParameterError,
    Transducer,
    Witness,
    as_trellis,
    channel_from_spec,
    correction_witness,
    detection_witness,
    exclusion_automaton,
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

import oracles


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
        """On a half-greedy sub:2 code of length 10 the search stops at
        the least addable word, in well under half the subset steps of
        building universe - C - exclusion in full first (932 ``_step``
        calls, counted the same way)."""
        rng = random.Random(0)
        pool = list(BINARY.words_of_length(10))
        rng.shuffle(pool)
        words: list = []
        blocked: set = set()
        for w in pool[:len(pool) // 2]:
            if w not in blocked:
                words.append(w)
                blocked |= oracles.sub_image(w, 2, BINARY)
        code = trellis_from_words(words, BINARY, length=10)
        calls = 0
        step = Nfa._step

        def counting(self, subset, sym):
            nonlocal calls
            calls += 1
            return step(self, subset, sym)

        monkeypatch.setattr(Nfa, "_step", counting)
        found = maximality_witness(code, make_sub(2))
        assert found == Witness.addable(BINARY.word("0110111100"))
        assert 0 < 2 * calls < 932

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
    from chancodes import properties

    completion = properties._completion
    misses = []
    buried = set()
    mirrors_on = [True]

    def recorded(triple, expand, accepting, visited, mirror):
        before = set(visited)
        rest = completion(triple, expand, accepting, visited,
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
        referee = two_pass_violation(code.minimal, sigma.standard_form())
        assert found == referee, (words, sigma.to_text())
        assert buried.isdisjoint(
            unpruned_live_triples(code.minimal, sigma.standard_form()))
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


def test_a_search_expands_each_triple_once_across_its_completions(
        monkeypatch):
    """The completions of one detection search share one visited map, so no
    completion expands a triple that an earlier one expanded: on the
    ``referee_cases``, with and without mirrors, the expander handed to
    ``_completion`` sees each triple at most once per search, also on
    searches that run several completions that expand triples."""
    from chancodes import properties

    completion = properties._completion
    expanded = []  # per completion, the triples it expanded
    mirrors_on = [True]

    def recorded(triple, expand, accepting, visited, mirror):
        mine = []
        expanded.append(mine)

        def counted(s):
            mine.append(s)
            return expand(s)

        return completion(triple, counted, accepting, visited,
                          mirror if mirrors_on[0] else None)

    monkeypatch.setattr(properties, "_completion", recorded)
    busy = 0
    for words, code, sigma in referee_cases():
        for mirrors_on[0] in (True, False):
            expanded.clear()
            properties._identity_violation(code, sigma)
            every = [s for mine in expanded for s in mine]
            assert len(every) == len(set(every)), (words, sigma.to_text())
            busy += sum(1 for mine in expanded if mine) >= 2
    assert busy > 0


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
    "165337de9797b95040e7dda9a624b3594a92f9c3aa5257f870ff21be1dfe34d3"


def _transcript_label(t: Transducer) -> str:
    """A random transducer as the transcript names it: the text-format
    layout with each label's symbols joined by spaces.  ``to_text`` writes
    the standard form instead, which splits long labels into new states."""
    finals = " ".join(str(q) for q in sorted(t.final))
    initials = " ".join(str(q) for q in sorted(t.initial))
    lines = [f"@Transducer {finals} * {initials}".rstrip()]
    lines += [f"{s} {' '.join(i) or '@epsilon'} {' '.join(o) or '@epsilon'} {d}"
              for s, i, o, d in t.transitions]
    return "\n".join(lines) + "\n"


def search_transcript() -> str:
    """Detection and correction witnesses on the built-in channels x random
    codes at lengths 4-7, then on random transducers, where each detection
    answer is also checked against the brute-force oracle."""
    from chancodes import channel_from_spec
    from test_codegen import random_channel

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
        channel = random_channel(rng, alphabet)
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
        lines.append(f"random {k} {_transcript_label(channel.transducer)!r} "
                     f"{' '.join(format_word(w, alphabet) for w in words)}: "
                     f"{found.to_text(alphabet)} | "
                     f"{correction_witness(code, channel).to_text(alphabet)}")
    assert kinds == {True, False}
    return "\n".join(lines) + "\n"


def test_search_outputs_are_pinned():
    transcript = search_transcript()
    got = hashlib.sha256(transcript.encode()).hexdigest()
    assert got == PINNED_SEARCH_DIGEST, transcript

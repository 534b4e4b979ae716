import hashlib
import random

import pytest

from chancodes import (
    AlphabetMismatchError,
    Alphabet,
    BINARY,
    Dfa,
    Nfa,
    Transducer,
    channel_from_spec,
    format_word,
    make_del1_insend,
    make_id,
    make_ins1_delend,
    make_overlap,
    make_segd,
    make_sub,
    make_bsid,
    make_code,
    maximality_index,
    product,
    trellis_from_words,
)
from chancodes import transducers

import oracles
from test_automata import machine_fields
from test_codegen import RandomSpec, random_channel, random_spec


def zoo():
    return [
        make_sub(1), make_sub(2), make_id(1), make_id(2),
        make_del1_insend(), make_ins1_delend(), make_bsid(2),
        make_segd(2), make_segd(4), make_overlap(),
    ]


class TestStandardForm:
    """The constructor holds every transducer in standard form."""

    def test_splits_long_labels(self):
        raw = RandomSpec(BINARY, 2, [0], [1], ((0, ("0", "1"), ("1",), 1),))
        t = Transducer(*raw)
        assert oracles.is_standard(t) and t.num_states == 3
        assert t.transitions == ((0, ("0",), ("1",), 2), (2, ("1",), (), 1))
        for n in range(4):
            for w in BINARY.words_of_length(n):
                assert oracles.enumerate_image(t, w, 4) == \
                    oracles.enumerate_image(raw, w, 4)

    def test_standard_input_unchanged(self):
        for ch in zoo():
            t = ch.transducer
            assert Transducer(t.alphabet, t.num_states, t.initial, t.final,
                              t.transitions) == t

    def test_epsilon_epsilon_label_kept(self):
        t = Transducer(
            BINARY, 2, frozenset({0}), frozenset({1}),
            ((0, (), (), 1), (1, ("0",), ("0",), 1)),
        )
        assert t.num_states == 2
        assert t.transitions == ((0, (), (), 1), (1, ("0",), ("0",), 1))
        assert oracles.enumerate_image(t, "00", 3) == {("0", "0")}

    def test_random_specs_keep_their_raw_relation(self):
        """On random specs over 01 and {a, bc}: every label of the built
        transducer holds at most one symbol, its relation is that of the
        raw transitions as drawn, and its text reads back as itself (the
        text names no state that no transition, initial or final set
        does, so that is asked only where every state is named)."""
        rng = random.Random(27)
        split = read_back = 0
        for k in range(80):
            alphabet = BINARY if k % 2 else Alphabet(("a", "bc"))
            raw = random_spec(rng, alphabet)
            t = Transducer(*raw)
            assert oracles.is_standard(t)
            relation = oracles.relation_pairs(raw, alphabet, 3, 4)
            assert oracles.relation_pairs(t, alphabet, 3, 4) == relation, raw
            back = Transducer.from_text(t.to_text(), alphabet)
            assert oracles.relation_pairs(back, alphabet, 3, 4) == relation
            named = t.initial | t.final | {
                q for s, _, _, d in t.transitions for q in (s, d)}
            if len(named) == t.num_states:
                assert back == t, raw
                read_back += 1
            split += t.num_states > raw.num_states
        assert split >= 30 and read_back >= 60


class TestInverse:
    def test_del1_inverse_is_ins1(self):
        inv = make_del1_insend().transducer.inverse()
        ins = make_ins1_delend().transducer
        assert oracles.relation_pairs(inv, BINARY, 4, 6) == \
            oracles.relation_pairs(ins, BINARY, 4, 6)

    def test_involution(self):
        for ch in zoo():
            assert ch.transducer.inverse().inverse() == ch.transducer

    def test_sub_is_symmetric(self):
        sub2 = make_sub(2).transducer
        inv = sub2.inverse()
        for n in range(6):
            for w in BINARY.words_of_length(n):
                assert oracles.enumerate_image(sub2, w, n) == \
                    oracles.enumerate_image(inv, w, n)

    def test_relation_flip_enumerated(self):
        # y in t(x)  iff  x in inverse(t)(y), for |x|,|y| <= 4
        for ch in (make_del1_insend(), make_id(1), make_overlap()):
            t = ch.transducer
            fwd = oracles.relation_pairs(t, BINARY, 4, 4)
            bwd = oracles.relation_pairs(t.inverse(), BINARY, 4, 4)
            assert fwd == {(y, x) for x, y in bwd}


class TestReverse:
    def test_relation_of_reversed_words(self):
        """y in rev(x) iff y reversed is in t(x reversed), for |x|, |y| <= 4,
        on the zoo and random transducers; the reverse stays standard."""
        rng = random.Random(53)
        channels = zoo() + [random_channel(rng, BINARY) for _ in range(30)]
        for ch in channels:
            t = ch.transducer
            fwd = oracles.relation_pairs(t, BINARY, 4, 4)
            rev = oracles.relation_pairs(t.reverse(), BINARY, 4, 4)
            assert rev == {(x[::-1], y[::-1]) for x, y in fwd}, t.to_text()
            assert t.reverse().reverse() == t
            assert oracles.is_standard(t.reverse())


class TestUnion:
    def test_image_is_union_of_images(self):
        d, i = make_del1_insend().transducer, make_ins1_delend().transducer
        u = d.union(i)
        for n in range(4):
            for w in BINARY.words_of_length(n):
                assert oracles.enumerate_image(u, w, n + 2) == (
                    oracles.enumerate_image(d, w, n + 2)
                    | oracles.enumerate_image(i, w, n + 2)
                )

    def test_union_with_self(self):
        t = make_sub(1).transducer
        u = t.union(t)
        for w in BINARY.words_of_length(3):
            assert oracles.enumerate_image(u, w, 3) == \
                oracles.enumerate_image(t, w, 3)

    def test_symmetrized_sub_equals_sub(self):
        ch = make_sub(2)
        sym = ch.self_union_inverse()
        for n in range(6):
            for w in BINARY.words_of_length(n):
                assert oracles.enumerate_image(sym, w, n) == \
                    oracles.enumerate_image(ch.transducer, w, n)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            make_sub(1).transducer.union(
                make_sub(1, Alphabet(("a", "b"))).transducer
            )


class TestCompose:
    def test_hamming_ball_of_radius_two(self):
        sub1 = make_sub(1).transducer
        comp = sub1.inverse().compose(sub1)
        got = {format_word(w, BINARY) for w in comp.image("00").words_up_to(2)}
        assert got == {"00", "01", "10", "11"}

    def test_identity_neutral(self):
        ident = make_sub(0).transducer
        t = make_del1_insend().transducer
        comp = ident.compose(t)
        assert oracles.relation_pairs(comp, BINARY, 3, 5) == \
            oracles.relation_pairs(t, BINARY, 3, 5)

    def test_relational_contract_enumerated(self):
        # z in (s . t)(x)  iff  exists y: y in t(x) and z in s(y)
        s, t = make_id(1).transducer, make_del1_insend().transducer
        comp = s.compose(t)
        for n in range(4):
            for x in BINARY.words_of_length(n):
                direct = oracles.enumerate_image(comp, x, 4)
                via = set()
                for y in oracles.enumerate_image(t, x, 4):
                    via |= oracles.enumerate_image(s, y, 4)
                assert {z for z in direct if len(z) <= 4} == \
                    {z for z in via if len(z) <= 4}

    def test_segmented_composition_builds(self):
        segd = make_segd(4).transducer
        comp = segd.inverse().compose(segd)
        img = {format_word(w, BINARY) for w in comp.image("0000").words_up_to(4)}
        assert "0000" in img
        # one deletion in the only segment, then one reverse insertion
        assert "1000" in img


class TestImageAndProduct:
    def test_image_via_product_matches_path_enumeration(self):
        for ch in zoo():
            t = ch.transducer
            for n in range(4):
                for w in BINARY.words_of_length(n):
                    bound = n + 2
                    got = t.image(w).words_up_to(bound)
                    assert got == oracles.enumerate_image(t, w, bound), ch.name

    def test_image_is_the_product_with_the_word_chain(self):
        """The image runs the chain trellis of the word through the channel:
        the same machine, of the same type, as the product with a plain NFA
        chain, so its numbering and every witness read off it stay put."""
        for ch in zoo():
            t = ch.transducer
            for n in range(6):
                for w in BINARY.words_of_length(n):
                    chain = Nfa(BINARY, n + 1, {0}, {n},
                                [(i, a, i + 1) for i, a in enumerate(w)])
                    expected = product(chain, t)
                    got = t.image(w)
                    assert type(got) is type(expected), ch.name
                    assert got == expected, (ch.name, w)

    def test_product_identity(self):
        t = trellis_from_words(["010", "111"], BINARY)
        out = product(t, make_sub(0).transducer)
        assert {format_word(w, BINARY) for w in out.words_up_to(3)} == \
            {"010", "111"}

    def test_product_is_union_of_word_images(self):
        rng = random.Random(2)
        channels = [make_id(1), make_del1_insend(), make_overlap()]
        for _ in range(10):
            ell = rng.randint(1, 6)
            words = {
                "".join(rng.choice("01") for _ in range(ell))
                for _ in range(rng.randint(1, 8))
            }
            t = trellis_from_words(words, BINARY)
            for ch in channels:
                bound = ell + 2
                got = product(t, ch.transducer).words_up_to(bound)
                expected = set()
                for w in words:
                    expected |= oracles.enumerate_image(ch.transducer, w, bound)
                assert got == expected

    def test_product_size_near_linear(self):
        # size(A > T) stays within a small constant of size(A) * size(T)
        t = make_del1_insend().transducer
        rng = random.Random(6)
        for n_words in (10, 50, 200):
            words = {
                "".join(rng.choice("01") for _ in range(10))
                for _ in range(n_words)
            }
            a = trellis_from_words(words, BINARY)
            p = product(a, t)
            size = oracles.machine_size
            assert size(p) <= 2 * size(a) * size(t)

    def test_epsilon_input_handled(self):
        # a channel that may insert needs the stay-in-place pairing
        ins = make_id(1).transducer
        t = trellis_from_words(["0"], BINARY)
        got = {format_word(w, BINARY) for w in product(t, ins).words_up_to(2)}
        assert got == {"0", "", "00", "01", "10"}

    def test_numbering_is_pinned(self):
        """SHA-256 of the fields of 200 products of epsilon-free prefix-tree
        codes with random transducers.  Computed when ``product`` still
        removed the automaton's epsilon moves first; on epsilon-free input
        reading them in place must build the same automaton."""
        rng = random.Random(2026)
        lines = []
        for k in range(200):
            alphabet = BINARY if k % 3 else Alphabet(("bc", "a"))
            t = random_channel(rng, alphabet).transducer
            ell = rng.randint(0, 4)
            words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                     for _ in range(rng.randint(0, 6))]
            code = oracles.prefix_tree(words, alphabet, length=ell)
            lines.append(machine_fields(product(code, t)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "19881752b710987952b33f5499297bdd9dc893d0a7bf405654559f5e1e6cdd10"


class TestInputPreservation:
    def test_zoo_preserving_up_to_six(self):
        for ch in zoo():
            assert ch.transducer.is_input_preserving(6), ch.name

    def test_rewriter_fails(self):
        t = Transducer(BINARY, 1, frozenset({0}), frozenset({0}),
                       ((0, ("0",), ("1",), 0),))
        assert not t.is_input_preserving(1)

    def test_empty_relation_passes_vacuously(self):
        t = Transducer(BINARY, 1, frozenset({0}), frozenset(), ())
        assert t.is_input_preserving(3)


RANDOM_ALPHABETS = [BINARY, Alphabet(("1", "0")), Alphabet(("bc", "a"))]


def _edge_key(x, y, dst):
    """The sort key the detection search used on its own edge table."""
    return (x is not None, x or "", y is not None, y or "", dst)


class TestMoves:
    def test_moves_keep_transition_order(self):
        rng = random.Random(31)
        epsilon_first = reordered = 0
        for k in range(300):
            alphabet = RANDOM_ALPHABETS[k % 3]
            t = random_channel(rng, alphabet).transducer
            flat = []
            for q in t.states:
                row = t._moves[q]
                edges = [(x, y, d) for x, moves in row.items()
                         for y, d in moves]
                assert edges == sorted(edges, key=lambda e: _edge_key(*e))
                if None in row:
                    assert next(iter(row)) is None
                    epsilon_first += len(row) > 1
                reordered += list(row) == ["0", "1"] and alphabet != BINARY
                flat += [(q, () if x is None else (x,),
                          () if y is None else (y,), d) for x, y, d in edges]
            assert flat == list(t.transitions)
        assert epsilon_first and reordered


def _table_cases() -> list[Transducer]:
    """The zoo, and random transducers of which every other one gains an
    epsilon/epsilon cycle through one or two states."""
    rng = random.Random(26)
    cases = [ch.transducer for ch in zoo()]
    for k in range(40):
        t = random_spec(rng, RANDOM_ALPHABETS[k % 3])
        if k % 2:
            p, q = rng.randrange(t.num_states), rng.randrange(t.num_states)
            t = t._replace(transitions=t.transitions
                           + ((p, (), (), q), (q, (), (), p)))
        cases.append(Transducer(*t))
    return cases


class TestTable:
    """``Transducer._table``, the one table of the channel searches."""

    def test_rows_are_the_length_pairs_of_paths_to_a_final_state(self):
        """Row q marks exactly the (input, output) lengths up to l of the
        paths from q to a final state, enumerated along the raw
        transitions, at l = 0-6, and at 12 and 16, where a
        row spans more than 64 bits; the guard column stays clear."""
        marked = 0
        for t in _table_cases():
            for ell in (*range(7), 12, 16):
                feasible, _ = t._table(ell)
                stride = ell + 2
                assert len(feasible) == t.num_states
                for q in t.states:
                    want = bytearray((ell + 1) * stride)
                    for i, o in oracles.length_pairs(t, q, ell):
                        want[i * stride + o] = 1
                    assert feasible[q] == want, (t.to_text(), ell, q)
                    marked += sum(want)
        assert marked

    def test_moves_keep_moves_order_and_carry_each_target_row(self):
        for t in _table_cases():
            for ell in (0, 3, 6):
                feasible, moves = t._table(ell)
                assert len(moves) == t.num_states
                for q in t.states:
                    assert list(moves[q]) == list(t._moves[q])
                    for x, xmoves in moves[q].items():
                        assert [(y, d) for y, d, _ in xmoves] == \
                            list(t._moves[q][x])
                        assert all(row is feasible[d] for _, d, row in xmoves)

    def test_a_second_call_returns_the_same_table(self):
        t = make_id(2).self_union_inverse()
        first = t._table(5)
        assert t._table(5) is first
        assert t._table(4) is not first
        assert t._table(4) is t._table(4)

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        """The ``length_masks`` calls of ``_table``, recorded from now on."""
        calls = []
        real = transducers.length_masks

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(transducers, "length_masks", counted)
        return calls

    def test_one_build_per_make_code_run(self, monkeypatch):
        """An empty-start run builds the table of its sigma | sigma^-1 once,
        however many words it adds."""
        calls = self._count_builds(monkeypatch)
        for spec in ("sub:1", "sub:2", "del1", "id:2", "bsid2"):
            calls.clear()
            report = make_code(channel_from_spec(spec), 40, 8, seed=3)
            assert len(report.words) > 3, spec
            assert len(calls) == 1, spec

    def test_two_builds_per_maximality_index(self, monkeypatch):
        """sigma's for the detection search, and that of T = sigma |
        sigma^-1, which the forward walk and the suffix masks share."""
        calls = self._count_builds(monkeypatch)
        for spec in ("sub:1", "sub:2", "del1", "id:2", "bsid2"):
            code = make_code(channel_from_spec(spec), 40, 8, seed=3).trellis
            calls.clear()
            maximality_index(code, channel_from_spec(spec))
            assert len(calls) == 2, spec

    def test_freed_without_the_cycle_collector(self):
        """A built table refers to no transducer: with the cycle collector
        off, a transducer with tables, and its reverse, are freed as soon as
        they are dropped."""
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            t = make_id(2).self_union_inverse()
            back = t.reverse()
            for u in (t, back):
                for ell in (3, 6):
                    u._table(ell)
            refs = [weakref.ref(t), weakref.ref(back)]
            del t, back, u
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


def _brute_useful(t: Transducer) -> list[int]:
    """States on an initial->final path, from the reflexive-transitive
    closure of the edge relation."""
    reach = [[p == q for q in t.states] for p in t.states]
    for s, _, _, d in t.transitions:
        reach[s][d] = True
    for m in t.states:
        for p in t.states:
            if reach[p][m]:
                for q in t.states:
                    reach[p][q] = reach[p][q] or reach[m][q]
    return [q for q in t.states
            if any(reach[i][q] for i in t.initial)
            and any(reach[q][f] for f in t.final)]


class TestTransducerTrim:
    def test_matches_brute_force_reachability(self):
        rng = random.Random(8)
        removed = 0
        for k in range(300):
            alphabet = RANDOM_ALPHABETS[k % 3]
            t = random_channel(rng, alphabet).transducer
            keep = _brute_useful(t)
            remap = {q: i for i, q in enumerate(keep)}
            trimmed = t.trim()
            assert trimmed.num_states == len(keep)
            assert trimmed.initial == {remap[q] for q in t.initial
                                       if q in remap}
            assert trimmed.final == {remap[q] for q in t.final if q in remap}
            assert trimmed.transitions == tuple(
                (remap[s], i, o, remap[d]) for s, i, o, d in t.transitions
                if s in remap and d in remap)
            removed += len(keep) < t.num_states
        assert removed > 30


    def test_dropped_states_renumber_like_a_plain_comprehension(
            self, monkeypatch):
        """Where ``trim`` drops states, its result equals, type for type, the
        machine that plain comprehensions build on the states of some
        initial->final path: on the exclusion products and sigma^-1 . sigma
        compositions of del1, ins1 and segd:3, and on random transducers
        and their compositions."""
        trimmed = []
        trim = Transducer.trim

        def recorded(self):
            result = trim(self)
            trimmed.append((self, result))
            return result

        monkeypatch.setattr(Nfa, "trim", recorded)
        monkeypatch.setattr(Transducer, "trim", recorded)
        rng = random.Random(31)
        for spec in ("del1", "ins1", "segd:3"):
            channel = channel_from_spec(spec)
            t = channel.transducer
            t.inverse().compose(t)
            for ell in range(3, 8):
                words = {"".join(rng.choice("01") for _ in range(ell))
                         for _ in range(rng.randint(1, 12))}
                product(trellis_from_words(words, BINARY).minimal,
                        channel.self_union_inverse())
        for k in range(60):
            t = random_channel(rng, RANDOM_ALPHABETS[k % 3]).transducer
            t.trim()
            t.inverse().compose(t)
        dropped = set()
        for machine, got in trimmed:
            keep = _useful_by_search(machine)
            if len(keep) == machine.num_states:
                continue
            remap = {q: i for i, q in enumerate(keep)}
            kept = [tr for tr in machine.transitions
                    if tr[0] in remap and tr[-1] in remap]
            if isinstance(machine, Transducer):
                transitions = [(remap[s], i, o, remap[d])
                               for s, i, o, d in kept]
            else:
                transitions = [(remap[s], a, remap[d]) for s, a, d in kept]
            initial = {remap[q] for q in machine.initial if q in remap}
            kind = type(machine)
            if isinstance(machine, Dfa):
                kind = Dfa if initial else Nfa
            expected = kind(machine.alphabet, len(keep), initial,
                            {remap[q] for q in machine.final if q in remap},
                            transitions)
            assert type(got) is kind
            assert got == expected
            dropped.add(type(got))
        assert dropped == {Nfa, Transducer}


def _useful_by_search(machine) -> list[int]:
    """The states reachable from an initial state and co-reachable from a
    final one, by two plain searches over the transition endpoints."""
    def reach(roots, edges):
        seen, stack = set(roots), list(roots)
        while stack:
            q = stack.pop()
            for d in edges.get(q, ()):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    forward, backward = {}, {}
    for tr in machine.transitions:
        forward.setdefault(tr[0], []).append(tr[-1])
        backward.setdefault(tr[-1], []).append(tr[0])
    return sorted(reach(machine.initial, forward)
                  & reach(machine.final, backward))


class TestQuotient:
    @staticmethod
    def check(t: Transducer, alphabet: Alphabet, max_in: int) -> Transducer:
        q = t.quotient()
        assert q.num_states <= t.num_states
        assert q.quotient() == q
        assert oracles.relation_pairs(q, alphabet, max_in, max_in + 1) == \
            oracles.relation_pairs(t, alphabet, max_in, max_in + 1)
        return q

    def test_zoo_keeps_the_relation(self):
        for ch in zoo():
            t = ch.transducer
            sym = t.union(t.inverse())
            assert self.check(sym, BINARY, 4) == ch.self_union_inverse()
            self.check(t.inverse().compose(t), BINARY, 4)

    def test_random_transducers_keep_the_relation(self):
        rng = random.Random(12)
        shrunk = untrimmed = 0
        for k in range(200):
            alphabet = BINARY if k % 2 else Alphabet(("a", "bc"))
            t = random_channel(rng, alphabet).transducer
            q = self.check(t, alphabet, 3)
            shrunk += q.num_states < t.num_states
            untrimmed += t.trim().num_states < t.num_states
        assert shrunk > 10 and untrimmed > 40

    @pytest.mark.parametrize("spec, before, after", [
        ("sub:2", 6, 3), ("id:2", 6, 3), ("del1", 6, 5), ("ins1", 6, 5),
        ("bsid2", 14, 7), ("segd:3", 14, 12), ("ov", 6, 6),
    ])
    def test_symmetrized_state_counts(self, spec, before, after):
        ch = channel_from_spec(spec)
        t = ch.transducer
        assert t.union(t.inverse()).num_states == before
        assert ch.self_union_inverse().num_states == after

    def test_numbering_is_pinned(self):
        assert make_sub(1).self_union_inverse().to_text() == (
            "@Transducer 0 1 * 0\n"
            "0 0 0 0\n0 0 1 1\n0 1 0 1\n0 1 1 0\n1 0 0 1\n1 1 1 1\n")


# per built-in channel: the mirror map of sigma, then of sigma^-1 . sigma
PINNED_MIRRORS = {
    "sub:1": ((0, 1), (0, 1, 2, 1)),
    "sub:2": ((0, 1, 2), (0, 1, 2, 1, 4, 5, 6, 5, 4)),
    "id:1": ((0, 1), (0, 1, 2, 2)),
    "id:2": ((0, 1, 2), (0, 1, 2, 2, 4, 5, 5, 7, 7)),
    "bsid2": ((0, 1, 2, 4, 3, 6, 5),
              (0, 1, 5, 10, 7, 2, 11, 4, 8, 13, 3, 6, 12, 9, 14, 15, 17, 16,
               15, 24, 17, 21, 26, 16, 19, 25, 22, 27, 29, 28, 30, 40, 35, 33,
               27, 32, 29, 30, 28, 33, 31)),
    "del1": (None, (0, 2, 1, 3, 4, 3, 3)),
    "ins1": (None, (0, 1, 3, 2, 5, 4, 6, 6, 6)),
    "segd:2": (None, (0, 3, 2, 1, 8, 5, 8, 7, 4, 4, 15, 7, 7, 3, 1, 10, 7, 1,
                      3)),
    "segd:3": (None,
               (0, 3, 2, 1, 7, 5, 6, 4, 12, 9, 12, 11, 8, 8, 21, 20, 11, 11,
                3, 1, 15, 14, 11, 30, 29, 28, 1, 3, 25, 24, 23, 15, 35, 34, 33,
                32, 20, 23, 30)),
    "ov": (None, (0, 1, 2, 4, 3)),
}


def rooted(t: Transducer, q: int) -> Transducer:
    """``t`` with q as its only initial state: the relation from q."""
    return Transducer(t.alphabet, t.num_states, {q}, t.final, t.transitions)


class TestMirror:
    @pytest.mark.parametrize("spec", sorted(PINNED_MIRRORS))
    def test_built_in_maps_are_pinned(self, spec):
        """Total for the self-inverse channels and for every sigma^-1 .
        sigma; None, with no partial entries, for the rest."""
        t = channel_from_spec(spec).transducer
        composed = t.inverse().compose(t)
        assert (t._mirror, composed._mirror) == \
            PINNED_MIRRORS[spec]

    def test_a_mirror_state_relates_inversely(self):
        """On random transducers, their sigma | sigma^-1 and their sigma^-1 .
        sigma, the relation from the mirror of q is the inverse of the
        relation from q."""
        rng = random.Random(31)
        total = 0
        for k in range(60):
            alphabet = BINARY if k % 2 else Alphabet(("a", "bc"))
            t = random_channel(rng, alphabet).transducer
            if k % 3 == 1:
                t = t.union(t.inverse())
            elif k % 3 == 2:
                t = t.inverse().compose(t)
            mirror = t._mirror
            if mirror is None:
                continue
            total += 1
            assert len(mirror) == t.num_states
            pairs = [oracles.relation_pairs(rooted(t, q), alphabet, 3, 3)
                     for q in t.states]
            for q, m in enumerate(mirror):
                assert {(y, x) for x, y in pairs[q]} == pairs[m], \
                    (t.to_text(), q)
        assert total > 30


def test_every_public_name_resolves():
    import chancodes

    assert len(set(chancodes.__all__)) == len(chancodes.__all__)
    for name in chancodes.__all__:
        assert getattr(chancodes, name) is not None, name

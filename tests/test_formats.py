import random

import pytest

from chancodes import (
    Alphabet,
    BINARY,
    Dfa,
    FormatError,
    Nfa,
    Transducer,
    format_word,
    make_del1_insend,
    trellis_from_words,
    universe_trellis,
)

import oracles


class TestAutomatonFormat:
    def test_dfa_round_trip_identical(self):
        t = trellis_from_words(["0100", "1001", "1100"], BINARY)
        text = t.to_text()
        parsed = Nfa.from_text(text)
        assert isinstance(parsed, Dfa)
        again = parsed.to_text()
        assert again == text
        assert Nfa.from_text(again) == parsed

    def test_nfa_round_trip_with_epsilon(self):
        a = Nfa(BINARY, 3, frozenset({0, 1}), frozenset({2}),
                ((0, None, 1), (0, "0", 2), (1, "1", 2)))
        text = a.to_text()
        assert "@NFA" in text and "@epsilon" in text
        parsed = Nfa.from_text(text)
        assert parsed == a

    def test_named_states_parse(self):
        text = "@DFA done * start\nstart 0 mid\nmid 1 done\n"
        a = Nfa.from_text(text)
        assert a.accepts("01")
        assert a.num_states == 3

    def test_header_must_come_first(self):
        with pytest.raises(FormatError):
            Nfa.from_text("0 0 1\n@DFA 1 * 0\n")

    def test_missing_star(self):
        with pytest.raises(FormatError) as err:
            Nfa.from_text("@DFA 1 0\n0 0 1\n")
        assert "'*'" in str(err.value)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(FormatError) as err:
            Nfa.from_text("@DFA 1 * 0\n0 0\n")
        assert err.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(FormatError):
            Nfa.from_text("@DFA 1 * 0\n@weights 1 2 3\n")

    def test_nondeterministic_dfa_rejected(self):
        text = "@DFA 1 * 0\n0 0 1\n0 0 0\n"
        with pytest.raises(FormatError):
            Nfa.from_text(text)

    def test_comments_and_blanks_ignored(self):
        text = "# a universe\n\n@DFA 2 * 0\n0 0 1\n0 1 1\n# mid\n1 0 2\n1 1 2\n"
        a = Nfa.from_text(text)
        assert sorted(format_word(w, BINARY) for w in a.words_up_to(2)) == \
            ["00", "01", "10", "11"]


class TestTransducerFormat:
    def test_del1_string_from_the_toolkit_format(self):
        text = (
            "@Transducer 0 2 * 0\n"
            "0 0 0 0\n0 1 1 0\n0 0 @epsilon 1\n"
            "0 1 @epsilon 1\n1 0 0 1\n1 1 1 1\n"
            "1 @epsilon 0 2\n1 @epsilon 1 2\n"
        )
        t = Transducer.from_text(text)
        assert t == make_del1_insend().transducer

    def test_round_trip_identical(self):
        t = make_del1_insend().transducer
        text = t.to_text()
        parsed = Transducer.from_text(text)
        assert parsed == t
        assert parsed.to_text() == text

    def test_alphabet_can_be_given(self):
        text = "@Transducer 0 * 0\n0 0 0 0\n"
        t = Transducer.from_text(text, BINARY)
        assert t.alphabet == BINARY

    def test_alphabet_inference_needs_labels(self):
        with pytest.raises(FormatError):
            Transducer.from_text("@Transducer 0 * 0\n")

    def test_epsilon_both_sides(self):
        text = "@Transducer 1 * 0\n0 @epsilon @epsilon 1\n1 0 0 1\n"
        t = Transducer.from_text(text)
        assert t.transitions[0] == (0, (), (), 1)

    def test_long_labels_print_as_the_standard_form(self):
        t = Transducer(BINARY, 2, {0}, {1}, [(0, ("0", "1"), ("1",), 1)])
        text = t.to_text()
        assert text == "@Transducer 1 * 0\n0 0 1 2\n2 1 @epsilon 1\n"
        assert Transducer.from_text(text, BINARY) == t.standard_form()

    def test_random_transducers_keep_their_relation(self):
        from test_codegen import random_channel

        rng = random.Random(14)
        long_labels = 0
        for k in range(60):
            alphabet = BINARY if k % 2 else Alphabet(("a", "bc"))
            t = random_channel(rng, alphabet).transducer
            long_labels += not t.is_standard
            back = Transducer.from_text(t.to_text(), alphabet)
            assert back.is_standard
            assert oracles.relation_pairs(back, alphabet, 3, 4) == \
                oracles.relation_pairs(t, alphabet, 3, 4), t
        assert long_labels >= 20


class TestCodeFileConventions:
    def test_words_print_one_per_line(self):
        u = universe_trellis(BINARY, 2)
        listing = "\n".join(format_word(w, BINARY) for w in u.iter_words())
        assert listing == "00\n01\n10\n11"

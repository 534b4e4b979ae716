"""Internal operations build their results without re-validation; each such
result must equal the object the validating constructor builds from the same
fields, so the skipped checks would have passed."""

import dataclasses
import random

from chancodes import BINARY, Alphabet, Dfa, Nfa, Trellis, trellis_from_words
from chancodes.transducers import product

import oracles
from test_automata import random_nfa
from test_codegen import random_channel

REVERSED = Alphabet(("1", "0"))


def assert_trusted(result):
    validated = dataclasses.replace(result)  # runs __post_init__
    assert type(validated) is type(result)
    assert validated == result
    if isinstance(result, Dfa):
        assert validated._rows == result._rows


def random_code(rng: random.Random, alphabet: Alphabet) -> Trellis:
    ell = rng.randint(1, 4)
    words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
             for _ in range(rng.randint(0, 6))]
    return trellis_from_words(words, alphabet, length=ell)


def test_automaton_operations_on_random_nfas():
    rng = random.Random(2024)
    trimmed_kinds, had_epsilon = set(), set()
    for k in range(300):
        a, b = random_nfa(rng), random_nfa(rng)
        if k % 2:  # symbol order differs from string order
            a = dataclasses.replace(a, alphabet=REVERSED)
            b = dataclasses.replace(b, alphabet=REVERSED)
        da, db = a.determinize(), b.determinize()
        results = [a.trim(), da, da.trim(), da.intersect(db),
                   da.intersect(b)]
        for r in results:
            assert_trusted(r)
        trimmed_kinds.add(type(da.trim()))
        had_epsilon.add(any(sym is None for _, sym, _ in a.transitions))
    # trimming a DFA whose language is empty leaves an NFA without states
    assert trimmed_kinds == {Dfa, Nfa} and had_epsilon == {True, False}


def test_transducer_operations_on_random_channels():
    rng = random.Random(77)
    for k in range(150):
        alphabet = BINARY if k % 3 else Alphabet(("bc", "a"))
        channel = random_channel(rng, alphabet)
        t = channel.transducer
        code = random_code(rng, alphabet)
        word = tuple(rng.choice(alphabet.symbols) for _ in range(code.length))
        image = product(code, t)
        other = product(random_code(rng, alphabet), t)
        d = image.determinize()
        # every transducer operation keeps its standard operands standard
        for r in (t.inverse(), t.reverse(), t.union(t.inverse()),
                  t.quotient(), t.trim(), t.compose(t),
                  t.inverse().compose(t), channel.self_union_inverse()):
            assert_trusted(r)
            assert oracles.is_standard(r), t.to_text()
        for r in (image, image.trim(), d, d.intersect(other.determinize()),
                  d.intersect(other), t.image(word), code.trim(),
                  code.add_word(word)):
            assert_trusted(r)


def test_product_of_an_epsilon_nfa():
    rng = random.Random(5)
    t = random_channel(rng, BINARY).transducer
    for _ in range(100):
        a = random_nfa(rng)
        image = product(a, t)
        assert_trusted(image)
        assert_trusted(image.determinize())
        # epsilon moves of ``a`` are read in place, not removed first
        assert image.words_up_to(6) == \
            product(a.determinize(), t).words_up_to(6)


def test_minimal_trellis():
    rng = random.Random(9)
    alphabets = [BINARY, REVERSED, Alphabet(("bc", "a"))]
    for k in range(200):
        alphabet = alphabets[k % 3]
        ell = rng.randint(0, 6)
        words = [tuple(rng.choice(alphabet.symbols) for _ in range(ell))
                 for _ in range(rng.randint(0, 20))]
        code = trellis_from_words(words, alphabet, length=ell)
        assert_trusted(code)
        assert_trusted(code.minimal)

import hashlib
import random
from itertools import combinations

import pytest

from chancodes import (
    Alphabet,
    BINARY,
    FormatError,
    ParameterError,
    detection_witness,
    format_word,
    make_bsid,
    make_del1_insend,
    make_id,
    make_ins1_delend,
    make_overlap,
    make_segd,
    make_sub,
    overlap_free_words,
    parse_channel,
    serialize_channel,
    trellis_from_words,
)

import oracles
from oracles import is_solid_code

DEL1_TEXT = (
    "@Transducer 0 2 * 0\n"
    "0 0 0 0\n0 1 1 0\n0 0 @epsilon 1\n"
    "0 1 @epsilon 1\n1 0 0 1\n1 1 1 1\n"
    "1 @epsilon 0 2\n1 @epsilon 1 2\n"
)


def words_4() -> list[str]:
    return [format_word(w, BINARY) for w in BINARY.words_of_length(4)]


class TestSubstitutionChannel:
    def test_known_member(self):
        assert make_sub(2).transducer.image("00000").accepts("00101")

    def test_zero_is_identity(self):
        ch = make_sub(0)
        for w in BINARY.words_of_length(3):
            assert ch.image_set(w, 3) == {w}

    def test_ball_size(self):
        assert len(make_sub(1).image_set("000", 3)) == 4

    def test_image_is_hamming_ball(self):
        for k in (1, 2):
            ch = make_sub(k)
            for n in range(5):
                for w in BINARY.words_of_length(n):
                    assert ch.image_set(w, n) == oracles.hamming_ball(w, k, BINARY)

    def test_detecting_iff_min_hamming_distance_exceeds_k(self):
        # exhaustive length-4 codes of up to 3 words against sub_1 / sub_2
        pool = words_4()
        for k in (1, 2):
            ch = make_sub(k)
            images = {BINARY.word(w): oracles.hamming_ball(w, k, BINARY)
                      for w in pool}
            for size in (2, 3):
                for combo in combinations(pool, size):
                    dist = min(
                        oracles.hamming_distance(u, v)
                        for u, v in combinations(combo, 2)
                    )
                    t = trellis_from_words(combo, BINARY)
                    detecting = not detection_witness(t, ch)
                    assert detecting == (dist > k), (combo, k)
                    assert detecting == oracles.brute_detecting(
                        [BINARY.word(w) for w in combo], images
                    )

    def test_hamming_equivalence_length_five_samples(self):
        rng = random.Random(55)
        pool5 = [format_word(w, BINARY) for w in BINARY.words_of_length(5)]
        for k in (1, 2):
            ch = make_sub(k)
            for _ in range(150):
                combo = rng.sample(pool5, 4)
                dist = min(
                    oracles.hamming_distance(u, v)
                    for u, v in combinations(combo, 2)
                )
                detecting = not detection_witness(
                    trellis_from_words(combo, BINARY), ch
                )
                assert detecting == (dist > k), (combo, k)


class TestIndelChannel:
    def test_worked_example(self):
        # image of 00 under at most one insertion/deletion
        got = {format_word(w, BINARY) for w in make_id(1).image_set("00", 3)}
        assert got == {"00", "0", "000", "100", "010", "001"}

    def test_zero_is_identity(self):
        ch = make_id(0)
        for w in BINARY.words_of_length(3):
            assert ch.image_set(w, 4) == {w}

    def test_image_of_empty_word(self):
        assert {format_word(w, BINARY) for w in make_id(2).image_set("", 2)} == \
            {"", "0", "1", "00", "01", "10", "11"}

    def test_image_is_indel_ball(self):
        for k in (1, 2):
            ch = make_id(k)
            for n in range(4):
                for w in BINARY.words_of_length(n):
                    assert ch.image_set(w, n + k) == \
                        oracles.id_image(w, k, BINARY)

    def test_detecting_iff_indel_distance_exceeds_k(self):
        pool = words_4()
        rng = random.Random(23)
        ch = make_id(2)
        for _ in range(60):
            combo = rng.sample(pool, rng.randint(2, 3))
            dist = min(
                oracles.indel_distance(u, v) for u, v in combinations(combo, 2)
            )
            detecting = not detection_witness(
                trellis_from_words(combo, BINARY), ch
            )
            assert detecting == (dist > 2), combo


class TestDelInsChannels:
    def test_del1_image_model(self):
        ch = make_del1_insend()
        for n in range(5):
            for w in BINARY.words_of_length(n):
                assert ch.image_set(w, n) == oracles.del1_image(w, BINARY)

    def test_outputs_keep_length(self):
        ch = make_del1_insend()
        for w in BINARY.words_of_length(4):
            assert all(len(v) == 4 for v in ch.image_set(w, 6))

    def test_del1_image_of_01(self):
        got = {format_word(w, BINARY)
               for w in make_del1_insend().image_set("01", 2)}
        assert got == {"01", "10", "11", "00"}

    def test_ins1_image_model(self):
        ch = make_ins1_delend()
        for n in range(5):
            for w in BINARY.words_of_length(n):
                assert ch.image_set(w, n) == oracles.ins1_image(w, BINARY)

    def test_systematic_code_is_detecting(self):
        # all 64 words of length 8 ending in 01
        from itertools import product as iproduct

        code = ["".join(bits) + "01" for bits in iproduct("01", repeat=6)]
        t = trellis_from_words(code, BINARY)
        assert not detection_witness(t, make_del1_insend())

    def test_del_ins_union_equivalence_on_random_codes(self):
        # del1-detecting iff ins1-detecting iff (del1 | ins1)-detecting
        rng = random.Random(77)
        d, i = make_del1_insend(), make_ins1_delend()
        u = d.union(i)
        pool = words_4()
        for _ in range(40):
            combo = rng.sample(pool, rng.randint(1, 4))
            t = trellis_from_words(combo, BINARY)
            a = bool(detection_witness(t, d))
            b = bool(detection_witness(t, i))
            c = bool(detection_witness(t, u))
            assert a == b == c, combo


class TestBitShiftChannel:
    def test_requires_binary(self):
        with pytest.raises(ParameterError):
            make_bsid(2, Alphabet(("a", "b", "c")))
        with pytest.raises(ParameterError, match="binary"):
            make_bsid(-1, Alphabet(("a", "b", "c")))

    # SHA-256 of the serialized transducer, which pins the numbering of the
    # states inside each bit shift as well as the relation
    @pytest.mark.parametrize("k,digest", [
        (0, "43e08e5c8ecb75cebe8379d5df492d05435cdfa5eae5443c61af11fbaf669452"),
        (1, "524fd948506ae9bc9dd94ea0d9953e49e8b434b65dfc1ca5f08a6b1378cfb1b1"),
        (2, "72d5f2631c7c9bf82eca230efa18c2fc8e45db393113094c0493ff66664805a9"),
        (3, "b114be68928b698c2852aa5516dd4287f07e094daa8830ddd84e2f543542e69c"),
    ])
    def test_serialization_is_pinned(self, k, digest):
        text = serialize_channel(make_bsid(k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_caption_examples(self):
        ch = make_bsid()
        assert ch.transducer.image("10").accepts("01")  # one bit shift
        for w in BINARY.words_of_length(3):
            assert ch.transducer.image(w).accepts(w)

    def test_matches_event_model(self):
        # independent one-pass model: up to 2 events, each a deletion, an
        # insertion, or an adjacent swap of differing bits
        ch = make_bsid(2)
        for n in range(5):
            for w in BINARY.words_of_length(n):
                assert ch.image_set(w, n + 2) == \
                    oracles.bsid_image(w, 2, BINARY), format_word(w, BINARY)

    def test_single_error_variant(self):
        ch = make_bsid(1)
        for w in BINARY.words_of_length(4):
            assert ch.image_set(w, 5) == oracles.bsid_image(w, 1, BINARY)


class TestSegmentedDeletionChannel:
    def test_rejects_tiny_segments(self):
        with pytest.raises(ParameterError):
            make_segd(1)

    def test_examples(self):
        ch = make_segd(2)
        img = {format_word(w, BINARY) for w in ch.image_set("0101", 4)}
        assert {"101", "010", "11"} <= img
        ch4 = make_segd(4)
        assert ch4.transducer.image("0110").accepts("0110")
        assert ch4.transducer.image("01101").trim().num_states == 0

    def test_matches_model(self):
        for b in (2, 3, 4):
            ch = make_segd(b)
            for n in range(0, 2 * b + 1):
                for w in BINARY.words_of_length(n):
                    assert ch.image_set(w, n) == oracles.segd_image(w, b), \
                        (b, format_word(w, BINARY))


class TestOverlapChannel:
    def test_non_solid_pair(self):
        ch = make_overlap()
        assert ch.transducer.image("1001").accepts("0100")
        t = trellis_from_words(["0100", "1001"], BINARY)
        assert detection_witness(t, ch)

    def test_input_preserved(self):
        ch = make_overlap()
        for w in BINARY.words_of_length(3):
            assert ch.transducer.image(w).accepts(w)

    def test_bounded_image_matches_model(self):
        ch = make_overlap()
        for n in range(1, 5):
            for w in BINARY.words_of_length(n):
                assert ch.image_set(w, n + 2) == \
                    oracles.overlap_image(w, BINARY, n + 2)

    def test_solid_iff_detecting_on_overlap_free_codes(self):
        # exhaustive over subsets of the 6 overlap-free words of length 4
        ch = make_overlap()
        pool = overlap_free_words(BINARY, 4)
        assert len(pool) == 6
        for size in range(1, 4):
            for combo in combinations(pool, size):
                t = trellis_from_words(combo, BINARY)
                detecting = not detection_witness(t, ch)
                assert detecting == is_solid_code(combo), combo


class TestChanneletteParsing:
    def test_external_del1_string_matches_construction(self):
        ch = parse_channel(DEL1_TEXT, BINARY, name="del1")
        built = make_del1_insend()
        for n in range(6):
            for w in BINARY.words_of_length(n):
                assert ch.image_set(w, n) == built.image_set(w, n)

    def test_serialize_parse_identity(self):
        for ch in (make_sub(2), make_del1_insend(), make_overlap(),
                   make_segd(3), make_bsid(2)):
            text = serialize_channel(ch)
            again = parse_channel(text, ch.alphabet, name=ch.name)
            assert again.transducer == ch.transducer
            assert serialize_channel(again) == text

    def test_missing_star_is_an_error(self):
        with pytest.raises(FormatError):
            parse_channel("@Transducer 0 2 0\n0 0 0 0\n", BINARY)

    def test_syntax_error_carries_line_number(self):
        bad = "@Transducer 0 * 0\n0 0 0\n"
        with pytest.raises(FormatError) as err:
            parse_channel(bad, BINARY)
        assert err.value.line == 2

    def test_non_preserving_channel_warns(self):
        text = "@Transducer 0 * 0\n0 0 1 0\n0 1 0 0\n"
        with pytest.warns(UserWarning):
            parse_channel(text, BINARY, name="flipper")

    def test_constructed_channels_preserve_input(self):
        for ch in (make_sub(1), make_sub(2), make_id(1), make_id(2),
                   make_del1_insend(), make_ins1_delend(), make_bsid(2),
                   make_segd(2), make_segd(4), make_overlap()):
            assert ch.transducer.is_input_preserving(6), ch.name

import pytest

from chancodes import (
    BINARY,
    ParameterError,
    format_word,
    is_overlap_free,
    overlap_free_trellis,
    overlap_free_words,
    suffix_universe,
)

from oracles import is_solid_code


class TestOverlapFree:
    def test_small_cases(self):
        assert is_overlap_free("0")
        assert is_overlap_free("01")
        assert not is_overlap_free("00")   # prefix 0 = suffix 0
        assert not is_overlap_free("010")  # border 0
        assert is_overlap_free("011")

    def test_known_counts(self):
        # unbordered binary words by length
        expected = {1: 2, 2: 2, 3: 4, 4: 6, 5: 12, 6: 20, 7: 40, 8: 74}
        for ell, count in expected.items():
            assert len(overlap_free_words(BINARY, ell)) == count

    def test_trellis_matches_enumeration(self):
        for ell in (3, 4, 6):
            t = overlap_free_trellis(BINARY, ell)
            assert t.count_words() == len(overlap_free_words(BINARY, ell))
            for w in t.iter_words():
                assert is_overlap_free(w)

    def test_enumeration_cap(self):
        with pytest.raises(ParameterError):
            overlap_free_words(BINARY, 25)

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError, match="must be >= 0"):
            overlap_free_trellis(BINARY, -1)
        with pytest.raises(ParameterError,
                           match="block length must be >= 0, got -1"):
            overlap_free_words(BINARY, -1)


class TestSolidCode:
    def test_known_counterexample(self):
        assert not is_solid_code(["0100", "1001"])

    def test_positive_cases(self):
        assert is_solid_code(["0001"])
        # pairwise no prefix/suffix sharing, all unbordered
        assert is_solid_code(["00011", "00101"])
        # no two-word solid code exists at length 4 at all
        from itertools import combinations

        pool = [format_word(w) for w in overlap_free_words(BINARY, 4)]
        assert not any(is_solid_code(c) for c in combinations(pool, 2))

    def test_bordered_word_disqualifies(self):
        assert not is_solid_code(["0110"])


class TestSuffixUniverse:
    def test_count_identity(self):
        for ell, pattern in ((8, "01"), (8, "1"), (5, "101"), (4, "0000")):
            u = suffix_universe(BINARY, ell, pattern)
            assert u.count_words() == 2 ** (ell - len(pattern))
            for w in u.iter_words():
                assert format_word(w).endswith(pattern)

    def test_pattern_too_long(self):
        with pytest.raises(ParameterError):
            suffix_universe(BINARY, 2, "000")

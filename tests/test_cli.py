import hashlib
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product as iproduct
from pathlib import Path

import pytest

import chancodes
from chancodes import BINARY, channel_from_spec, format_word, make_code, \
    universe_trellis
from chancodes import cli
from chancodes.cli import build_parser, main
from chancodes.codegen import derive_seed

HAMMING = [
    "0000000", "1000110", "0100101", "0010011", "0001111",
    "1100011", "1010101", "1001001", "0110110", "0101010",
    "0011100", "1110000", "1101100", "1011010", "0111001", "1111111",
]


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming.txt"
    path.write_text("\n".join(HAMMING) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_basic_generation(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code, _, _ = run(
            capsys, "gen", "--channel", "del1", "--len", "8", "--n", "10",
            "--seed", "7", "-o", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert "channel: del1" in text
        assert text.count("\n") > 12

    def test_deterministic_output(self, capsys):
        args = ("gen", "--channel", "sub:2", "--len", "6", "--n", "8",
                "--seed", "3")
        code, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code == code2 == 0
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--channel", "sub:1", "--len", "4", "--n", "2",
            "--seed", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["channel"] == "sub:1"
        assert len(payload["words"]) == 2

    def test_multi_channel_union(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--channel", "del1", "--channel", "sub:2",
            "--len", "8", "--n", "10", "--seed", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["channel"] == "del1|sub:2"
        # the produced code must detect both channels
        from chancodes import (
            BINARY, detection_witness, make_del1_insend, make_sub,
            trellis_from_words,
        )

        t = trellis_from_words(payload["words"], BINARY)
        assert not detection_witness(t, make_del1_insend())
        assert not detection_witness(t, make_sub(2))

    def test_overlap_free_universe_makes_solid_codes(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--channel", "ov", "--universe", "of",
            "--len", "8", "--n", "100", "--seed", "9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        from oracles import is_solid_code

        assert payload["exhausted"]
        assert is_solid_code(payload["words"])

    def test_universe_from_trellis_file(self, capsys, tmp_path):
        from chancodes import BINARY, suffix_universe

        universe_file = tmp_path / "ends1.aut"
        universe_file.write_text(suffix_universe(BINARY, 5, "1").to_text())
        code, out, _ = run(
            capsys, "gen", "--channel", "sub:1", "--len", "5", "--n", "30",
            "--universe", str(universe_file), "--seed", "4", "--format", "json",
        )
        assert code == 0
        assert all(w.endswith("1") for w in json.loads(out)["words"])

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_universe_of_another_length_exits_1(self, capsys, tmp_path, n):
        u3 = tmp_path / "u3.aut"
        u3.write_text(universe_trellis(BINARY, 3).to_text())
        code, out, err = run(
            capsys, "gen", "--channel", "sub:1", "--len", "4", "--n", n,
            "--universe", str(u3), "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == "error: universe length 3 != code length 4\n"

    @pytest.mark.parametrize("text", [
        "@DFA 1 2 * 0\n0 0 1\n1 1 2\n",         # {0, 01}
        "@DFA 2 * 0\n0 0 1\n1 1 2\n0 1 2\n",   # {01, 1}
    ])
    def test_mixed_length_universe_file_exits_1(self, capsys, tmp_path, text):
        universe_file = tmp_path / "mixed.aut"
        universe_file.write_text(text)
        code, out, err = run(
            capsys, "gen", "--channel", "sub:1", "--len", "1", "--n", "1",
            "--universe", str(universe_file), "--seed", "1",
        )
        assert code == 1 and out == ""
        assert "bad trellis file" in err and "mixed lengths" in err

    def test_bad_universe_header_exits_1(self, capsys, tmp_path):
        # the CLI reads a trellis file with Trellis.from_text: one wording
        universe_file = tmp_path / "bad.aut"
        universe_file.write_text("@Transducer 0 * 0\n")
        code, out, err = run(
            capsys, "gen", "--channel", "sub:1", "--len", "1", "--n", "1",
            "--universe", str(universe_file), "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == (f"error: bad trellis file {str(universe_file)!r}: "
                       "line 1: expected one of @DFA, @NFA, "
                       "got '@Transducer'\n")

    def test_universe_and_end_combine(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--channel", "ov", "--universe", "of",
            "--end", "1", "--len", "6", "--n", "50", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        from chancodes import is_overlap_free

        for w in payload["words"]:
            assert w.endswith("1") and is_overlap_free(w)

    def test_non_detecting_seed_code_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0000\n0001\n")
        code, _, err = run(
            capsys, "gen", "--channel", "sub:1", "--n", "5",
            "--seed-code", str(bad), "--seed", "1",
        )
        assert code == 2
        assert "seed code" in err

    def test_missing_channel_file_exits_1(self, capsys):
        code, _, err = run(
            capsys, "gen", "--channel", "nosuch.t", "--len", "4", "--n", "1",
        )
        assert code == 1

    def test_seed_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CHANCODES_SEED", "99")
        args = ("gen", "--channel", "sub:1", "--len", "5", "--n", "4")
        code, out_env, _ = run(capsys, *args)
        assert code == 0
        assert "seed: 99" in out_env
        code, out_explicit, _ = run(capsys, *args, "--seed", "99")
        assert out_explicit == out_env


    def test_unseeded_run_records_a_seed_that_reproduces_it(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("CHANCODES_SEED", raising=False)
        args = ("gen", "--channel", "id:1", "--len", "7", "--n", "20")
        code, first, _ = run(capsys, *args)
        assert code == 0
        (line,) = [ln for ln in first.splitlines() if ln.startswith("seed: ")]
        seed = line.split()[1]
        assert seed.isdigit()
        code, again, _ = run(capsys, *args, "--seed", seed)
        assert code == 0
        assert again == first


# SHA-256 of `gen ... --n 100 --seed 7 --format json` reports as produced by
# the product-based generator; the reports must stay byte-identical.
PINNED_GEN_REPORTS = [
    ("sub:2", "7", (),
     "3ebf0947c4d4fc2537339787066d3e251223bdb3ef4aa7ff6d9d4e5a31d57d00"),
    ("del1", "8", (),
     "3113d857da493b945120c79980c4cfcda5910f00d1a8d530f0ebc057ec422a58"),
    ("id:2", "8", (),
     "a32f5afc08697cb5e238c6a5e4dc850726272db97c68007975002149f5493d8f"),
    ("ov", "8", ("--universe", "of"),
     "f93e93fdb764264f40389254eaf321dd56ff5f1c2fc18d423dea984c6578870c"),
    ("del1", "8", ("--end", "01"),
     "dda2bddbd46334e83b873bc87e33955cc1b34d79baa4bdfd6ac753a615d42d5c"),
]


@pytest.mark.parametrize(
    "channel,length,extra,digest", PINNED_GEN_REPORTS,
    ids=[f"{channel}-{length}" + "".join(f"-{a.lstrip('-')}" for a in extra)
         for channel, length, extra, _ in PINNED_GEN_REPORTS])
def test_gen_report_digest_is_pinned(capsys, channel, length, extra, digest):
    code, out, _ = run(
        capsys, "gen", "--channel", channel, "--len", length, "--n", "100",
        "--seed", "7", "--format", "json", *extra,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the check / correct-check / maximal / index transcript of one
# (channel, length) cell, in text and in json; each transcript holds
# violating and NONE answers, ADDABLE and MAXIMAL, and indices below and at
# 1.  Witnesses are read off the minimal trellis and the channel's standard
# form (for correct-check, of its composition with its inverse), so these
# also pin how those are built.
PINNED_DECISIONS = [
    ("sub:2", 6, 1,
     "0f6b45c97ee46f27d83b4e7a0efb064c80aca7754893de8c6bf251b879927e9c",
     "19bdda4ba4c154abb0aa8b44ac42c2944ec8391420b476cc6fbc1f36c160c848"),
    ("sub:2", 8, 2,
     "4e5ceebeebdd36af4000fe3f9df4444b9eed30ba8211a8b6c15d269bb87b2a92",
     "3b6ff5737f636df7feb60d3a7e5e066ea7f81f67ecc1fe456a97ec731f105342"),
    ("id:2", 7, 3,
     "e28cda70b0671c1d14f27357fabdb8640b2a7d9a7c7ba2c813abf9a16daa43a1",
     "fde14367af0aa18fc125349682bd181c68123d69db3e09ce1c6009fb9a1e83fa"),
    ("id:2", 8, 4,
     "6fc139502647dccebdb173fedbcd44123d5795666945ee043a394bc674d3b3e3",
     "c5d50709a6aa9f0d7a07d442536e824138c949a2b707b68cee382d9a535fb9a5"),
    ("del1", 6, 5,
     "f206441db1188be92a85a4149f64d02e8cb0f251d8b5aaf23f167d7e64251466",
     "c1842ffcf446dda9b12d2ecba9aedd56968c85d828bbb4d53d260b69834f518c"),
    ("del1", 8, 6,
     "2fc713c43c15e3b5c08683c7641162d3bb16b028f735382e75e196bd51697381",
     "7f0b0b76f3153ee8845da70a411e749814cebfa8a04e0c75b0a137a0badd68d7"),
    ("bsid2", 6, 7,
     "e99590adb2551a13a8bc3fd4f8b84d3bb3463f48a987dffe71c56ead57dbe3b9",
     "7129f67aa95eac56c1dae5bbb008dd99866127d0ee13416c1282075ddbaed0fb"),
    ("bsid2", 7, 8,
     "5c8bb6c010fae6366cf2491b4071fa38fed91b2b0e3c65897248b0975850ef64",
     "0c0a6adc607d9a741fd33b297f970d952a9770ecc8c30aa748067a388f1756c3"),
    ("ov", 7, 9,
     "13dba1b8df3ecb00a412762f10fbaafbf2a7720420f08a956d608a778b8b5cfd",
     "7badd6a98808f74659f536dcfd9736f2019a0ee655e75b745b5ae695e1ca7323"),
    ("ov", 8, 10,
     "ef0d345651f646b0c91580b0f6f4a56250d804aa721c41e2c46898c6864767c3",
     "c9084c0f08e7c2c7bc837575dcb766105306e7e10440a83667a762cd291fd6ff"),
]


def decision_transcript(capsys, tmp_path, channel, length, seed,
                        fmt="text") -> str:
    """Every decision command, answering in ``fmt``, on three codes: 12
    random words, a greedy code grown until it gives up, and the first half
    of that code."""
    rng = random.Random(seed)
    codes = {"random": sorted({
        "".join(rng.choice("01") for _ in range(length)) for _ in range(12)
    })}
    report = make_code(channel_from_spec(channel), 200, length, seed=seed)
    codes["greedy"] = [format_word(w, BINARY) for w in report.words]
    codes["half"] = codes["greedy"][: len(codes["greedy"]) // 2]
    files = {}
    for name, words in codes.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text("\n".join(words) + "\n")
    lines = []
    for cmd in ("check", "correct-check", "maximal", "index"):
        for name in ("random", "greedy", "half"):
            if cmd in ("maximal", "index") and name == "random":
                continue  # not detecting: a precondition failure
            code, out, _ = run(capsys, cmd, "--channel", channel,
                               "--format", fmt, str(files[name]))
            lines.append(f"{cmd} {name}: {code} {out}")
    return "".join(lines)


DECISION_IDS = [f"{channel}-{length}-{seed}"
                for channel, length, seed, _, _ in PINNED_DECISIONS]


@pytest.mark.parametrize(
    "channel,length,seed,digest,_", PINNED_DECISIONS, ids=DECISION_IDS)
def test_decision_outputs_are_pinned(capsys, tmp_path, channel, length, seed,
                                     digest, _):
    transcript = decision_transcript(capsys, tmp_path, channel, length, seed)
    assert "check greedy: 0 NONE" in transcript
    assert "check random: 3 DETECT-VIOLATION" in transcript
    assert "maximal greedy: 0 MAXIMAL" in transcript
    assert "maximal half: 0 ADDABLE" in transcript
    got = hashlib.sha256(transcript.encode()).hexdigest()
    assert got == digest, transcript


@pytest.mark.parametrize(
    "channel,length,seed,_,digest", PINNED_DECISIONS, ids=DECISION_IDS)
def test_decision_json_outputs_are_pinned(capsys, tmp_path, channel, length,
                                          seed, _, digest):
    transcript = decision_transcript(capsys, tmp_path, channel, length, seed,
                                     "json")
    assert 'check greedy: 0 {"witness": "NONE", "kind": "none"}' in transcript
    assert ('check random: 3 {"witness": "DETECT-VIOLATION '
            in transcript)
    assert ('maximal greedy: 0 {"witness": "MAXIMAL", "kind": "maximal"}'
            in transcript)
    assert 'maximal half: 0 {"witness": "ADDABLE ' in transcript
    assert 'index greedy: 0 {"index": "1", "decimal": 1.0}' in transcript
    got = hashlib.sha256(transcript.encode()).hexdigest()
    assert got == digest, transcript


class TestCheck:
    def test_hamming_sub2_ok(self, capsys, hamming_file):
        code, out, _ = run(capsys, "check", "--channel", "sub:2", hamming_file)
        assert code == 0
        assert out.strip() == "NONE"

    def test_violation_exits_3(self, capsys, tmp_path):
        f = tmp_path / "code.txt"
        f.write_text("0100\n1001\n")
        code, out, _ = run(capsys, "check", "--channel", "ov", str(f))
        assert code == 3
        assert out.startswith("DETECT-VIOLATION")
        assert {"0100", "1001"} == set(out.split()[1:3])

    def test_empty_code_vacuous(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, out, _ = run(
            capsys, "check", "--channel", "sub:1", str(f), "--len", "4"
        )
        assert code == 0
        assert out.strip() == "NONE"
        # without --len the file is refused in its own words, not as a
        # bad code file
        code, _, err = run(capsys, "check", "--channel", "sub:1", str(f))
        assert code == 1
        assert err == "error: empty code file needs --len to fix the block " \
            "length\n"

    def test_correct_check(self, capsys, tmp_path, hamming_file):
        code, out, _ = run(
            capsys, "correct-check", "--channel", "sub:1", hamming_file
        )
        assert code == 0
        f = tmp_path / "pair.txt"
        f.write_text("000\n011\n")
        code, out, _ = run(capsys, "correct-check", "--channel", "sub:1", str(f))
        assert code == 3
        assert out.startswith("CORRECT-VIOLATION")
        assert "via" in out

    def test_bad_code_file_exits_1(self, capsys, tmp_path):
        f = tmp_path / "mixed.txt"
        f.write_text("0\n00\n")
        code, _, err = run(capsys, "check", "--channel", "sub:1", str(f))
        assert code == 1
        assert "mixed" in err
        # only a newline ends a line, as when the file is iterated, so a
        # form feed leaves one line and one bad word
        f.write_text("000\x0c111\n")
        code, _, err = run(capsys, "check", "--channel", "sub:1", str(f))
        assert code == 1
        assert err == f"error: bad code file {str(f)!r}: symbol '000' not " \
            "in alphabet {0,1}\n"


@pytest.mark.parametrize("length, extra", [
    ("1", ()), ("2", ()), ("4", ()), ("3", ("--end", "bc")),
])
def test_gen_words_read_back_over_a_longer_symbol(capsys, tmp_path, length,
                                                   extra):
    # gen prints a word that holds the symbol bc with spaces between its
    # symbols; check reads those lines back as the words gen added
    code, out, _ = run(capsys, "gen", "--channel", "sub:1", "--alphabet",
                       "a,bc", "--len", length, "--n", "3", "--seed", "1",
                       *extra)
    assert code == 0
    lines = out.splitlines()
    end = next(i for i, ln in enumerate(lines) if ln.startswith("size:"))
    words = lines[lines.index("words:") + 1:end]
    assert words
    if extra:
        assert all(w.endswith(" bc") for w in words)
    f = tmp_path / "code.txt"
    f.write_text("\n".join(words) + "\n")
    assert run(capsys, "check", "--channel", "sub:1", "--alphabet", "a,bc",
               str(f)) == (0, "NONE\n", "")


@pytest.mark.parametrize("length, words", [
    ("1", ["a", "aa"]), ("2", ["a a", "a aa"]),
])
def test_gen_words_read_back_over_a_concatenated_symbol(capsys, tmp_path,
                                                         length, words):
    # over {a,aa} every word is written spaced, so the one-symbol word aa
    # reads back as the symbol aa, not as two symbols a
    code, out, _ = run(capsys, "gen", "--channel", "sub:0", "--alphabet",
                       "a,aa", "--len", length, "--n", "2", "--seed", "1",
                       "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["words"]) == words
    f = tmp_path / "code.txt"
    f.write_text("\n".join(words) + "\n")
    assert run(capsys, "check", "--channel", "sub:0", "--alphabet", "a,aa",
               str(f)) == (0, "NONE\n", "")
    assert run(capsys, "check", "--channel", "sub:1", "--alphabet", "a,aa",
               str(f)) == (3, f"DETECT-VIOLATION {words[0]} {words[1]}\n",
                           "")


class TestMaximalAndIndex:
    def test_maximal_systematic_code(self, capsys, tmp_path):
        f = tmp_path / "sys.txt"
        words = ["".join(b) + "01" for b in iproduct("01", repeat=6)]
        f.write_text("\n".join(words) + "\n")
        code, out, _ = run(capsys, "maximal", "--channel", "del1", str(f))
        assert code == 0
        assert out.strip() == "MAXIMAL"
        code, out, _ = run(capsys, "index", "--channel", "del1", str(f))
        assert code == 0
        assert out.strip() == "1 (1.0)"

    def test_addable_word_and_index(self, capsys, tmp_path):
        f = tmp_path / "single.txt"
        f.write_text("0000\n")
        code, out, _ = run(capsys, "maximal", "--channel", "sub:1", str(f))
        assert code == 0
        assert out.startswith("ADDABLE")
        code, out, _ = run(capsys, "index", "--channel", "sub:1", str(f))
        assert code == 0
        assert out.strip() == "5/16 (0.3125)"

    def test_non_detecting_input_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0000\n0001\n")
        for cmd in ("maximal", "index"):
            code, _, err = run(capsys, cmd, "--channel", "sub:1", str(f))
            assert code == 2

    def test_maximal_with_restricted_universe(self, capsys, tmp_path):
        f = tmp_path / "solid.txt"
        f.write_text("00011\n00101\n")
        code, out, _ = run(
            capsys, "maximal", "--channel", "ov", "--universe", "of", str(f)
        )
        assert code == 0
        assert out.startswith("ADDABLE") or out.strip() == "MAXIMAL"
        if out.startswith("ADDABLE"):
            from chancodes import is_overlap_free
            from oracles import is_solid_code

            word = out.split()[1]
            assert is_overlap_free(word)
            assert is_solid_code(["00011", "00101", word])

    def test_universe_of_another_length_exits_1(self, capsys, tmp_path):
        f = tmp_path / "code.txt"
        f.write_text("0000\n1111\n")
        u3 = tmp_path / "u3.aut"
        u3.write_text(universe_trellis(BINARY, 3).to_text())
        code, out, _ = run(capsys, "maximal", "--channel", "sub:1", str(f))
        assert (code, out) == (0, "ADDABLE 0011\n")
        code, out, err = run(
            capsys, "maximal", "--channel", "sub:1", str(f), "--universe", str(u3)
        )
        assert code == 1 and out == ""
        assert "universe length 3 != code length 4" in err


class TestExperiment:
    def test_deterministic_cell(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--channel", "del1", "--len", "8",
            "--n", "100", "--end", "01", "--reps", "3", "--seed", "11",
        )
        assert code == 0
        assert "min=64 median=64 max=64" in out

    def test_multiple_channels_report_lines(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--channel", "sub:2", "--channel", "id:2",
            "--len", "6", "--n", "50", "--reps", "3", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("channel=sub:2")
        assert lines[1].startswith("channel=id:2")

    def test_overlap_free_universe_with_suffix(self, capsys):
        # experiment builds its universe like gen does; only sizes are
        # printed, so gen's "of&end=01" label never shows here
        args = ("--len", "8", "--n", "100", "--universe", "of", "--end", "01")
        code, out, _ = run(
            capsys, "experiment", "--channel", "del1", "--channel", "ov",
            *args, "--reps", "3", "--seed", "5",
        )
        assert code == 0
        assert out == (
            "channel=del1 len=8 n=100 end=01 universe=of reps=3"
            " min=11 median=11 max=11 sizes=11,11,11\n"
            "channel=ov len=8 n=100 end=01 universe=of reps=3"
            " min=1 median=5 max=5 sizes=5,5,1\n"
        )
        sizes = []
        for rep in range(3):
            _, report, _ = run(
                capsys, "gen", "--channel", "ov", *args,
                "--seed", str(derive_seed(5, rep)), "--format", "json",
            )
            payload = json.loads(report)
            assert payload["universe"] == "of&end=01"
            sizes.append(payload["size"])
        assert sizes == [5, 5, 1]

    def test_caps_enforced(self, capsys):
        code, _, err = run(
            capsys, "experiment", "--channel", "sub:1", "--len", "20",
            "--n", "10", "--reps", "1",
        )
        assert code == 1
        assert "cap" in err

    def test_reps_deterministic_vs_seed(self, capsys):
        args = ("experiment", "--channel", "sub:1", "--len", "5", "--n", "20",
                "--reps", "4", "--seed", "13")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_format_is_a_usage_error(self, capsys):
        # experiment prints only text, so --format is not accepted
        assert_usage_error(
            capsys, "experiment", "--channel", "sub:1", "--len", "5",
            "--n", "3", "--seed", "1", "--reps", "2", "--format", "json")


def assert_usage_error(capsys, *argv,
                       message="unrecognized arguments: --format json"):
    """argparse's message on stderr and exit 1, never the exit 2 of a failed
    precondition."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


class TestUsageErrors:
    def test_missing_required_option(self, capsys):
        assert_usage_error(
            capsys, "gen", "--channel", "sub:1", "--len", "4",
            message="the following arguments are required: --n")

    def test_bad_choice(self, capsys):
        assert_usage_error(
            capsys, "experiment", "--channel", "sub:1", "--len", "4",
            "--n", "2", "--universe", "xyz",
            message="argument --universe: invalid choice: 'xyz'")

    def test_channel_show_needs_a_name(self, capsys):
        assert_usage_error(capsys, "channel", "show",
                           message="channel show needs a name")

    @pytest.mark.parametrize("alphabet, message", [
        ("00", "alphabet has duplicate symbols"),
        ("0,*", "bad alphabet symbol: '*'"),
        ("0,,1", "bad alphabet symbol: ''"),
        ("", "alphabet must be non-empty"),
    ])
    @pytest.mark.parametrize("cmd", ["check", "maximal", "gen"])
    def test_bad_alphabet(self, capsys, tmp_path, cmd, alphabet, message):
        # one error line and exit 1; an exception escaping main would fail
        f = tmp_path / "code.txt"
        f.write_text("000\n")
        args = ["--len", "3", "--n", "1"] if cmd == "gen" else [str(f)]
        code, out, err = run(capsys, cmd, "--channel", "sub:1",
                             "--alphabet", alphabet, *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["abc", "1.5", " "])
    @pytest.mark.parametrize("cmd", ["gen", "experiment"])
    def test_bad_seed_variable(self, capsys, monkeypatch, cmd, value):
        # a seed from the environment is outside input like --seed itself
        monkeypatch.setenv("CHANCODES_SEED", value)
        code, out, err = run(capsys, cmd, "--channel", "sub:1", "--len", "4",
                             "--n", "2")
        assert (code, out, err) == (
            1, "", f"error: CHANCODES_SEED must be an integer, got {value!r}\n")

    @pytest.mark.parametrize("option, text, failure", [
        ("--channel", "@Transducer 0 * 0\n0 0 0 0\n0 1 2 0\n",
         "cannot load channel"),
        ("--universe", "@NFA 1 * 0\n0 0 1\n0 2 1\n", "bad trellis file"),
    ], ids=["channel", "universe"])
    def test_label_outside_the_alphabet(self, capsys, tmp_path, option, text,
                                        failure):
        # channel and automaton files report a bad label in the same words
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code_file = tmp_path / "code.txt"
        code_file.write_text("0\n")
        args = (["check", "--channel", str(path), str(code_file)]
                if option == "--channel" else
                ["gen", "--channel", "sub:1", "--len", "1", "--n", "1",
                 "--universe", str(path)])
        code, out, err = run(capsys, *args, "--alphabet", "01")
        assert (code, out) == (1, "")
        assert err == (f"error: {failure} {str(path)!r}: "
                       "transition label '2' not in alphabet\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert "--seed-code" in capsys.readouterr().out


class TestChannelCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "channel", "list")
        assert code == 0
        for name in ("sub:k", "del1", "ov"):
            assert name in out

    def test_show_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "channel", "show", "del1")
        assert code == 0
        assert out.startswith("@Transducer 0 2 * 0")
        # a shown channel is loadable back as a file
        f = tmp_path / "del1.t"
        f.write_text(out)
        code, out2, _ = run(capsys, "channel", "show", str(f))
        assert code == 0
        assert out2 == out

    def test_unknown_channel(self, capsys):
        code, _, err = run(capsys, "channel", "show", "warp:9")
        assert code == 1
        assert "unknown channel" in err

    def test_list_format_is_a_usage_error(self, capsys):
        assert_usage_error(capsys, "channel", "list", "--format", "json")

    def test_show_format_is_a_usage_error(self, capsys):
        assert_usage_error(capsys, "channel", "show", "del1",
                           "--format", "json")


class TestNegativeLengthAndReps:
    """Bad numbers end in one ``error:`` line and exit 1; an uncaught
    exception would escape ``main`` and fail the test."""

    @pytest.mark.parametrize("argv", [
        ("gen", "--channel", "sub:1", "--len", "-1", "--n", "1"),
        ("gen", "--channel", "sub:1", "--len", "-1", "--n", "1",
         "--universe", "of"),
        ("experiment", "--channel", "sub:1", "--len", "-1", "--n", "1",
         "--reps", "1"),
        ("experiment", "--channel", "sub:1", "--len", "-1", "--n", "1",
         "--reps", "1", "--universe", "of"),
    ])
    def test_negative_len_in_generation(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: block length must be >= 0, got -1\n"

    @pytest.mark.parametrize("cmd", ["check", "correct-check", "index",
                                     "maximal"])
    def test_negative_len_with_an_empty_code_file(self, capsys, tmp_path,
                                                  cmd):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, out, err = run(capsys, cmd, "--channel", "sub:1", "--len", "-1",
                             str(f))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad code file")
        assert err.endswith("block length must be >= 0, got -1\n")

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_experiment_needs_a_positive_rep_count(self, capsys, reps):
        code, out, err = run(capsys, "experiment", "--channel", "sub:1",
                             "--len", "4", "--n", "2", "--reps", reps)
        assert (code, out) == (1, "")
        assert err == f"error: --reps must be >= 1, got {reps}\n"


def in_process(capsys, argv) -> tuple:
    """Exit code, stdout and stderr of ``main`` in this process, with a
    usage error's SystemExit read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv, seed_env: "str | None") -> tuple:
    """Exit code, stdout and stderr of ``python -m chancodes.cli argv``."""
    src = str(Path(chancodes.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"
    if seed_env is not None:
        env[cli.SEED_ENV] = seed_env
    done = subprocess.run([sys.executable, "-m", "chancodes.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


class TestReusedParser:
    """``main`` reuses one parser per process: every call prints what a
    fresh process prints, whatever ran before it."""

    @pytest.fixture
    def files(self, tmp_path):
        texts = {"hamming": "\n".join(HAMMING), "close": "000\n011",
                 "one": "0000", "sys": "0001\n0110\n1011\n1100"}
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text + "\n")
        return {name: str(path) for name, path in paths.items()}

    def replay(self, capsys, monkeypatch, calls) -> None:
        """Run ``calls``, (argv, CHANCODES_SEED or None) pairs, in order in
        this process, then each in a fresh process, and compare.  An
        unseeded gen is replayed with the seed its report records."""
        monkeypatch.setenv("COLUMNS", "80")
        here, replays = [], []
        for argv, seed_env in calls:
            if seed_env is None:
                monkeypatch.delenv(cli.SEED_ENV, raising=False)
            else:
                monkeypatch.setenv(cli.SEED_ENV, seed_env)
            got = in_process(capsys, argv)
            if argv[0] == "gen" and seed_env is None and \
                    "--seed" not in argv and got[0] == 0:
                seed_env = json.loads(got[1])["seed"] \
                    if "json" in argv else got[1].split("seed: ")[1].split()[0]
                seed_env = str(seed_env)
            here.append(got)
            replays.append((argv, seed_env))
        with ThreadPoolExecutor(max_workers=2) as pool:
            fresh = list(pool.map(lambda c: fresh_process(*c), replays))
        for (argv, _), got, want in zip(replays, here, fresh):
            assert got == want, argv

    def test_every_command_prints_what_a_fresh_process_prints(
            self, capsys, monkeypatch, files):
        self.replay(capsys, monkeypatch, [
            (("gen", "--channel", "del1", "--channel", "sub:2", "--len", "6",
              "--n", "5", "--seed", "3"), None),
            (("gen", "--channel", "sub:1", "--len", "6", "--n", "5",
              "--format", "json"), "11"),
            (("gen", "--channel", "id:1", "--len", "5", "--n", "4"), None),
            (("check", "--channel", "sub:2", files["hamming"]), None),
            (("correct-check", "--channel", "sub:1", files["close"]), None),
            (("maximal", "--channel", "sub:1", files["one"]), None),
            (("index", "--channel", "sub:1", files["one"], "--format",
              "json"), None),
            (("experiment", "--channel", "sub:1", "--len", "5", "--n", "3",
              "--reps", "2"), "4"),
            (("experiment", "--channel", "id:1", "--len", "4", "--n", "3",
              "--reps", "2", "--seed", "2"), None),
            (("channel", "show", "del1"), None),
        ])

    def test_usage_errors_leave_the_next_call_unchanged(
            self, capsys, monkeypatch, files):
        check = ("check", "--channel", "sub:1", files["sys"])
        self.replay(capsys, monkeypatch, [
            (check, None),
            (("gen", "--bogus"), None),
            (check, None),
            (("channel", "show"), None),
            (("gen", "--channel", "sub:1", "--len", "4", "--n", "2",
              "--seed", "5"), None),
        ])

    def test_usage_error_lines(self, capsys, monkeypatch):
        # the top-level parser.error path: usage lines, one error line
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            code, out, err = in_process(capsys, ["channel", "show"])
            assert (code, out) == (1, "")
            assert err.startswith("usage: chancodes ")
            assert err.endswith("\nchancodes: error: channel show needs a "
                                "name\n")
            assert err.count("error:") == 1

    @pytest.mark.parametrize("columns", ["80", "44"])
    def test_help_equals_a_freshly_built_parsers(self, capsys, monkeypatch,
                                                 columns):
        # the help is formatted at call time, so COLUMNS still applies
        monkeypatch.setenv("COLUMNS", columns)
        in_process(capsys, ["channel", "list"])
        assert cli._parser() is cli._parser()
        for command in ([], ["gen"], ["check"], ["correct-check"],
                        ["maximal"], ["index"], ["experiment"], ["channel"]):
            got = in_process(capsys, [*command, "--help"])
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*command, "--help"])
            want = (exc.value.code, *capsys.readouterr())
            assert got == want and got[0] == 0 and got[1], command

    def test_repeated_channels_share_no_list(self, capsys):
        parser = cli._parser()
        two = parser.parse_args(["gen", "--channel", "del1", "--channel",
                                 "sub:2", "--n", "1"])
        one = parser.parse_args(["gen", "--channel", "sub:1", "--n", "1"])
        assert (two.channel, one.channel) == (["del1", "sub:2"], ["sub:1"])
        labels = []
        for channels in (("del1", "sub:2"), ("sub:1",), ("del1", "sub:2")):
            argv = ["gen", "--len", "4", "--n", "1", "--seed", "1",
                    "--format", "json"]
            for name in channels:
                argv += ["--channel", name]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            labels.append(json.loads(out)["channel"])
        assert labels == ["del1|sub:2", "sub:1", "del1|sub:2"]

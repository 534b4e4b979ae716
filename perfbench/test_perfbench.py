"""Self-tests of the benchmark: referees, output checks and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import checks
import inputs
import run
import tracer
from inputs import REFEREES, all_words

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def package():
    """chancodes imported from src/, as the benchmark imports it."""
    return run.import_package()


# -- referees ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", sorted(REFEREES))
def test_referee_matches_channel_transducer(package, spec):
    channel = sys.modules["chancodes.channels"].channel_from_spec(spec)
    referee = REFEREES[spec]
    for u in all_words(5):
        image = {"".join(z) for z in channel.image_set(u, 7)}
        assert referee.images(u) == {z for z in image if len(z) == 5}
        assert {z for z in image if referee.member(u, z)} == image
        assert {z for n in range(8) for z in all_words(n)
                if referee.member(u, z)} == image
        assert referee.preimages(u) == {
            v for v in all_words(5) if u in referee.images(v)}


@pytest.mark.parametrize("spec", ["sub:1", "sub:2", "id:1", "id:2", "del1"])
def test_footprints_meet_exactly_when_outputs_meet(package, spec):
    channel = sys.modules["chancodes.channels"].channel_from_spec(spec)
    referee = REFEREES[spec]
    images = {u: channel.image_set(u, 7) for u in all_words(5)}
    for u, v in combinations(all_words(5), 2):
        assert bool(referee.footprint(u) & referee.footprint(v)) == \
            bool(images[u] & images[v])


def test_varshamov_tenengolts_corrects_one_indel():
    vt = inputs.varshamov_tenengolts(12)
    assert len(vt) == 316
    assert inputs.is_correcting(vt, REFEREES["id:1"])
    assert inputs.is_correcting(vt, REFEREES["del1"])


def test_greedy_codes_are_detecting_and_full_scan_is_maximal():
    for spec in ("sub:2", "del1", "id:2"):
        referee = REFEREES[spec]
        full = inputs.greedy_code(random.Random(3), referee, 9)
        half = inputs.greedy_code(random.Random(3), referee, 9, scan=0.5)
        assert inputs.is_detecting(full, referee)
        assert inputs.is_detecting(half, referee)
        assert inputs.maximality_index(full, referee, 9) == 1
        assert inputs.maximality_index(half, referee, 9) < 1


# -- output checks -----------------------------------------------------------------


CODE = frozenset({"0000", "0001", "0111"})


def _witness(text: str) -> str:
    return json.dumps({"witness": text, "kind": "x"})


def test_check_accepts_a_valid_witness_and_rejects_corrupted_ones():
    sub1 = REFEREES["sub:1"]
    ok = dict(code=CODE, referee=sub1, correcting=False, expect_none=False)
    assert checks.check_witness(3, _witness("DETECT-VIOLATION 0000 0001"),
                                **ok) == []
    for corrupted in ("DETECT-VIOLATION 0000 0111",   # not a sub:1 output
                      "DETECT-VIOLATION 0000 1000",   # not a codeword
                      "DETECT-VIOLATION 0000 0000",   # not distinct
                      "NONE"):
        assert checks.check_witness(3, _witness(corrupted), **ok)
    assert checks.check_witness(0, _witness("DETECT-VIOLATION 0000 0001"),
                                **ok)


def test_correction_witness_needs_a_shared_output():
    sub1 = REFEREES["sub:1"]
    ok = dict(code=CODE, referee=sub1, correcting=True, expect_none=False)
    assert checks.check_witness(
        3, _witness("CORRECT-VIOLATION 0001 0111 via 0011"), **ok) == []
    assert checks.check_witness(
        3, _witness("CORRECT-VIOLATION 0001 0111 via 1111"), **ok)


def test_index_check_rejects_a_wrong_fraction():
    out = json.dumps({"index": "3/4", "decimal": 0.75})
    assert checks.check_index(0, out, expected=Fraction(3, 4)) == []
    assert checks.check_index(0, out, expected=Fraction(5, 8))


def test_maximal_check_rejects_an_excluded_word():
    excluded = frozenset({"00", "01", "10"})
    assert checks.check_maximal(0, _witness("ADDABLE 11"), length=2,
                                excluded=excluded) == []
    assert checks.check_maximal(0, _witness("ADDABLE 01"), length=2,
                                excluded=excluded)
    assert checks.check_maximal(0, _witness("MAXIMAL"), length=2,
                                excluded=excluded)


def test_a_wrong_digest_fails_the_op():
    out = "report\n"
    op = run.Op("gen", "cell", [], lambda rc, text: [],
                pinned=checks.digest(out))
    assert run.verify(op, 0, out) == []
    assert run.verify(op, 0, "another report\n")


def test_later_passes_must_repeat_the_first():
    op = run.Op("gen", "cell", [], lambda rc, text: [])
    passes = run.Passes([op])
    passes.record([0.1], [1.0], [(0, "a")])
    passes.record([0.1], [1.0], [(0, "a")])
    assert passes.problems == []
    passes.record([0.1], [1.0], [(0, "b")])
    assert passes.attempted == 3 and len(passes.problems) == 1


# -- tracer ------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].  The list
    # starts at absolute index 100, as a later pass's spans do.
    a, b, c, d = tracer.NAMES[:4]
    spans = [(a, 0.0, 10.0, -1, 0), (b, 1.0, 4.0, 100, 0),
             (c, 5.0, 9.0, 100, 0), (d, 6.0, 7.0, 102, 5)]
    stats = tracer.span_stats(spans, base=100)
    assert [stats[n]["self_s"] for n in (a, b, c, d)] == [3.0, 3.0, 3.0, 1.0]
    assert stats[d]["states_out"] == 5
    assert all(stats[n]["calls"] == 1 for n in (a, b, c, d))


def test_tracer_patches_every_alias_and_restores_them(package):
    mods = {name: sys.modules[f"chancodes.{name}"]
            for name in ("transducers", "codegen", "properties", "cli")}
    product = mods["transducers"].product
    t = tracer.Tracer()
    t.install()
    try:
        for name in ("transducers", "codegen", "properties"):
            assert getattr(mods[name], "product") is not product
        assert mods["cli"].detection_witness is \
            mods["codegen"].detection_witness is \
            mods["properties"].detection_witness
    finally:
        t.remove()
    for name in ("transducers", "codegen", "properties"):
        assert getattr(mods[name], "product") is product


def test_a_missing_target_reports_zero_calls(package, monkeypatch):
    automata = sys.modules["chancodes.automata"]
    monkeypatch.delattr(automata.Nfa, "matcher")
    t = tracer.Tracer()
    t.install()
    t.remove()
    t.begin_pass()
    assert t.stats(0)["automata.Nfa.matcher"]["calls"] == 0


def _traced_counters(cli, ops):
    t = tracer.Tracer()
    t.install()
    try:
        run.measure(ops, cli, 0, t)
    finally:
        t.remove()
    stats = t.stats(0)
    return {n: (s["calls"], s["states_out"]) for n, s in stats.items()}


def test_traced_runs_with_one_seed_count_the_same(package, tmp_path):
    ops = run.gen_saturate(7, tmp_path).ops[:len(run.GEN_SATURATE)]
    first = _traced_counters(package, ops)
    assert first["codegen.next_word"][0] > 0
    assert first["transducers.product"][1] > 0
    assert _traced_counters(package, ops) == first


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)

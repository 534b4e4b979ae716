"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time
from fractions import Fraction
from itertools import combinations, product as iproduct

from chancodes import (
    BINARY,
    detection_witness,
    correction_witness,
    format_word,
    make_bsid,
    make_code,
    make_del1_insend,
    make_id,
    make_ins1_delend,
    make_overlap,
    make_segd,
    make_sub,
    maximality_index,
    next_word,
    exclusion_automaton,
    overlap_free_trellis,
    product,
    suffix_universe,
    trellis_from_words,
    universe_trellis,
)
from chancodes.codegen import derive_seed

import oracles


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status} {name}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def eq2_channels():
    return [make_sub(1), make_sub(2), make_id(1), make_del1_insend(),
            make_overlap()]


def test_criterion_1_image_oracle_equivalence():
    channels = [
        make_sub(1), make_sub(2), make_id(1), make_id(2),
        make_del1_insend(), make_ins1_delend(), make_bsid(2),
        make_segd(2), make_segd(4), make_overlap(),
    ]
    started = time.perf_counter()
    checked = 0
    ok = True
    for ch in channels:
        for n in range(6):
            for w in BINARY.words_of_length(n):
                bound = n + 2
                via_product = ch.transducer.image(w).words_up_to(bound)
                via_paths = oracles.enumerate_image(ch.transducer, w, bound)
                if via_product != via_paths:
                    ok = False
                checked += 1
    elapsed = time.perf_counter() - started
    report(1, "image-oracle-equivalence", ok and elapsed < 60,
           f"{checked} images across {len(channels)} channels, {elapsed:.1f}s")


def test_criterion_2_worked_example_id1():
    started = time.perf_counter()
    code = trellis_from_words(["00", "11"], BINARY)
    image = product(code, make_id(1).transducer)
    got = {format_word(w, BINARY) for w in image.words_up_to(3)}
    expected = {
        "00", "0", "000", "100", "010", "001",
        "11", "1", "011", "101", "110", "111",
    }
    elapsed = time.perf_counter() - started
    report(2, "worked-example-id1", got == expected and elapsed < 1.0,
           f"{len(got)} words, {elapsed*1000:.0f}ms")


def test_criterion_3_add_word_equivalence():
    started = time.perf_counter()
    pool = [format_word(w, BINARY) for w in BINARY.words_of_length(4)]
    mismatches = 0
    checked = 0
    for ch in eq2_channels():
        images = {
            w: oracles.enumerate_image(ch.transducer, BINARY.word(w), 4)
            for w in pool
        }

        def brute_detecting(words) -> bool:
            return all(
                BINARY.word(v) not in images[u]
                for u in words for v in words if u != v
            )

        for size in range(4):
            for combo in combinations(pool, size):
                if not brute_detecting(combo):
                    continue
                trellis = trellis_from_words(combo, BINARY, length=4)
                excluded = product(
                    trellis, ch.self_union_inverse()
                ).words_up_to(4)
                blocked = {format_word(w, BINARY) for w in excluded if len(w) == 4}
                for w in pool:
                    if w in combo:
                        continue
                    brute_addable = brute_detecting(list(combo) + [w])
                    product_addable = w not in blocked
                    checked += 1
                    if brute_addable != product_addable:
                        mismatches += 1
    elapsed = time.perf_counter() - started
    report(3, "add-word-equivalence", mismatches == 0 and elapsed < 300,
           f"{checked} (code, word) pairs, {elapsed:.1f}s")


def test_criterion_4_correction_reduction():
    started = time.perf_counter()
    pool = [format_word(w, BINARY) for w in BINARY.words_of_length(4)]
    mismatches = 0
    checked = 0
    for ch in eq2_channels():
        images = {
            w: oracles.enumerate_image(ch.transducer, BINARY.word(w), 6)
            for w in pool
        }
        for size in range(4):
            for combo in combinations(pool, size):
                brute_correcting = all(
                    not (images[u] & images[v])
                    for u, v in combinations(combo, 2)
                )
                witness = correction_witness(
                    trellis_from_words(combo, BINARY, length=4), ch
                )
                checked += 1
                if brute_correcting != (not witness):
                    mismatches += 1
                elif witness and not (
                    witness.z in images[format_word(witness.u, BINARY)]
                    and witness.z in images[format_word(witness.v, BINARY)]
                ):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    report(4, "correction-reduction", mismatches == 0,
           f"{checked} codes, {elapsed:.1f}s")


def test_criterion_5_known_codes():
    rows = [
        (1, 0, 0, 0, 1, 1, 0),
        (0, 1, 0, 0, 1, 0, 1),
        (0, 0, 1, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1),
    ]
    hamming = set()
    for bits in iproduct((0, 1), repeat=4):
        word = [0] * 7
        for flag, row in zip(bits, rows):
            if flag:
                word = [(c + r) % 2 for c, r in zip(word, row)]
        hamming.add("".join(map(str, word)))
    ok = len(hamming) == 16
    ok &= not detection_witness(trellis_from_words(hamming, BINARY), make_sub(2))

    systematic = ["".join(b) + "01" for b in iproduct("01", repeat=6)]
    trellis = trellis_from_words(systematic, BINARY)
    del1 = make_del1_insend()
    ok &= len(systematic) == 64
    ok &= not detection_witness(trellis, del1)
    index = maximality_index(trellis, del1)
    ok &= index == 1
    report(5, "known-codes", ok,
           f"hamming 16 words sub:2-detecting; systematic index {index}")


def test_criterion_6_nextword_statistics():
    seed_code = trellis_from_words(["0000000"], BINARY)
    sub2 = make_sub(2)
    index = maximality_index(seed_code, sub2)
    ball = oracles.hamming_ball("0000000", 2, BINARY)
    ok = index == Fraction(len(ball), 2**7) == Fraction(29, 128)

    runs = 1000
    nones = 0
    started = time.perf_counter()
    for seed in range(runs):
        outcome = next_word(sub2, seed_code, "0.95", "0.05",
                            rng=random.Random(seed))
        if outcome.word is None:
            nones += 1
    rate = nones / runs
    elapsed = time.perf_counter() - started
    report(6, "nextword-statistics", ok and rate < 0.07,
           f"index {index}, NONE rate {rate:.3f} over {runs} runs, "
           f"{elapsed:.1f}s")


def test_criterion_7_table_reproduction():
    started = time.perf_counter()
    reps = 21
    cells = [
        ("sub:2", make_sub(2), 7, None, 10),
        ("del1", make_del1_insend(), 8, None, 42),
        ("id:2", make_id(2), 8, None, 20),
        ("ov", make_overlap(), 8, "of", 7),
    ]
    ok = True
    details = []
    for label, channel, ell, universe_kind, reference_median in cells:
        universe = (
            overlap_free_trellis(BINARY, ell) if universe_kind == "of" else None
        )
        sizes = []
        for rep in range(reps):
            generated = make_code(channel, 100, ell,
                                  seed=derive_seed(1009, rep),
                                  universe=universe)
            ok &= not detection_witness(generated.trellis, channel)
            sizes.append(generated.size)
        sizes.sort()
        med = sizes[reps // 2]
        low, high = 0.6 * reference_median, 1.4 * reference_median
        cell_ok = low <= med <= high
        ok &= cell_ok
        details.append(f"{label}:{med}(ref {reference_median})")

    constrained = suffix_universe(BINARY, 8, "01")
    del1 = make_del1_insend()
    fixed_sizes = [
        make_code(del1, 100, 8, seed=derive_seed(77, rep),
                  universe=constrained).size
        for rep in range(reps)
    ]
    ok &= all(size == 64 for size in fixed_sizes)
    details.append(f"del1-end01:{min(fixed_sizes)}..{max(fixed_sizes)}")
    elapsed = time.perf_counter() - started
    report(7, "table-reproduction", ok and elapsed < 600,
           f"medians {' '.join(details)}, {elapsed:.0f}s")


def test_criterion_8_index_matches_sampling():
    code = trellis_from_words(["0000"], BINARY)
    sub1 = make_sub(1)
    index = maximality_index(code, sub1)
    ok = index == Fraction(5, 16)

    blocked = exclusion_automaton(code, sub1).determinize()
    universe = universe_trellis(BINARY, 4)
    rng = random.Random(271828)
    draws = 10_000
    hits = sum(
        1 for _ in range(draws) if blocked.accepts(universe.sample_uniform(rng))
    )
    p = float(index)
    sigma = (p * (1 - p) / draws) ** 0.5
    deviation = abs(hits / draws - p)
    report(8, "index-matches-sampling", ok and deviation <= 3 * sigma,
           f"exact {index}, empirical {hits/draws:.4f}, 3sigma {3*sigma:.4f}")


def test_criterion_9_product_size_linear():
    rng = random.Random(31337)
    transducer = make_del1_insend().transducer
    xs, ys = [], []
    for n_words in (10, 50, 100, 300, 600, 1000):
        words = set()
        while len(words) < n_words:
            words.add("".join(rng.choice("01") for _ in range(12)))
        trellis = trellis_from_words(words, BINARY)
        prod = product(trellis, transducer)
        xs.append(oracles.machine_size(trellis))
        ys.append(oracles.machine_size(prod))
    ratios = [y / x for x, y in zip(xs, ys)]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    spread = max(ratios) / min(ratios)
    report(9, "product-size-linear", slope > 0 and spread < 3.0,
           f"slope {slope:.2f}, ratio spread {spread:.2f}")

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from chancodes import (
    Alphabet,
    BINARY,
    Channel,
    Dfa,
    NotDetectingError,
    ParameterError,
    detection_witness,
    format_word,
    make_code,
    make_del1_insend,
    make_id,
    make_overlap,
    make_sub,
    maximality_index,
    next_word,
    overlap_free_trellis,
    suffix_universe,
    Transducer,
    Trellis,
    channel_from_spec,
    trellis_from_words,
    trial_bound,
    universe_trellis,
)
from chancodes import codegen
from chancodes.codegen import Exclusion, NextWord, derive_seed

import oracles
from oracles import is_solid_code


class TestTrialBound:
    def test_default_parameters(self):
        assert trial_bound(0.95, 0.05) == 2001
        assert trial_bound("0.95", "0.05") == 2001

    def test_direct_evaluations(self):
        assert trial_bound(0, 1) == 1
        assert trial_bound(0.5, 0.25) == 5
        assert trial_bound(Fraction(1, 2), Fraction(1, 4)) == 5

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            trial_bound(1, 0.05)
        with pytest.raises(ParameterError):
            trial_bound(0.95, 0)
        with pytest.raises(ParameterError):
            trial_bound(-0.1, 0.5)

    def test_overflow_guard(self):
        with pytest.raises(ParameterError):
            trial_bound("0.9999999", "0.0000001")


class TestNextWord:
    def test_empty_code_succeeds_first_trial(self):
        t = trellis_from_words([], BINARY, length=4)
        out = next_word(make_sub(2), t, rng=random.Random(5))
        assert out.word is not None and len(out.word) == 4
        assert out.trials == 1

    def test_singleton_sub2_needs_weight_three(self):
        t = trellis_from_words(["0000"], BINARY)
        for seed in range(10):
            out = next_word(make_sub(2), t, rng=random.Random(seed))
            assert out.word is not None
            assert sum(1 for s in out.word if s == "1") >= 3

    def test_maximal_code_always_none(self):
        from itertools import product as iproduct

        code = ["".join(b) + "01" for b in iproduct("01", repeat=6)]
        t = trellis_from_words(code, BINARY)
        ch = make_del1_insend()
        # cheap bound first (n = 5), then one full-size run
        out = next_word(ch, t, f=0.5, eps=0.25, rng=random.Random(1))
        assert out.word is None and out.trials == 5
        out = next_word(ch, t, rng=random.Random(2))
        assert out.word is None and out.trials == 2001

    def test_empty_universe_flagged(self):
        t = trellis_from_words([], BINARY, length=3)
        empty = trellis_from_words([], BINARY, length=3)
        out = next_word(make_sub(1), t, universe=empty, rng=random.Random(0))
        assert out.word is None
        assert out.empty_universe
        assert out.trials == 0

    def test_added_word_keeps_detection(self):
        rng = random.Random(9)
        t = trellis_from_words(["0000"], BINARY)
        ch = make_sub(1)
        out = next_word(ch, t, rng=rng)
        grown = t.add_word(out.word)
        assert not detection_witness(grown, ch)


class TestMakeCode:
    def test_report_language_is_seed_plus_words(self):
        seed_code = trellis_from_words(["0000"], BINARY)
        rep = make_code(make_sub(1), 3, seed_code=seed_code, seed=12)
        got = {format_word(w, BINARY) for w in rep.trellis.iter_words()}
        assert got == {"0000"} | {format_word(w, BINARY) for w in rep.words}
        assert len(rep.words) == len(set(rep.words)) == 3
        assert all(format_word(w, BINARY) != "0000" for w in rep.words)

    def test_minimal_seed_code_grows_like_its_prefix_tree(self):
        """A seed code whose paths meet grows by the same words as its
        prefix tree, and the grown trellis accepts exactly seed + words."""
        channel = make_sub(1)
        seeds = [(["000000", "001011", "111111"], 3)]  # size 5, not 6
        for seed in range(8):
            start = make_code(channel, 6, 7, seed=100 + seed)
            seeds.append(([format_word(w, BINARY) for w in start.words], seed))
        for words, seed in seeds:
            tree = oracles.prefix_tree(words, BINARY)
            reports = [make_code(channel, 4, seed_code=code, seed=seed)
                       for code in (tree, tree.minimal)]
            assert reports[0].to_text() == reports[1].to_text()
            for rep in reports:
                got = {format_word(w, BINARY) for w in rep.trellis.iter_words()}
                assert got == set(words) | {format_word(w, BINARY)
                                            for w in rep.words}
                assert not detection_witness(rep.trellis, channel)
        assert make_code(channel, 2, seed_code=trellis_from_words(
            seeds[0][0], BINARY), seed=3).size == 5

    def test_final_code_detecting_across_channels_and_seeds(self):
        channels = [make_sub(2), make_id(1), make_del1_insend(), make_overlap()]
        for ch in channels:
            for seed in range(3):
                rep = make_code(ch, 50, 6, seed=seed)
                assert not detection_witness(rep.trellis, ch), (ch.name, seed)
                assert rep.size == len(rep.words)

    def test_deterministic_under_seed(self):
        a = make_code(make_id(2), 30, 7, seed=42)
        b = make_code(make_id(2), 30, 7, seed=42)
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()
        c = make_code(make_id(2), 30, 7, seed=43)
        assert c.to_text() != a.to_text()

    def test_rejects_non_detecting_seed_code(self):
        bad = trellis_from_words(["0000", "0001"], BINARY)
        with pytest.raises(NotDetectingError):
            make_code(make_sub(1), 5, seed_code=bad, seed=1)

    def test_zero_requested_words(self):
        rep = make_code(make_sub(1), 0, 4, seed=1)
        assert rep.words == ()
        assert not rep.exhausted
        assert rep.size == 0

    def test_exhausted_runs_reach_high_index(self):
        # when the run stops early the index should usually clear f = 0.95
        ch = make_sub(1)
        high = 0
        runs = 20
        for seed in range(runs):
            rep = make_code(ch, 100, 5, seed=seed)
            assert rep.exhausted
            if maximality_index(rep.trellis, ch) >= Fraction(95, 100):
                high += 1
        assert high >= int(0.9 * runs)

    def test_overlap_free_universe_yields_solid_codes(self):
        ch = make_overlap()
        for ell in (4, 5, 6):
            universe = overlap_free_trellis(BINARY, ell)
            rep = make_code(ch, 100, ell, seed=ell, universe=universe,
                            universe_label="of")
            assert rep.exhausted
            assert rep.words  # something was generated
            for w in rep.words:
                assert universe.accepts(w)
            assert is_solid_code(rep.words)

    def test_trials_recorded_per_word(self):
        rep = make_code(make_sub(2), 10, 6, seed=3)
        assert len(rep.trials_per_word) == len(rep.words)
        assert all(t >= 1 for t in rep.trials_per_word)

    def test_text_report_shape(self):
        rep = make_code(make_sub(1), 2, 4, seed=9)
        text = rep.to_text()
        assert text.startswith("channel: sub:1\n")
        assert "trials-per-word: 2001" in text
        assert "exhausted:" in text
        assert "wall-time" not in text
        assert "wall-time-s:" in rep.to_text(include_timing=True)

    def test_length_contradicts_seed_code(self):
        seed_code = trellis_from_words(["0000"], BINARY)
        with pytest.raises(ParameterError):
            make_code(make_sub(1), 2, 5, seed_code=seed_code, seed=1)

    def test_universe_must_match_length(self):
        with pytest.raises(ParameterError):
            make_code(make_sub(1), 2, 5,
                      universe=universe_trellis(BINARY, 4), seed=1)

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError, match="must be >= 0"):
            make_code(make_sub(1), 2, -1, seed=1)

    def test_universe_is_checked_without_draws(self):
        # the universe is checked before the first draw, so also with n = 0
        with pytest.raises(ParameterError, match="universe length 3"):
            make_code(make_sub(1), 0, 4,
                      universe=universe_trellis(BINARY, 3), seed=1)

    @pytest.mark.parametrize("seed_code", [None, ["00000000"]])
    def test_inputs_are_checked_once_per_run(self, monkeypatch, seed_code):
        import chancodes.codegen as codegen
        import chancodes.properties as properties

        calls = {"trial_bound": 0, "_fitting_universe": 0,
                 "_require_same_alphabet": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapped = counted(name, getattr(codegen, name))
            monkeypatch.setattr(codegen, name, wrapped)
            if hasattr(properties, name):
                monkeypatch.setattr(properties, name, wrapped)
        if seed_code is not None:
            seed_code = trellis_from_words(seed_code, BINARY)
        rep = make_code(make_sub(1), 20, 8, seed_code=seed_code, seed=2)
        assert len(rep.words) == 20
        # the empty start is built over the channel's alphabet, so only a
        # seed code needs the alphabet check (in ``detection_witness``)
        assert calls == {"trial_bound": 1, "_fitting_universe": 1,
                         "_require_same_alphabet": int(seed_code is not None)}


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(7, 0)
        assert a == derive_seed(7, 0)
        assert a != derive_seed(7, 1)
        assert derive_seed(None, 0) == derive_seed(None, 0)
        assert derive_seed(8, 0) != derive_seed(7, 0)


class RandomSpec(NamedTuple):
    """The fields of a random transducer as they were drawn: unsorted,
    possibly repeated transitions whose labels hold 0-2 symbols.  The
    oracles read it like a transducer, along the raw transitions;
    ``Transducer(*spec)`` holds its standard form."""

    alphabet: Alphabet
    num_states: int
    initial: list
    final: list
    transitions: tuple


def random_spec(rng: random.Random, alphabet: Alphabet) -> RandomSpec:
    """A small transducer with labels of length 0-2 on either side, so it has
    epsilon-input and epsilon-output edges, cycles, and several initial and
    final states more often than not; it need not be input-preserving."""
    n = rng.randint(1, 4)
    transitions = []
    for _ in range(rng.randint(n, 3 * n + 2)):
        inp, out = (
            tuple(rng.choice(alphabet.symbols)
                  for _ in range(rng.choice((0, 1, 1, 2))))
            for _ in range(2)
        )
        transitions.append((rng.randrange(n), inp, out, rng.randrange(n)))
    initial = rng.sample(range(n), rng.randint(1, n))
    final = rng.sample(range(n), rng.randint(1, n))
    return RandomSpec(alphabet, n, initial, final, tuple(transitions))


def random_channel(rng: random.Random, alphabet: Alphabet) -> Channel:
    """``random_spec`` as a channel."""
    return Channel("random", Transducer(*random_spec(rng, alphabet)))


def random_layered_dfa(rng: random.Random, alphabet: Alphabet,
                       length: int) -> str:
    """@DFA text of a random layered DAG of the given depth: one to three
    states per layer, each with at least one edge into the next layer.
    Its last layer holds the final states, so ``Trellis.from_text`` reads
    it as a block code, rarely as its minimal trellis."""
    layers, rows = [[0]], []
    for _ in range(length):
        start = layers[-1][-1] + 1
        layers.append(list(range(start, start + rng.randint(1, 3))))
    for here, there in zip(layers, layers[1:]):
        for s in here:
            symbols = rng.sample(alphabet.symbols,
                                 rng.randint(1, len(alphabet)))
            rows += [f"{s} {a} {rng.choice(there)}" for a in symbols]
    finals = " ".join(map(str, layers[-1]))
    return f"@DFA {finals} * 0\n" + "\n".join(rows) + "\n"


def brute_excluded(channel: Channel, code: set, length: int) -> set:
    """Words of the block length in (sigma | sigma^-1)(C) | C, by path
    enumeration over the raw transducer."""
    t = channel.transducer
    out = set(code)
    for w in channel.alphabet.words_of_length(length):
        if any(w in oracles.enumerate_image(t, c, length) for c in code):
            out.add(w)
        if oracles.enumerate_image(t, w, length) & code:
            out.add(w)
    return out


def _features(t: RandomSpec, alphabet: Alphabet, length: int) -> set:
    found = set()
    for _, inp, out, _ in t.transitions:
        found.add("eps-in" if not inp else "in")
        found.add("eps-out" if not out else "out")
        if len(inp) > 1 or len(out) > 1:
            found.add("long-label")
    if len(t.initial) > 1:
        found.add("initials")
    if len(t.final) > 1:
        found.add("finals")
    if any(src == dst for src, _, _, dst in t.transitions) or any(
        a[3] == b[0] and b[3] == a[0] and a != b
        for a in t.transitions for b in t.transitions
    ):
        found.add("cycle")
    for w in alphabet.words_of_length(length):
        image = oracles.enumerate_image(t, w, length + 2)
        if image and w not in image:
            found.add("not-input-preserving")
    if any(len(s) > 1 for s in alphabet.symbols):
        found.add("long-symbol")
    return found


class TestExclusion:
    def test_matches_brute_force_on_random_transducers(self):
        rng = random.Random(2024)
        alphabets = [BINARY, Alphabet(("a", "bc"))]
        seen_features: set = set()
        outcomes = set()
        for _ in range(150):
            alphabet = rng.choice(alphabets)
            spec = random_spec(rng, alphabet)
            channel = Channel("random", Transducer(*spec))
            ell = rng.randint(1, 4)
            pool = list(alphabet.words_of_length(ell))
            code = set(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            trellis = trellis_from_words(code, alphabet, length=ell)
            expected = brute_excluded(channel, code, ell)
            exclusion = Exclusion(channel)
            got = {w for w in pool if exclusion.excludes(trellis, w)}
            assert got == expected, (channel.transducer.to_text(), code)
            seen_features |= _features(spec, alphabet, ell)
            outcomes |= {"open" if len(got) < len(pool) else "full",
                         "blocked" if got - code else "code-only"}
        assert seen_features == {
            "eps-in", "in", "eps-out", "out", "long-label", "initials",
            "finals", "cycle", "not-input-preserving", "long-symbol",
        }
        assert outcomes == {"open", "full", "blocked", "code-only"}

    def test_matches_brute_force_on_builtin_channels(self):
        rng = random.Random(5)
        for channel in (make_sub(2), make_id(2), make_del1_insend(),
                        make_overlap()):
            for _ in range(5):
                pool = list(BINARY.words_of_length(5))
                code = set(rng.sample(pool, rng.randint(1, 4)))
                trellis = trellis_from_words(code, BINARY)
                exclusion = Exclusion(channel)
                got = {w for w in pool if exclusion.excludes(trellis, w)}
                assert got == brute_excluded(channel, code, 5), channel.name

    def test_matches_brute_force_on_codes_that_are_not_minimal(self):
        """The search reads what is left to write from the trellis layer,
        so it must hold on any layered trellis: tries grown by ``add_word``
        and random layered DAGs read by ``Trellis.from_text``, against
        random channels given an epsilon/epsilon cycle."""
        rng = random.Random(808)
        kinds = set()
        for k in range(60):
            alphabet = BINARY if k % 2 else Alphabet(("a", "bc", "d"))
            ell = rng.randint(1, 4 if alphabet is BINARY else 3)
            pool = list(alphabet.words_of_length(ell))
            if k % 4 < 2:
                trellis = trellis_from_words([], alphabet, length=ell)
                for w in rng.sample(pool, rng.randint(1, min(6, len(pool)))):
                    trellis = trellis.add_word(w)
            else:
                trellis = Trellis.from_text(
                    random_layered_dfa(rng, alphabet, ell), alphabet)
            code = set(trellis.iter_words())
            t = random_spec(rng, alphabet)
            p, q = rng.randrange(t.num_states), rng.randrange(t.num_states)
            channel = Channel("random", Transducer(
                alphabet, t.num_states, t.initial, t.final,
                t.transitions + ((p, (), (), q), (q, (), (), p))))
            exclusion = Exclusion(channel)
            got = {w for w in pool if exclusion.excludes(trellis, w)}
            assert got == brute_excluded(channel, code, ell), \
                (channel.transducer.to_text(), trellis.to_text())
            if trellis.num_states > trellis.minimal.num_states:
                kinds.add("trie" if k % 4 < 2 else "dag")
            if any(len(i) > 1 or len(o) > 1
                   for _, i, o, _ in t.transitions):
                kinds.add("two-symbol label")
            if got - code:
                kinds.add("blocked")
        assert kinds == {"trie", "dag", "two-symbol label", "blocked"}

    def test_blocked_cache_never_changes_a_verdict(self):
        # grow codes one open word at a time, reusing one Exclusion, and
        # compare every verdict with a fresh, empty-cache Exclusion
        rng = random.Random(77)
        hits = 0
        for _ in range(12):
            alphabet = rng.choice([BINARY, Alphabet(("a", "bc", "d"))])
            channel = rng.choice(
                [random_channel(rng, alphabet), make_sub(1, alphabet),
                 make_id(1, alphabet)]
            )
            ell = rng.randint(2, 5 - len(alphabet) // 2)
            pool = list(alphabet.words_of_length(ell))
            code = trellis_from_words([], alphabet, length=ell)
            cached = Exclusion(channel)
            while True:
                fresh = Exclusion(channel)
                truth = {w: fresh.excludes(code, w) for w in pool}
                draws = [rng.choice(pool) for _ in range(len(pool))]
                hits += sum(w in cached.blocked for w in draws)
                for w in draws:
                    assert cached.excludes(code, w) == truth[w]
                open_words = sorted(w for w in pool if not truth[w])
                if not open_words:
                    break
                grown = code.add_word(rng.choice(open_words))
                assert grown is not code, "a codeword was judged open"
                code = grown
        assert hits > 0

    def test_make_code_matches_uncached_growth(self):
        # the same run with a fresh Exclusion per next_word call
        rng = random.Random(3)
        for _ in range(10):
            channel = random_channel(rng, BINARY)
            ell = rng.randint(2, 5)
            report = make_code(channel, 20, ell, seed=11)
            code = trellis_from_words([], BINARY, length=ell)
            draw = random.Random(11)
            words = []
            while len(words) < 20:
                out = next_word(channel, code, rng=draw)
                if out.word is None:
                    break
                code = code.add_word(out.word)
                words.append(out.word)
            assert tuple(words) == report.words


def full_draw(code, universe, exclusion, rng, n):
    """The draw loop without the saturation stop: a give-up always takes
    ``n`` draws.  The referee for ``codegen._draw``."""
    if universe.count_words() == 0:
        return NextWord(None, 0, empty_universe=True)
    for tr in range(1, n + 1):
        w = universe.sample_uniform(rng)
        if not exclusion.excludes(code, w):
            return NextWord(w, tr)
    return NextWord(None, n)


class CountingRandom(random.Random):
    """A generator that counts its ``randrange`` calls, one per draw."""

    calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)


@pytest.fixture
def both_loops(monkeypatch):
    """Runs ``make_code`` with the draw loop and with ``full_draw``, counting
    the draws of each run, and checks that the run with the stop blocked
    every word it added and no word outside the universe."""
    draws = [0]
    sample = Dfa.sample_uniform

    def counted(self, rng):
        draws[0] += 1
        return sample(self, rng)

    made = []

    class Kept(Exclusion):
        def __init__(self, channel):
            super().__init__(channel)
            made.append(self)

    monkeypatch.setattr(Dfa, "sample_uniform", counted)
    monkeypatch.setattr(codegen, "Exclusion", Kept)
    stop_draw = codegen._draw

    def run(channel, n_words, length=None, **kwargs):
        results = []
        for draw in (stop_draw, full_draw):
            monkeypatch.setattr(codegen, "_draw", draw)
            draws[0] = 0
            results.append((make_code(channel, n_words, length, **kwargs),
                            draws[0]))
        (report, stopped), (refereed, full) = results
        universe = kwargs.get("universe") or universe_trellis(
            report.alphabet, report.length)
        assert set(report.words) <= made[-2].blocked <= set(
            universe.iter_words())
        return report, refereed, stopped, full

    return run


class TestSaturationStop:
    def check(self, both_loops, tally, channel, n_words, length=None,
              **kwargs):
        report, refereed, stopped, full = both_loops(channel, n_words, length,
                                                     **kwargs)
        assert report.to_text() == refereed.to_text()
        assert report.to_json() == refereed.to_json()
        assert stopped <= full
        tally["exhausted"] += report.exhausted
        tally["stopped"] += stopped < full
        tally["open"] += not report.exhausted

    def test_reports_match_the_full_draw_loop_on_random_transducers(
            self, both_loops):
        rng = random.Random(61)
        tally = dict.fromkeys(("exhausted", "stopped", "open"), 0)
        for k in range(40):
            alphabet = (BINARY, Alphabet(("a", "bc")))[k % 2]
            channel = random_channel(rng, alphabet)
            f, eps = (("0.5", "0.25"), ("0.95", "0.05"))[k % 4 < 1]
            self.check(both_loops, tally, channel, rng.randint(1, 20),
                       rng.randint(1, 4), f=f, eps=eps,
                       seed=rng.randrange(1000))
        assert tally["exhausted"] > 20 and tally["stopped"] > 10
        assert tally["open"] > 0

    def test_reports_match_the_full_draw_loop_on_builtin_channels(
            self, both_loops):
        rng = random.Random(67)
        channels = [make_sub(2), make_id(1), make_del1_insend(),
                    make_overlap(), channel_from_spec("bsid2")]
        tally = dict.fromkeys(("exhausted", "stopped", "open"), 0)
        for k in range(75):  # 15 runs of each kind of universe
            channel = channels[k % 5]
            ell = rng.randint(3, 7)
            kind = ("full", "of", "end", "file", "seed")[k // 5 % 5]
            kwargs = {"seed": rng.randrange(1000)}
            if kind == "of":
                kwargs["universe"] = overlap_free_trellis(BINARY, ell)
            elif kind == "end":
                kwargs["universe"] = suffix_universe(BINARY, ell, "01")
            elif kind == "file":  # a layered DAG read back from text
                lines = [f"@NFA {ell} * 0"] + [
                    f"{d} {rng.choice('01')} {d + 1}"
                    for d in range(ell) for _ in range(rng.randint(1, 2))]
                kwargs["universe"] = Trellis.from_text(
                    "\n".join(lines) + "\n", BINARY)
            elif kind == "seed":
                start = make_code(channel, 3, ell, seed=k).trellis
                kwargs["seed_code"] = start.minimal if k % 2 else start
                ell = None
            self.check(both_loops, tally, channel, rng.choice((5, 50)), ell,
                       **kwargs)
        assert tally["exhausted"] > 40 and tally["stopped"] > 40
        assert tally["open"] > 0

    def test_a_maximal_code_gives_up_in_fewer_draws(self, monkeypatch):
        from itertools import product as iproduct

        code = ["".join(b) + "01" for b in iproduct("01", repeat=6)]
        t = trellis_from_words(code, BINARY)
        ch = make_del1_insend()
        results = []
        for draw in (codegen._draw, full_draw):
            monkeypatch.setattr(codegen, "_draw", draw)
            rng = CountingRandom(2)
            results.append((next_word(ch, t, rng=rng), rng.calls))
        (stopped, calls), (full, full_calls) = results
        assert stopped == full == NextWord(None, 2001)
        assert full_calls == 2001
        assert calls < 2001


class TestUnseededRuns:
    def test_seed_is_drawn_and_recorded(self):
        a = make_code(make_sub(1), 6, 6)
        b = make_code(make_sub(1), 6, 6)
        assert isinstance(a.seed, int) and isinstance(b.seed, int)
        assert a.seed != b.seed
        assert f"seed: {a.seed}\n" in a.to_text()

    def test_recorded_seed_reproduces_report(self):
        first = make_code(make_id(1), 20, 7)
        again = make_code(make_id(1), 20, 7, seed=first.seed)
        assert again.to_text() == first.to_text()
        assert again.to_json() == first.to_json()

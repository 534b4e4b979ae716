"""Randomized construction of error-detecting block codes.

``next_word`` draws uniform words from the sampling universe and returns the
first one outside the exclusion language (channel | channel^-1)(C) and outside
C itself; after n = 1 + floor(1 / (4 eps (1-f)^2)) failed trials it gives up.
When the code is not yet f-maximal with respect to the universe, the give-up
probability is below eps (a Chebyshev bound on the binomial trial count).
Each draw is tested by a search on the current trellis (``Exclusion``),
pruned by what the channel can still read and write; no exclusion
automaton is built.  The words found excluded are kept, and once
they are the whole universe the loop gives up without drawing further: no
draw could succeed, so that give-up certifies exact maximality.

``make_code`` checks its inputs and fixes n once per run, then runs the
same draw loop (``_draw``) until the requested number of words is added or
a give-up ends the run; the grown code is detecting by construction, and an
early stop means the result is f-maximal or a random word is addable with
probability below eps.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .automata import Alphabet, Trellis, Word, format_word, trellis_from_words
from .channels import Channel
from .errors import NotDetectingError, ParameterError
from .properties import _feasible, _fitting_universe, \
    _require_same_alphabet, detection_witness

RNG_NAME = "python-random-mt19937"
MAX_TRIALS = 10**9
DEFAULT_F = "0.95"
DEFAULT_EPS = "0.05"


def _as_fraction(x, name: str) -> Fraction:
    """Numeric parameters are read at decimal face value, so 0.95 means 19/20
    exactly rather than the nearest binary float."""
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad value for {name}: {x!r}") from exc


def trial_bound(f, eps) -> int:
    """n = 1 + floor(1 / (4 eps (1-f)^2)), computed in exact arithmetic."""
    f = _as_fraction(f, "f")
    eps = _as_fraction(eps, "eps")
    if not 0 <= f < 1:
        raise ParameterError(f"f must be in [0, 1), got {f}")
    if not 0 < eps <= 1:
        raise ParameterError(f"eps must be in (0, 1], got {eps}")
    n = 1 + int(Fraction(1) / (4 * eps * (1 - f) ** 2))
    if n > MAX_TRIALS:
        raise ParameterError(f"trial count {n} exceeds the {MAX_TRIALS} cap")
    return n


class NextWord(NamedTuple):
    """Outcome of one NEXTWORD run: ``word`` is None when the trial budget was
    exhausted; ``empty_universe`` flags the degenerate give-up."""

    word: Optional[Word]
    trials: int
    empty_universe: bool = False


class Exclusion:
    """Membership in the exclusion language T(C) | C, T = sigma | sigma^-1,
    for one code C that only grows between calls.  T is reduced by
    ``Transducer.quotient``: one copy of a symmetric channel (sub:k, id:k).

    T is its own inverse, so w is in T(C) exactly when T(w) meets C: a
    depth-first search over (T state, trellis state, what is left to read
    and write) in which T reads w and its outputs walk the trellis.  Every
    trellis is layered, so a trellis state fixes how much of a codeword is
    left to write, and a move is pushed only when the ``_feasible`` table of
    T, built once per block length, lets T read and write exactly what is
    left.  A blocked word stays blocked while C grows, so blocked words are
    kept in ``blocked``; an open draw joins the code, so open verdicts are
    not kept.

    Invariant, as ``_draw`` and ``make_code`` use it: ``blocked`` holds
    only words drawn from the sampling universe that lie in T(C) | C, the
    drawn words that ``excludes`` judged blocked and those that joined C.
    So it is a subset of the universe, and when it is as large as the
    universe no word can be added.
    """

    def __init__(self, channel: Channel):
        self._t = channel.self_union_inverse()
        self.blocked: set[Word] = set()
        self._initial = tuple(sorted(self._t.initial))
        self._tables: dict[int, tuple] = {}

    def excludes(self, code: Trellis, w: Word) -> bool:
        """True when ``w`` is in T(C) | C; ``w`` must be a valid word."""
        if w in self.blocked:
            return True
        if code.accepts(w) or self._image_meets(code, w):
            self.blocked.add(w)
            return True
        return False

    def _table(self, bound: int) -> tuple:
        """The ``_feasible`` rows of T for lengths up to ``bound``, and per
        T state, input symbol (None for epsilon) -> its moves (output symbol
        or None, target, the target's row), in ``_moves`` order."""
        table = self._tables.get(bound)
        if table is None:
            feasible = _feasible(self._t, bound)
            table = self._tables[bound] = (feasible, tuple(
                {x: tuple((y, d, feasible[d]) for y, d in moves)
                 for x, moves in row.items()} for row in self._t._moves))
        return table

    def _image_meets(self, code: Trellis, w: Word) -> bool:
        """True when T(w) and C share a word.  A search key (t, q, k) holds
        in k the ``_feasible`` index of what is left: n - i symbols of w to
        read and l - j to write, where i symbols of w are read and q is j
        layers down the trellis."""
        if not code.final:
            return False
        n = len(w)
        bound = max(n, code.length)
        stride = bound + 2
        feasible, table = self._table(bound)
        rows = code._rows
        k = n * stride + code.length
        stack = [(t, code.initial_state, k) for t in self._initial
                 if feasible[t][k]]
        seen = set(stack)
        push, pop, mark = stack.append, stack.pop, seen.add
        while stack:
            t, q, k = pop()
            if not k:  # w read, a codeword written, and T can stop
                return True
            moves, row = table[t], rows[q]
            for out, dst, feasible_row in moves.get(None, ()):  # reads nothing
                if out is None:
                    r, kd = q, k
                else:
                    r, kd = row.get(out), k - 1
                    if r is None:
                        continue
                if feasible_row[kd]:
                    key = (dst, r, kd)
                    if key not in seen:
                        mark(key)
                        push(key)
            if k >= stride:  # T reads w[i], i = n - k // stride
                ki = k - stride
                for out, dst, feasible_row in moves.get(w[n - k // stride], ()):
                    if out is None:
                        r, kd = q, ki
                    else:
                        r, kd = row.get(out), ki - 1
                        if r is None:
                            continue
                    if feasible_row[kd]:
                        key = (dst, r, kd)
                        if key not in seen:
                            mark(key)
                            push(key)
        return False


def _draw(code: Trellis, universe: Trellis, exclusion: Exclusion,
          rng: random.Random, n: int) -> NextWord:
    """Up to ``n`` uniform draws from ``universe``, one ``rng.randrange``
    each; the first draw that ``exclusion`` leaves open for ``code`` is the
    word.  Once ``exclusion.blocked`` holds every universe word no draw can
    be open, so the loop stops there and gives up as after ``n`` failed
    draws.  The inputs are checked by the caller."""
    total = universe.count_words()
    if total == 0:
        return NextWord(None, 0, empty_universe=True)
    blocked, excludes = exclusion.blocked, exclusion.excludes
    for tr in range(1, n + 1):
        if len(blocked) == total:  # every universe word is in C | T(C)
            break
        w = universe.sample_uniform(rng)
        if not excludes(code, w):
            return NextWord(w, tr)
    return NextWord(None, n)


def next_word(
    channel: Channel,
    code: Trellis,
    f=DEFAULT_F,
    eps=DEFAULT_EPS,
    rng: "random.Random | None" = None,
    universe: "Trellis | None" = None,
) -> NextWord:
    """One attempt to find a word that can join the code.

    Samples uniformly from the universe (default: all words of the code's
    length) with replacement and tests each draw against the current trellis.
    Once every universe word has been found excluded it stops drawing and
    returns ``NextWord(None, n)`` as after n failed draws, so the outcome
    is the same but ``rng`` may have advanced fewer than n steps.  Checks
    its inputs and builds its own ``Exclusion`` on every call; a run that
    grows a code word by word is ``make_code``.
    """
    n = trial_bound(f, eps)
    _require_same_alphabet(code, channel)
    universe = _fitting_universe(code, universe)
    return _draw(code, universe, Exclusion(channel),
                 random.Random() if rng is None else rng, n)


@dataclass(frozen=True)
class GenReport:
    """Everything a MAKECODE run produced, sufficient to reproduce it."""

    channel: str
    alphabet: Alphabet
    length: int
    requested: int
    f: str
    eps: str
    trial_bound: int
    seed: int
    rng: str
    universe: str
    trellis: Trellis
    words: tuple[Word, ...]
    trials_per_word: tuple[int, ...]
    exhausted: bool
    empty_universe: bool
    wall_time: float = field(compare=False)

    @property
    def size(self) -> int:
        return self.trellis.count_words()

    def to_text(self, include_timing: bool = False) -> str:
        lines = [
            f"channel: {self.channel}",
            f"alphabet: {format_word(self.alphabet.symbols, self.alphabet)}",
            f"length: {self.length}",
            f"requested: {self.requested}",
            f"f: {self.f}",
            f"eps: {self.eps}",
            f"trials-per-word: {self.trial_bound}",
            f"seed: {self.seed}",
            f"rng: {self.rng}",
            f"universe: {self.universe}",
            "words:",
        ]
        lines += [format_word(w, self.alphabet) for w in self.words]
        lines += [
            f"size: {self.size}",
            f"exhausted: {'true' if self.exhausted else 'false'}",
        ]
        if include_timing:
            lines.append(f"wall-time-s: {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "channel": self.channel,
            "alphabet": list(self.alphabet.symbols),
            "length": self.length,
            "requested": self.requested,
            "f": self.f,
            "eps": self.eps,
            "trials_per_word": self.trial_bound,
            "seed": self.seed,
            "rng": self.rng,
            "universe": self.universe,
            "words": [format_word(w, self.alphabet) for w in self.words],
            "trials": list(self.trials_per_word),
            "size": self.size,
            "exhausted": self.exhausted,
            "empty_universe": self.empty_universe,
        }
        if include_timing:
            payload["wall_time_s"] = round(self.wall_time, 3)
        return json.dumps(payload, indent=2) + "\n"


def make_code(
    channel: Channel,
    n_words: int,
    length: "int | None" = None,
    *,
    alphabet: "Alphabet | None" = None,
    seed_code: "Trellis | None" = None,
    f=DEFAULT_F,
    eps=DEFAULT_EPS,
    seed: "int | None" = None,
    universe: "Trellis | None" = None,
    universe_label: "str | None" = None,
) -> GenReport:
    """Grow a detecting block code by up to ``n_words`` words.

    Starts from ``seed_code`` when given (it must itself be detecting), else
    from the empty code, in which case ``length`` (and ``alphabet``, default
    the channel's) are required.  The inputs are checked, and the universe
    trellis and one ``Exclusion`` built, once per run; each word comes from
    the draw loop of ``next_word``.  Without a ``seed`` one is drawn from OS
    entropy and recorded in the report, so every run can be repeated.
    """
    if n_words < 0:
        raise ParameterError("requested word count must be >= 0")
    n = trial_bound(f, eps)
    if seed_code is not None:
        code = seed_code
        if length is not None and length != code.length:
            raise ParameterError("length argument contradicts the seed code")
        if alphabet is not None and alphabet != code.alphabet:
            raise ParameterError("alphabet argument contradicts the seed code")
        witness = detection_witness(code, channel)
        if witness:
            raise NotDetectingError(
                f"seed code is not {channel.name}-detecting: "
                f"{witness.to_text(code.alphabet)}",
                witness=witness,
            )
    else:
        if length is None:
            raise ParameterError("an empty start needs an explicit length")
        code = trellis_from_words((), alphabet or channel.alphabet, length=length)
        _require_same_alphabet(code, channel)
    label = universe_label or ("full" if universe is None else "custom")
    universe = _fitting_universe(code, universe)

    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    rng = random.Random(seed)
    started = time.perf_counter()
    exclusion = Exclusion(channel)
    words: list[Word] = []
    trials: list[int] = []
    exhausted = False
    empty_universe = False
    while len(words) < n_words:
        outcome = _draw(code, universe, exclusion, rng, n)
        if outcome.word is None:
            exhausted = True
            empty_universe = outcome.empty_universe
            break
        grown = code.add_word(outcome.word)
        assert grown is not code, "the draw returned a word already in the code"
        code = grown
        exclusion.blocked.add(outcome.word)
        words.append(outcome.word)
        trials.append(outcome.trials)
    return GenReport(
        channel=channel.name,
        alphabet=code.alphabet,
        length=code.length,
        requested=n_words,
        f=str(f),
        eps=str(eps),
        trial_bound=n,
        seed=seed,
        rng=RNG_NAME,
        universe=label,
        trellis=code,
        words=tuple(words),
        trials_per_word=tuple(trials),
        exhausted=exhausted,
        empty_universe=empty_universe,
        wall_time=time.perf_counter() - started,
    )


def derive_seed(seed: "int | None", index: int) -> int:
    """Stable per-repetition seed stream for experiment runs: repetition
    ``index`` of a run with base ``seed`` always gets the same seed."""
    import hashlib

    base = "none" if seed is None else str(seed)
    digest = hashlib.blake2b(
        f"{base}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")

"""Finite automata: NFA/DFA/trellis construction, boolean algebra, counting, sampling.

Words are tuples of symbols.  Symbols are non-empty strings without whitespace;
over an alphabet whose symbols are all single characters a word prints as a
plain string, so the binary alphabet behaves exactly like working with
``"0101"``-style strings; over any other alphabet every word prints spaced.
Epsilon (the empty word as a transition label) is represented by ``None``.

``Machine`` is the core that automata and ``transducers.Transducer`` share:
the fields, the validating constructor, ``_trusted`` for internal results,
``trim`` and the text format.  ``walk`` numbers the states of every
pair-state construction (``product``, ``Transducer.compose``, the subset
walk of ``intersect``, which ``determinize`` runs too).  ``_reach`` is the
one reachability loop (``trim``, epsilon closures), and ``Dfa._postorder``
the one topological order (counting, sampling, ``Dfa._left`` layers,
trellis checks, folding and suffix masks).

A block code is a ``Trellis``.  ``trellis_from_words`` builds the minimal
trellis of a word list in one pass over the sorted words, ``Trellis.minimal``
folds any other trellis (both number it in ``_class_trellis``, which hands
it its ``_rows`` and ``_left``), and ``Trellis.add_word`` grows any trellis
by one word, cloning the states where paths meet.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError, EmptyLanguageError, FormatError, \
    ParameterError, WordError

Word = tuple[str, ...]

EPSILON_TOKEN = "@epsilon"  # text-format spelling of the empty label


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of symbols; the ordering is stable and used everywhere
    a canonical iteration order is needed (serialization, witness tie-breaks)."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ParameterError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ParameterError("alphabet has duplicate symbols")
        for s in self.symbols:
            if not s or any(c.isspace() for c in s) or s in (EPSILON_TOKEN, "*"):
                raise ParameterError(f"bad alphabet symbol: {s!r}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return "{" + ",".join(self.symbols) + "}"

    def word(self, text: "str | Iterable[str]") -> Word:
        """Coerce ``text`` to a word.  A string with whitespace is split on
        it; a string that is one symbol is that symbol; any other string is
        split into characters.  So ``format_word(w, self)`` reads back."""
        if isinstance(text, str):
            parts = text.split()
            if parts != [text]:  # some whitespace, or the empty string
                text = parts
            elif text in self._index:
                text = (text,)
        w = tuple(text)
        for s in w:
            if s not in self._index:
                raise WordError(f"symbol {s!r} not in alphabet {self}")
        return w

    def words_of_length(self, length: int) -> Iterator[Word]:
        """Every word of the given length, last symbol varying fastest."""
        if length < 0:
            raise ParameterError(f"block length must be >= 0, got {length}")
        return itertools.product(self.symbols, repeat=length)


BINARY = Alphabet(("0", "1"))


def format_word(w: Word, alphabet: Alphabet) -> str:
    """The word in the one written form of ``alphabet``, which
    ``alphabet.word`` reads back: its symbols joined plainly when every
    symbol of the alphabet is one character, else with spaces."""
    if all(len(s) == 1 for s in alphabet):
        return "".join(w)
    return " ".join(w)


def _reach(roots: Iterable[int], adjacent: Sequence[Iterable[int]]
           ) -> set[int]:
    """The states reachable from ``roots`` along ``adjacent``, which lists
    per state the states it leads to."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for q in adjacent[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def useful_states(num_states: int, initial: Iterable[int],
                  final: Iterable[int], arcs: Iterable[tuple[int, int]]
                  ) -> dict[int, int]:
    """The states on some initial->final path along ``arcs`` (source, target
    pairs), each mapped to its new number; the renumbering keeps their
    order."""
    pred: list[list[int]] = [[] for _ in range(num_states)]
    succ: list[list[int]] = [[] for _ in range(num_states)]
    for src, dst in arcs:
        pred[dst].append(src)
        succ[src].append(dst)
    keep = _reach(final, pred) & _reach(initial, succ)
    return {q: i for i, q in enumerate(sorted(keep))}


def length_masks(num_states: int, final: Iterable[int],
                 arcs: Iterable[tuple[int, int, int]], valid: int) -> list[int]:
    """Per state, the bitmask of the path lengths on to a final state.

    The least fixed point of: bit 0 at every final state, and
    ``(mask[dst] << shift) & valid`` folded into ``mask[src]`` for every arc
    (src, shift, dst).  A shift of 1 per symbol read (0 on epsilon) gives
    the word lengths; a shift of ``stride`` per input symbol plus 1 per
    output symbol gives (input, output) counts at bit ``i * stride + o``.
    ``valid`` bounds the lengths, so the fixed point is reached on cycles
    too.
    """
    pred: list[list[tuple[int, int]]] = [[] for _ in range(num_states)]
    for src, shift, dst in arcs:
        pred[dst].append((src, shift))
    masks = [0] * num_states
    stack = list(final)
    for q in stack:
        masks[q] = 1
    while stack:
        d = stack.pop()
        mask = masks[d]
        for s, shift in pred[d]:
            grown = masks[s] | (mask << shift) & valid
            if grown != masks[s]:
                masks[s] = grown
                stack.append(s)
    return masks


def walk(starts: Iterable, successors: Callable[[object], Iterable]
         ) -> tuple[list, list[tuple[int, object, int]]]:
    """Number the states reachable from ``starts`` breadth-first, in
    discovery order.

    ``successors(state)`` yields the (label, target) pairs of a state's
    edges.  Returns the states in order of their numbers and every edge as
    (source number, label, target number), in the order met; the starts
    get the first numbers.  Every pair-state construction numbers its states
    here, so the same inputs always give the same machine.
    """
    order = list(dict.fromkeys(starts))
    ids = {state: i for i, state in enumerate(order)}
    edges: list[tuple[int, object, int]] = []
    for i, state in enumerate(order):  # ``order`` grows while it is read
        for label, target in successors(state):
            j = ids.get(target)
            if j is None:
                j = ids[target] = len(order)
                order.append(target)
            edges.append((i, label, j))
    return order, edges


@dataclass(frozen=True)
class Machine:
    """The core that automata and transducers share: states ``0 ..
    num_states-1``, initial and final sets, and transitions that are tuples
    (source, label..., target), sorted and deduplicated so that structurally
    equal machines compare equal.

    The constructor normalizes and validates its input: each kind gives
    the canonical order (``_normalize``) and the symbols a transition reads
    or writes (``_symbols``), and ``trim`` renumbers with its
    ``_renumbered``.  Internal operations build their results
    through ``_trusted`` instead.  ``trim`` and the text format
    (``to_text`` / ``from_text``) are the same for every kind.  A kind that
    adds no field inherits the dataclass methods as they are.
    """

    alphabet: Alphabet
    num_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple

    def __post_init__(self):
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        object.__setattr__(self, "transitions", self._normalize(self.transitions))
        n = self.num_states
        for q in self.initial | self.final:
            if not 0 <= q < n:
                raise ValueError(f"state {q} out of range")
        for tr in self.transitions:
            if not (0 <= tr[0] < n and 0 <= tr[-1] < n):
                raise ValueError(f"transition endpoint out of range: {tr}")
            for sym in self._symbols(tr):
                if sym not in self.alphabet:
                    raise ValueError(f"transition label {sym!r} not in alphabet")

    @classmethod
    def _trusted(cls, alphabet, num_states, initial, final, transitions,
                 **extra):
        """Build an internal result without ``__post_init__``.

        The caller guarantees what validation would establish: frozenset
        ``initial`` / ``final`` in range, and ``transitions`` a tuple already
        in ``_normalize`` order that satisfies the class invariants.  The
        result equals (``==``) the validated object with the same fields.
        """
        machine = object.__new__(cls)
        machine.__dict__.update(
            alphabet=alphabet, num_states=num_states, initial=initial,
            final=final, transitions=transitions, **extra,
        )
        return machine

    @property
    def states(self) -> range:
        return range(self.num_states)

    def trim(self):
        """Keep only states on some initial->final path; relabel densely."""
        remap = useful_states(self.num_states, self.initial, self.final,
                              ((tr[0], tr[-1]) for tr in self.transitions))
        initial, final, transitions = self.initial, self.final, self.transitions
        if len(remap) < self.num_states:  # some state goes: renumber
            transitions = self._renumbered(transitions, remap)
            initial = frozenset(remap[q] for q in initial if q in remap)
            final = frozenset(remap[q] for q in final if q in remap)
        # the order-preserving remap keeps the transitions canonical; a DFA
        # stays one unless its initial state was trimmed away (empty
        # language), and a trellis trims to a plain DFA
        cls = type(self)
        if isinstance(self, Dfa):
            cls = Dfa if initial else Nfa
        return cls._trusted(self.alphabet, len(remap), initial, final,
                            transitions)

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """A header (the kind, the final states, ``*``, the initial states),
        then one row per transition: source, labels, target.  ``from_text``
        reads back the same machine exactly when these name every state."""
        finals = " ".join(str(q) for q in sorted(self.final))
        initials = " ".join(str(q) for q in sorted(self.initial))
        lines = [f"{self._headers[0]} {finals} * {initials}".rstrip()]
        for src, *labels, dst in self.transitions:
            # a label is a symbol or a word of at most one symbol; None and
            # the empty word print as @epsilon
            tokens = ("".join(label or ()) or EPSILON_TOKEN for label in labels)
            lines.append(" ".join((str(src), *tokens, str(dst))))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, alphabet: "Alphabet | None" = None):
        """Parse the text format; ``_label`` decodes each label token
        (None for @epsilon).  Without ``alphabet`` the symbols found, in
        string order, are the alphabet."""
        kind, initial_toks, final_toks, rows = _parse_automaton_text(
            text, cls._headers
        )
        names = _number_states(
            final_toks + initial_toks + [t for r in rows for t in (r[0], r[-1])]
        )
        if alphabet is None:
            syms = sorted({t for r in rows for t in r[1:-1] if t is not None})
            if not syms:
                raise FormatError("cannot infer an alphabet: no labelled transitions")
            alphabet = Alphabet(tuple(syms))
        transitions = tuple(
            (names[src], *map(cls._label, labels), names[dst])
            for src, *labels, dst in rows
        )
        machine_cls = {"@NFA": Nfa, "@DFA": Dfa}.get(kind, cls)
        try:
            return machine_cls(
                alphabet,
                len(names),
                frozenset(names[t] for t in initial_toks),
                frozenset(names[t] for t in final_toks),
                transitions,
            )
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


class Nfa(Machine):
    """Nondeterministic finite automaton with optional epsilon transitions:
    each transition is (source, symbol or None, target)."""

    _headers = ("@NFA", "@DFA")  # the text-format kind written, then all read
    # the shared body, bound on this class too so that ``Nfa.trim`` is one of
    # its own attributes (the benchmark's tracer wraps it by that name)
    trim = Machine.trim

    @staticmethod
    def _normalize(transitions) -> tuple[tuple[int, "str | None", int], ...]:
        """Deduplicated, sorted by (source, epsilon first, label, target)."""
        def key(tr):
            src, sym, dst = tr
            return (src, sym is not None, sym or "", dst)

        return tuple(sorted(set(transitions), key=key))

    @staticmethod
    def _symbols(tr) -> tuple[str, ...]:
        return () if tr[1] is None else tr[1:2]

    @staticmethod
    def _renumbered(transitions, remap: dict[int, int]) -> tuple:
        """The transitions between states that ``remap`` keeps, renumbered."""
        return tuple([(remap[s], a, remap[d]) for s, a, d in transitions
                      if s in remap and d in remap])

    @staticmethod
    def _label(token: "str | None") -> "str | None":
        return token

    @cached_property
    def _out(self) -> tuple[dict["str | None", tuple[int, ...]], ...]:
        """Per state, label (None for epsilon) -> targets, in transition
        order."""
        table: list[dict] = [dict() for _ in self.states]
        for src, sym, dst in self.transitions:
            table[src].setdefault(sym, []).append(dst)
        return tuple({s: tuple(ts) for s, ts in row.items()} for row in table)

    @cached_property
    def _closure(self) -> tuple[frozenset[int], ...]:
        """Per-state epsilon closure."""
        epsilon = [row.get(None, ()) for row in self._out]
        return tuple(frozenset(_reach((q,), epsilon)) for q in self.states)

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        result: set[int] = set()
        for q in states:
            result |= self._closure[q]
        return frozenset(result)

    # -- membership --------------------------------------------------------

    def accepts(self, word: "str | Iterable[str]") -> bool:
        w = self.alphabet.word(word)
        current = self.epsilon_closure(self.initial)
        for sym in w:
            current = self._step(current, sym)
            if not current:
                return False
        return bool(current & self.final)

    def _step(self, subset: Iterable[int], sym: str) -> frozenset[int]:
        """The epsilon-closed set of states reached from ``subset`` on
        ``sym``: one step of the subset construction."""
        out, closure = self._out, self._closure
        reach: set[int] = set()
        for q in subset:
            for dst in out[q].get(sym, ()):
                reach |= closure[dst]
        return frozenset(reach)

    # -- language-level helpers ---------------------------------------------

    def words_up_to(self, max_len: int) -> set[Word]:
        """All accepted words of length <= max_len (test/oracle helper)."""
        found: set[Word] = set()
        layer: dict[Word, frozenset[int]] = {(): self.epsilon_closure(self.initial)}
        for length in range(max_len + 1):
            for w, states in layer.items():
                if states & self.final:
                    found.add(w)
            if length == max_len:
                break
            nxt: dict[Word, frozenset[int]] = {}
            for w, states in layer.items():
                for sym in self.alphabet:
                    reach = self._step(states, sym)
                    if reach:
                        nxt[w + (sym,)] = reach
            layer = nxt
        return found

    # -- transformations -----------------------------------------------------

    def determinize(self) -> "Dfa":
        """Subset construction: the subset walk of ``self`` inside the
        one-state DFA that accepts every word."""
        everything = Dfa._trusted(
            self.alphabet, 1, frozenset({0}), frozenset({0}),
            tuple((0, a, 0) for a in sorted(self.alphabet.symbols)))
        return everything.intersect(self)


class Dfa(Nfa):
    """Deterministic automaton: one initial state, no epsilon transitions,
    at most one successor per (state, symbol).  May be partial."""

    _headers = ("@DFA", "@NFA")

    def __post_init__(self):
        super().__post_init__()
        if len(self.initial) != 1:
            raise ValueError("DFA must have exactly one initial state")
        seen: set[tuple[int, str]] = set()
        for src, sym, dst in self.transitions:
            if sym is None:
                raise ValueError("DFA cannot have epsilon transitions")
            if (src, sym) in seen:
                raise ValueError(f"nondeterministic at state {src} on {sym!r}")
            seen.add((src, sym))

    @cached_property
    def initial_state(self) -> int:
        return next(iter(self.initial))

    @cached_property
    def _rows(self) -> tuple[dict[str, int], ...]:
        """Per state, its successor on each symbol that has one, symbols in
        transition (string) order.  Every walk of a DFA reads this table,
        directly or through ``_draw_table``."""
        table: list[dict[str, int]] = [{} for _ in self.states]
        for s, a, d in self.transitions:
            table[s][a] = d
        return tuple(table)

    def accepts(self, word: "str | Iterable[str]") -> bool:
        w = self.alphabet.word(word)
        q = self.initial_state
        for sym in w:
            q = self._rows[q].get(sym)
            if q is None:
                return False
        return q in self.final

    # -- boolean operations ---------------------------------------------------

    def intersect(self, other: Nfa) -> "Dfa":
        """L(self) & L(other) for any automaton ``other``: the subset
        construction of ``other`` run inside ``self``; on two DFAs the plain
        product of state pairs.

        One state per reachable pair (state of self, epsilon-closed set of
        states of other), numbered breadth-first with symbols in alphabet
        order.  A pair is final when its self state is final and its set
        meets ``other.final``.  A pair with an empty set is dead and not
        built.  Lengths that ``self`` does not reach are never determinized.
        """
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot intersect over {self.alphabet} and {other.alphabet}"
            )
        rows, step = self._rows, other._step

        def successors(pair):
            p, subset = pair
            row = rows[p]
            for sym in self.alphabet:
                pd = row.get(sym)
                if pd is None:
                    continue
                reach = step(subset, sym)
                if reach:
                    yield sym, (pd, reach)

        order, edges = walk(
            [(self.initial_state, other.epsilon_closure(other.initial))],
            successors)
        finals = frozenset(
            i
            for i, (p, subset) in enumerate(order)
            if p in self.final and subset & other.final
        )
        return Dfa._trusted(self.alphabet, len(order), frozenset({0}),
                            finals, tuple(sorted(edges)))

    # -- counting and sampling --------------------------------------------------

    @cached_property
    def _postorder(self) -> "tuple[int, ...] | None":
        """Every state after all of its successors, or None when the
        automaton has a cycle: the states in the order in which their
        in-edges are counted down to none (Kahn, CACM 1962), reversed."""
        rows = self._rows
        entering = [0] * self.num_states
        for _, _, d in self.transitions:
            entering[d] += 1
        order = [q for q in self.states if not entering[q]]
        for q in order:  # ``order`` grows while it is read
            for d in rows[q].values():
                entering[d] -= 1
                if not entering[d]:
                    order.append(d)
        return None if len(order) < self.num_states else tuple(reversed(order))

    @property
    def is_acyclic(self) -> bool:
        return self._postorder is not None

    @cached_property
    def _left(self) -> tuple[int, ...]:
        """Per state, the length of the path along first successors to a
        state without successors (acyclic automata only): on a layered one,
        of every such path; on a trellis, the symbols to its final state."""
        left = [0] * self.num_states
        for q in self._postorder:  # successors before predecessors
            for d in self._rows[q].values():
                left[q] = left[d] + 1
                break
        return tuple(left)

    @property
    def _is_layered(self) -> bool:
        """Whether every edge goes one layer down ``_left`` (acyclic
        automata only)."""
        left = self._left
        return all(left[s] == left[d] + 1 for s, _, d in self.transitions)

    @cached_property
    def _path_counts(self) -> tuple[int, ...]:
        """Number of accepted words from each state (acyclic automata only)."""
        order = self._postorder
        if order is None:
            raise ValueError("word counting requires an acyclic automaton")
        counts = [0] * self.num_states
        for q in order:
            counts[q] = (q in self.final) + sum(
                counts[d] for d in self._rows[q].values())
        return tuple(counts)

    @cached_property
    def _draw_table(self) -> tuple[tuple[bool, tuple[tuple[int, str, int],
                                                     ...]], ...]:
        """Per state: (is final, ((count, symbol, target), ...)) with symbols
        in alphabet order, leaving out successors that accept no word
        (acyclic automata only).  Drawing by rank and word enumeration walk
        this table."""
        counts = self._path_counts
        table = []
        for q, row in enumerate(self._rows):
            successors = []
            for sym in self.alphabet:
                d = row.get(sym)
                if d is not None and counts[d]:
                    successors.append((counts[d], sym, d))
            table.append((q in self.final, tuple(successors)))
        return tuple(table)

    @cached_property
    def _drawn(self) -> dict[int, Word]:
        """Words already unranked by ``sample_uniform``, by rank.  The word of
        a rank is a pure function of the automaton, so entries never go stale;
        there is one per distinct rank drawn."""
        return {}

    def count_words(self) -> int:
        return self._path_counts[self.initial_state]

    def sample_uniform(self, rng: random.Random) -> Word:
        """Draw one accepted word, each with probability exactly 1/|L|.

        One ``rng.randrange(|L|)`` call per draw picks a rank; the word of
        that rank in ``iter_words`` order is looked up in ``_drawn`` or, on a
        miss, unranked and stored there."""
        total = self.count_words()
        if total == 0:
            raise EmptyLanguageError("cannot sample from an empty language")
        rank = rng.randrange(total)
        word = self._drawn.get(rank)
        if word is None:
            word = self._drawn[rank] = self._unrank(rank)
        return word

    def _unrank(self, rank: int) -> Word:
        """The accepted word of the given rank: words ranked depth-first,
        symbols in alphabet order, a final state before its successors."""
        table = self._draw_table
        q = self.initial_state
        word: list[str] = []
        while True:
            final, successors = table[q]
            if final:
                if rank == 0:
                    return tuple(word)
                rank -= 1
            for count, sym, d in successors:
                if rank < count:
                    word.append(sym)
                    q = d
                    break
                rank -= count
            else:
                raise AssertionError("path count bookkeeping out of sync")

    def iter_words(self) -> Iterator[Word]:
        """All accepted words, depth-first with symbols in alphabet order
        (lexicographic order for block languages), that is, by rank
        (``_unrank``).  Acyclic automata only: on a cycle the call itself
        raises ValueError."""
        return map(self._unrank, range(self.count_words()))

    def least_word(self) -> "Word | None":
        """Shortest accepted word, lexicographically least among the shortest.
        Works on cyclic automata; None when the language is empty."""
        queue: list[tuple[int, Word]] = [(self.initial_state, ())]
        seen = {self.initial_state}
        for q, w in queue:  # breadth-first, symbols in alphabet order
            if q in self.final:
                return w
            for sym in self.alphabet:
                d = self._rows[q].get(sym)
                if d is not None and d not in seen:
                    seen.add(d)
                    queue.append((d, w + (sym,)))
        return None


@dataclass(frozen=True)
class Trellis(Dfa):
    """Trim acyclic DFA accepting a block code: one initial state, at most one
    final state, every accepted word of length exactly ``length``."""

    length: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.length < 0:
            raise ValueError("block length must be >= 0")
        if len(self.final) > 1:
            raise ValueError("trellis must have at most one final state")
        if not self.final:
            if self.num_states != 1 or self.transitions:
                raise ValueError("a trellis without a final state must be "
                                 "the empty code: one state, no transitions")
            return
        # acyclic, the initial state the only one without in-edges and the
        # final state the only one without successors hold together exactly
        # for a trim acyclic DFA; layered then means one word length
        unlayered = "trellis must be layered: it has a cycle or paths of " \
            "different lengths"
        if self._postorder is None:
            raise ValueError(unlayered)
        entered = {d for _, _, d in self.transitions}
        if [q for q in self.states if q not in entered] != [self.initial_state] \
                or [q for q in self.states if not self._rows[q]] != \
                [self.final_state]:
            raise ValueError("trellis must be trim")
        if not self._is_layered:
            raise ValueError(unlayered)
        ell = self._left[self.initial_state]
        if ell != self.length:
            raise ValueError(
                f"trellis accepts words of length {ell}, declared {self.length}"
            )

    @classmethod
    def from_text(cls, text: str, alphabet: "Alphabet | None" = None
                  ) -> "Trellis":
        """Parse an @DFA or @NFA description and read its language as a
        block code with ``as_trellis``; a cyclic or mixed-length language
        raises WordError, and so does an empty one (no length to read)."""
        return as_trellis(super().from_text(text, alphabet))

    @property
    def final_state(self) -> "int | None":
        return next(iter(self.final)) if self.final else None

    @property
    def minimal(self) -> "Trellis":
        """The minimal trellis of the same code: ``self`` for the empty code
        and for each result of ``trellis_from_words``, which is built
        minimal, returned rather than cached so that no trellis refers to
        itself."""
        return self._reduced or self

    @cached_property
    def _reduced(self) -> "Trellis | None":
        """``minimal`` when it is another trellis, else None.  One bottom-up
        pass (Revuz, TCS 1992): a state's signature is the class of its
        successor on each symbol, so two states share a signature exactly
        when they have the same right language.  Classes are numbered by
        ``_class_trellis``."""
        if not self.final:
            return None
        rows = self._rows
        signatures: dict = {}
        layered = [0] * self.num_states  # class ids in bottom-up order
        class_rows: list[dict[str, int]] = []
        for q in self._postorder:  # successors before predecessors
            # trim, so the final state is the one with an empty row
            row = tuple((a, layered[d]) for a, d in rows[q].items())
            c = signatures.get(row)
            if c is None:
                c = signatures[row] = len(class_rows)
                class_rows.append(dict(row))
            layered[q] = c
        return _class_trellis(self.alphabet, class_rows,
                              layered[self.initial_state],
                              layered[self.final_state], self.length)

    @cached_property
    def _suffix_masks(self) -> "_SuffixMasks":
        """Per state, the words that lead from it to the final state as a
        bitmask over their ranks in Sigma^left (symbols as digits in
        alphabet order, the first most significant), so two states of one
        layer share such a word exactly when their masks meet.  A state
        gets -1, which meets every mask, where its mask would hold more than
        256 bits per word in it or a successor has none: a mask is at most
        256 |S| bits for the |S| words it holds, and all of them at most
        256 (length + 1) |C| bits.  Each is built at its first lookup."""
        return _SuffixMasks(self)

    @cached_property
    def _shared(self) -> frozenset[int]:
        """The non-final states with more than one incoming edge."""
        entered: set[int] = set()
        shared: set[int] = set()
        for _, _, d in self.transitions:
            (shared if d in entered else entered).add(d)
        return frozenset(shared - self.final)

    def add_word(self, word: "str | Iterable[str]") -> "Trellis":
        """Trellis accepting C(self) | {word}.

        Returns ``self`` unchanged when the word is already accepted, so
        ``result is t`` doubles as the "nothing added" flag.  The new word is
        spliced in by walking its longest existing prefix and branching into
        fresh states, with the last step redirected into the unique final
        state; determinism is preserved because only the missing transitions
        are added.  When the prefix enters a state with more than one
        incoming edge (``_shared``), that state and the rest of the prefix
        are cloned first (Carrasco & Forcada, Comput. Linguist. 2002): each
        clone keeps its original's out-edges and the prefix is redirected
        through the clones, so no other word gains the branch.  The result
        need not be minimal.

        The few new edges are inserted into the sorted transitions, and the
        result gets its ``_rows`` table with them: only the rows that change
        are copied, so ``self`` keeps its own, and every row keeps its
        symbols in string order, as a fresh build has them.
        """
        w = self.alphabet.word(word)
        if len(w) != self.length:
            raise WordError(
                f"word length {len(w)} does not match block length {self.length}"
            )
        if self.final and self.accepts(w):
            return self
        if not w:  # length-0 code: the only word is the empty one
            return Trellis(self.alphabet, self.num_states, self.initial,
                           self.initial, self.transitions, length=0)
        old_rows, shared = self._rows, self._shared
        transitions = list(self.transitions)
        rows = list(old_rows)
        final = self.final_state
        if final is None:  # the empty code gains its final state
            final = len(rows)
            rows.append({})
        q = self.initial_state
        path = [q]  # the states of the longest prefix
        for sym in w:
            q = old_rows[q].get(sym)
            if q is None:
                break
            path.append(q)
        i = len(path) - 1
        q = path[i]
        first = None  # the first shared state on the prefix
        if shared:
            first = next((j for j, p in enumerate(path) if p in shared), None)
        if first is not None:
            # path[first:] becomes len(rows), len(rows) + 1, ...; the
            # initial state has no incoming edge, so first >= 1.  Clone
            # edges leave new states, so appending keeps the order.
            p, sym = path[first - 1], w[first - 1]
            k = bisect.bisect(transitions, (p, sym))  # the edge (p, sym, _)
            transitions[k] = (p, sym, len(rows))
            rows[p] = {**rows[p], sym: len(rows)}
            for j in range(first, i + 1):
                src, nxt = len(rows), len(rows) + 1
                row = {a: nxt if j < i and a == w[j] else d
                       for a, d in old_rows[path[j]].items()}
                transitions += [(src, a, d) for a, d in row.items()]
                rows.append(row)
            q = len(rows) - 1
        # the unmatched part: fresh interior states, then the final state;
        # only the first row gains a branch among existing symbols
        for i in range(i, len(w)):
            d = final if i == len(w) - 1 else len(rows)
            bisect.insort(transitions, (q, w[i], d))
            rows[q] = dict(sorted({**rows[q], w[i]: d}.items()))
            if d != final:
                rows.append({})
            q = d
        # splicing one word of the right length into a valid trellis keeps it
        # trim, acyclic and layered; plain tuple order is the canonical order
        # here (no epsilon labels).  Without clones only fresh states and the
        # final state gained incoming edges, so ``_shared`` carries over.
        kept = {} if first is not None else {"_shared": shared}
        return Trellis._trusted(self.alphabet, len(rows), self.initial,
                                frozenset({final}), tuple(transitions),
                                length=self.length, _rows=tuple(rows), **kept)


class _SuffixMasks(dict):
    """``Trellis._suffix_masks``: a state's mask is built the first time it
    is looked up, together with those of the states below it that have
    none yet, so a search pays only for the part of the trellis below the
    states it tests.  The states to build are collected with a list of
    their own, not by recursion, since a code can be longer than the
    recursion limit, and built deepest first.  It keeps the trellis's
    tables but not the trellis."""

    def __init__(self, machine: Trellis):
        super().__init__()
        self._rows, self._left = machine._rows, machine._left
        self._final, self._digit = machine.final, machine.alphabet._index
        size = len(machine.alphabet)
        self._spans = [size ** k for k in range(machine.length + 1)]

    def __missing__(self, q: int) -> int:
        rows, left, spans, digit = self._rows, self._left, self._spans, \
            self._digit
        todo, seen = [q], {q}
        for s in todo:  # breadth first, so one layer after another
            for d in rows[s].values():
                if d not in seen and d not in self:
                    seen.add(d)
                    todo.append(d)
        for s in reversed(todo):  # successors first
            mask = int(s in self._final)
            for a, d in rows[s].items():
                below = self[d]
                if below < 0:
                    mask = -1
                    break
                mask |= below << digit[a] * spans[left[d]]
            else:
                if spans[left[s]] > 256 * mask.bit_count():
                    mask = -1
            self[s] = mask
        return self[q]


def _class_trellis(alphabet: Alphabet, rows: Sequence[dict[str, int]],
                   root: int, final: int, length: int) -> Trellis:
    """The trellis on the classes of a minimal trellis, given per class its
    successor class on each symbol in string order: classes numbered
    breadth-first from ``root``, symbols in alphabet order, so that the same
    code always gives the same machine.  The result comes with its ``_rows``
    and ``_left`` and is marked as its own ``minimal``."""
    ids = {root: 0}  # class -> state number
    order, left = [root], [length]  # left: the symbols to the final state
    for i, c in enumerate(order):  # ``order`` grows while it is read
        row = rows[c]
        for a in alphabet.symbols:
            d = row.get(a)
            if d is not None and d not in ids:
                ids[d] = len(order)
                order.append(d)
                left.append(left[i] - 1)
    # the states in order, each row in string order: the canonical order
    numbered = tuple({a: ids[d] for a, d in rows[c].items()} for c in order)
    return Trellis._trusted(
        alphabet, len(order), frozenset({0}), frozenset({ids[final]}),
        tuple([(i, a, d) for i, row in enumerate(numbered)
               for a, d in row.items()]),
        length=length, _rows=numbered, _left=tuple(left), _reduced=None)


def universe_trellis(alphabet: Alphabet, length: int) -> Trellis:
    """The trellis accepting every word of the given length: a chain of
    length+1 states with the full symbol fan at each step."""
    if length < 0:
        raise ParameterError(f"block length must be >= 0, got {length}")
    return _chain_trellis(alphabet, length, ())


def _chain_trellis(alphabet: Alphabet, length: int, suffix: Word) -> Trellis:
    """The words of the given length that end with ``suffix``: a chain of
    length+1 states, the full symbol fan at each free step, then one step
    per symbol of the suffix.  The caller checks that the suffix is a word
    over ``alphabet`` no longer than ``length``."""
    free = length - len(suffix)
    fan = sorted(alphabet.symbols)  # the canonical (string) order
    transitions = [(i, sym, i + 1) for i in range(free) for sym in fan]
    transitions += [(free + j, sym, free + j + 1)
                    for j, sym in enumerate(suffix)]
    return Trellis._trusted(alphabet, length + 1, frozenset({0}),
                            frozenset({length}), tuple(transitions),
                            length=length)


def trellis_from_words(
    words: Iterable["str | Iterable[str]"],
    alphabet: Alphabet,
    length: "int | None" = None,
) -> Trellis:
    """The minimal trellis accepting exactly the given equal-length words,
    numbered as ``Trellis.minimal`` numbers it and its own ``minimal``.
    An empty collection needs an explicit length.  ``words`` is read once;
    over an alphabet of one-character symbols, strings of symbols are
    sorted as they are (they sort as their words do), and any other input
    is read with ``Alphabet.word``.

    One pass over the sorted words (Daciuk, Mihov, Watson & Watson, Comput.
    Linguist. 2000), with no prefix tree in between.  The state of each
    prefix of the current word stays open; when the next word leaves it at
    position c, the open states deeper than c are closed, deepest first.  A
    closed state's row of (symbol, class) pairs is looked up in a register,
    so states with the same right language get one class; class 0 is the
    final state.
    """
    if length is not None and length < 0:
        raise ParameterError(f"block length must be >= 0, got {length}")
    words = list(words)
    plain = all(len(s) == 1 for s in alphabet) and \
        set(map(type, words)) == {str} and \
        set("".join(words)).issubset(alphabet.symbols)
    coerced = sorted(set(words) if plain else
                     {alphabet.word(w) for w in words})
    if not coerced:
        if length is None:
            raise WordError("empty word set needs an explicit block length")
        return Trellis._trusted(alphabet, 1, frozenset({0}), frozenset(), (),
                                length=length)
    lengths = set(map(len, coerced))
    if len(lengths) != 1:
        raise WordError(f"words have mixed lengths: {sorted(lengths)}")
    (ell,) = lengths
    if length is not None and length != ell:
        raise WordError(f"words have length {ell}, declared {length}")
    if ell == 0:
        return _class_trellis(alphabet, [{}], 0, 0, 0)
    # row of (symbol, class) pairs -> class; class 0 is the final state
    register: dict[tuple[tuple[str, int], ...], int] = {(): 0}
    open_rows: list[list[tuple[str, int]]] = [[] for _ in range(ell)]
    # sorted: one prefix's words come together; the sentinel shares nothing
    for w, following in zip(coerced, coerced[1:] + [(None,)]):
        open_rows[-1].append((w[-1], 0))
        c = 0  # the next word shares w's states down to depth c
        while w[c] == following[c]:  # distinct words part before ell
            c += 1
        for d in range(ell - 1, c, -1):
            row = tuple(open_rows[d])
            open_rows[d].clear()
            open_rows[d - 1].append(
                (w[d - 1], register.setdefault(row, len(register))))
    rows = [dict(row) for row in register]
    rows.append(dict(open_rows[0]))  # the root, the only state at depth 0
    return _class_trellis(alphabet, rows, len(rows) - 1, 0, ell)


def as_trellis(machine: Nfa, length: "int | None" = None) -> Trellis:
    """Trim/determinize an automaton and validate it as a trellis."""
    dfa = machine if isinstance(machine, Dfa) else machine.determinize()
    d = dfa.trim()
    if d.num_states == 0:
        # trimming removed the initial state: the language is empty
        if length is None:
            raise WordError("empty language needs an explicit block length")
        return trellis_from_words((), machine.alphabet, length)
    if not d.is_acyclic:
        raise WordError("automaton is cyclic; not a block code")
    # trimmed, so the language is not empty: it has one word length when
    # every edge goes one layer down and no final state has a successor
    if not d._is_layered or any(d._rows[q] for q in d.final):
        raise WordError("language has mixed lengths; not a block code")
    ell = d._left[d.initial_state]
    if length is not None and length != ell:
        raise WordError(f"language has length {ell}, declared {length}")
    if len(d.final) == 1:
        return Trellis(d.alphabet, d.num_states, d.initial, d.final,
                       d.transitions, length=ell)
    # merge the final states into one fresh state (block code: no final has
    # outgoing transitions once trimmed, so the merge cannot break determinism)
    fresh = d.num_states
    merged = Nfa(
        d.alphabet,
        d.num_states + 1,
        d.initial,
        frozenset({fresh}),
        tuple((s, a, fresh if t in d.final else t) for s, a, t in d.transitions),
    ).trim()
    return Trellis(merged.alphabet, merged.num_states, merged.initial,
                   merged.final, merged.transitions, length=ell)


# -- shared text-format helpers ------------------------------------------------


def _parse_automaton_text(text: str, kinds: Sequence[str]):
    """Parse the common header/transition-lines shape.

    Returns (kind, initial tokens, final tokens, rows); rows hold raw tokens
    with epsilon already decoded to None.
    """
    lines = text.splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip() and not line.lstrip().startswith("#"):
            header_idx = i
            break
    if header_idx is None:
        raise FormatError("empty description")
    head = lines[header_idx].split()
    if head[0] not in kinds:
        raise FormatError(
            f"expected one of {', '.join(kinds)}, got {head[0]!r}",
            line=header_idx + 1,
        )
    if "*" not in head:
        raise FormatError("missing '*' separator in header", line=header_idx + 1)
    star = head.index("*")
    final_toks = head[1:star]
    initial_toks = head[star + 1 :]
    if not initial_toks:
        raise FormatError("no initial states in header", line=header_idx + 1)
    rows = []
    width = 3 if kinds[0] in ("@NFA", "@DFA") else 4
    for i in range(header_idx + 1, len(lines)):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0].startswith("@"):
            raise FormatError(f"unknown directive {parts[0]!r}", line=i + 1)
        if len(parts) != width:
            raise FormatError(
                f"expected {width} fields, got {len(parts)}", line=i + 1
            )
        decoded = tuple(None if p == EPSILON_TOKEN else p for p in parts)
        if decoded[0] is None or decoded[-1] is None:
            raise FormatError("state name cannot be @epsilon", line=i + 1)
        rows.append(decoded)
    return head[0], initial_toks, final_toks, rows


def _number_states(tokens: list[str]) -> dict[str, int]:
    """Map state tokens to dense ids.

    If every token is a decimal numeral and together they form 0..n-1, the
    numerals are taken literally, which makes parse -> serialize -> parse the
    identity; otherwise ids follow first occurrence.
    """
    uniq = list(dict.fromkeys(tokens))
    if all(t.isdigit() for t in uniq):
        values = sorted(int(t) for t in uniq)
        if values == list(range(len(values))):
            return {t: int(t) for t in uniq}
    return {t: i for i, t in enumerate(uniq)}

"""Transducers over one alphabet: inverse, union, composition, word images,
and the automaton-through-transducer product.

A transducer transition carries an input word and an output word (either may
be empty).  In standard form both labels have length at most one; every
operation that needs standard form converts its operands internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .automata import (
    Alphabet,
    EPSILON_TOKEN,
    Nfa,
    StateIds,
    Word,
    _number_states,
    _parse_automaton_text,
    useful_states,
)
from .errors import AlphabetMismatchError, FormatError


@dataclass(frozen=True)
class Transducer:
    alphabet: Alphabet
    num_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, Word, Word, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        norm = []
        for src, inp, out, dst in self.transitions:
            norm.append((src, tuple(inp), tuple(out), dst))
        object.__setattr__(self, "transitions", tuple(sorted(set(norm))))
        for q in self.initial | self.final:
            if not 0 <= q < self.num_states:
                raise ValueError(f"state {q} out of range")
        for src, inp, out, dst in self.transitions:
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise ValueError("transition endpoint out of range")
            for sym in inp + out:
                if sym not in self.alphabet:
                    raise ValueError(f"label symbol {sym!r} not in alphabet")

    @property
    def states(self) -> range:
        return range(self.num_states)

    def size(self) -> int:
        return self.num_states + sum(
            1 + len(i) + len(o) for _, i, o, _ in self.transitions
        )

    @cached_property
    def is_standard(self) -> bool:
        return all(
            len(i) <= 1 and len(o) <= 1 for _, i, o, _ in self.transitions
        )

    @cached_property
    def _moves(self) -> tuple[dict["str | None",
                                   tuple[tuple["str | None", int], ...]], ...]:
        """Standard form only: per state, input symbol (None for epsilon) ->
        its moves (output symbol or None, target).  Keys and moves keep the
        transition order: epsilon input first, then by (input, output,
        target) in string order, which the witness tie-breaks rely on."""
        table: list[dict] = [{} for _ in self.states]
        for src, inp, out, dst in self.transitions:
            table[src].setdefault(inp[0] if inp else None, []).append(
                (out[0] if out else None, dst))
        return tuple({x: tuple(moves) for x, moves in row.items()}
                     for row in table)

    # -- core operations -----------------------------------------------------

    def standard_form(self) -> "Transducer":
        """Split long labels through fresh chain states; same relation."""
        if self.is_standard:
            return self
        transitions: list[tuple[int, Word, Word, int]] = []
        counter = self.num_states
        for src, inp, out, dst in self.transitions:
            steps = max(len(inp), len(out), 1)
            if steps == 1:
                transitions.append((src, inp, out, dst))
                continue
            here = src
            for k in range(steps):
                if k == steps - 1:
                    nxt = dst
                else:
                    nxt = counter
                    counter += 1
                transitions.append((here, inp[k : k + 1], out[k : k + 1], nxt))
                here = nxt
        return Transducer(self.alphabet, counter, self.initial, self.final,
                          tuple(transitions))

    def inverse(self) -> "Transducer":
        """Swap input and output labels; x in inv(y) iff y in self(x)."""
        return Transducer(
            self.alphabet,
            self.num_states,
            self.initial,
            self.final,
            tuple((s, o, i, d) for s, i, o, d in self.transitions),
        )

    def union(self, other: "Transducer") -> "Transducer":
        """Pointwise union of relations: (self | other)(x) = self(x) | other(x)."""
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot union over {self.alphabet} and {other.alphabet}"
            )
        off = self.num_states
        return Transducer(
            self.alphabet,
            self.num_states + other.num_states,
            self.initial | frozenset(q + off for q in other.initial),
            self.final | frozenset(q + off for q in other.final),
            self.transitions
            + tuple((s + off, i, o, d + off) for s, i, o, d in other.transitions),
        )

    def compose(self, inner: "Transducer") -> "Transducer":
        """Relational composition: (self . inner)(x) = self(inner(x)).

        ``inner`` runs first.  Built on standard-form operands; a transition of
        the pair state advances both sides on a matching middle symbol, or one
        side alone on an epsilon-output / epsilon-input move.  Only the pairs
        reachable from the initial pairs are built, numbered in breadth-first
        discovery order, then the result is trimmed.
        """
        if self.alphabet != inner.alphabet:
            raise AlphabetMismatchError(
                f"cannot compose over {self.alphabet} and {inner.alphabet}"
            )
        t = inner.standard_form()
        s = self.standard_form()
        t_moves, s_moves = t._moves, s._moves
        ids = StateIds()
        for p in sorted(t.initial):
            for q in sorted(s.initial):
                ids[(p, q)]
        edges: list[tuple[int, "str | None", "str | None", int]] = []
        for i, (p, q) in enumerate(ids.order):
            s_row = s_moves[q]
            for x, moves in t_moves[p].items():
                for mid, td in moves:
                    if mid is None:  # output-epsilon move: s stands still
                        edges.append((i, x, None, ids[(td, q)]))
                        continue
                    for out, sd in s_row.get(mid, ()):
                        edges.append((i, x, out, ids[(td, sd)]))
            for out, sd in s_row.get(None, ()):
                edges.append((i, None, out, ids[(p, sd)]))
        composed = Transducer(
            self.alphabet,
            len(ids.order),
            frozenset(ids[(p, q)] for p in t.initial for q in s.initial),
            frozenset(
                i for i, (p, q) in enumerate(ids.order)
                if p in t.final and q in s.final
            ),
            tuple((a, _word(x), _word(y), b) for a, x, y, b in edges),
        )
        return composed.trim()

    def quotient(self) -> "Transducer":
        """Merge forward-bisimilar states; same relation.

        Partition refinement from the final flag: a state's signature is
        its block and the set of its (input, output, block of target)
        moves, epsilon labels read as letters.  Classes are numbered by
        their least member, so a quotient is its own quotient."""
        out: list[list] = [[] for _ in self.states]
        for src, inp, outw, dst in self.transitions:
            out[src].append((inp, outw, dst))
        block = [q in self.final for q in self.states]
        count = len(set(block))
        while True:
            ids: dict = {}
            block = [ids.setdefault((block[q], frozenset(
                (i, o, block[d]) for i, o, d in out[q])), len(ids))
                for q in self.states]
            if len(ids) == count:
                break
            count = len(ids)
        return Transducer(
            self.alphabet, count,
            frozenset(block[q] for q in self.initial),
            frozenset(block[q] for q in self.final),
            tuple((block[s], i, o, block[d])
                  for s, i, o, d in self.transitions),
        )

    def trim(self) -> "Transducer":
        """Keep only states on some initial->final path; relabel densely."""
        remap = useful_states(self.num_states, self.initial, self.final,
                              ((s, d) for s, _, _, d in self.transitions))
        return Transducer(
            self.alphabet,
            len(remap),
            frozenset(remap[q] for q in self.initial if q in remap),
            frozenset(remap[q] for q in self.final if q in remap),
            tuple(
                (remap[s], i, o, remap[d])
                for s, i, o, d in self.transitions
                if s in remap and d in remap
            ),
        )

    # -- images ----------------------------------------------------------------

    def image(self, word: "str | Iterable[str]") -> Nfa:
        """NFA accepting self(word); may describe an infinite language."""
        w = self.alphabet.word(word)
        chain = Nfa(
            self.alphabet,
            len(w) + 1,
            frozenset({0}),
            frozenset({len(w)}),
            tuple((i, sym, i + 1) for i, sym in enumerate(w)),
        )
        return product(chain, self)

    def image_set(self, word: "str | Iterable[str]", max_len: int) -> set[Word]:
        """self(word) restricted to outputs of length <= max_len."""
        return self.image(word).words_up_to(max_len)

    def is_input_preserving(self, up_to_length: int) -> bool:
        """Bounded check: x in self(x) whenever self(x) is non-empty, for all
        |x| <= up_to_length.  (An exact decision is deliberately not offered.)"""
        for n in range(up_to_length + 1):
            for w in self.alphabet.words_of_length(n):
                img = self.image(w)
                if img.num_states and not img.accepts(w):
                    return False
        return True

    # -- text format -------------------------------------------------------------

    def to_text(self) -> str:
        """The standard form in the text format, one symbol or
        ``@epsilon`` per label, so ``from_text`` reads back the same
        relation; a standard transducer prints as itself."""
        t = self.standard_form()
        finals = " ".join(str(q) for q in sorted(t.final))
        initials = " ".join(str(q) for q in sorted(t.initial))
        lines = [f"@Transducer {finals} * {initials}".rstrip()]
        for src, inp, out, dst in t.transitions:
            itok = inp[0] if inp else EPSILON_TOKEN
            otok = out[0] if out else EPSILON_TOKEN
            lines.append(f"{src} {itok} {otok} {dst}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, alphabet: "Alphabet | None" = None) -> "Transducer":
        _, initial_toks, final_toks, rows = _parse_automaton_text(
            text, ("@Transducer",)
        )
        names = _number_states(
            final_toks + initial_toks + [t for r in rows for t in (r[0], r[3])]
        )
        syms = sorted(
            {r[1] for r in rows if r[1] is not None}
            | {r[2] for r in rows if r[2] is not None}
        )
        if alphabet is None:
            if not syms:
                raise FormatError("cannot infer an alphabet: no labelled transitions")
            alphabet = Alphabet(tuple(syms))
        transitions = tuple(
            (
                names[src],
                () if inp is None else (inp,),
                () if out is None else (out,),
                names[dst],
            )
            for src, inp, out, dst in rows
        )
        try:
            return Transducer(
                alphabet,
                len(names),
                frozenset(names[t] for t in initial_toks),
                frozenset(names[t] for t in final_toks),
                transitions,
            )
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


def _word(sym: "str | None") -> Word:
    return () if sym is None else (sym,)


def compose(outer: Transducer, inner: Transducer) -> Transducer:
    """z in compose(outer, inner)(x) iff y in inner(x) and z in outer(y) for some y."""
    return outer.compose(inner)


def identity_transducer(alphabet: Alphabet) -> Transducer:
    return Transducer(
        alphabet,
        1,
        frozenset({0}),
        frozenset({0}),
        tuple((0, (a,), (a,), 0) for a in alphabet),
    )


def product(a: Nfa, t: Transducer) -> Nfa:
    """The automaton accepting t(L(a)), built by synchronized state pairing.

    ``t`` is converted to standard form.  An epsilon move of ``a`` is a pair
    move that leaves ``t`` standing still, and an epsilon-input move of
    ``t`` one that leaves ``a`` standing still.  The result is trimmed, with
    states renumbered in discovery order.
    """
    if a.alphabet != t.alphabet:
        raise AlphabetMismatchError(
            f"cannot build product over {a.alphabet} and {t.alphabet}"
        )
    t2 = t.standard_form()
    a_out, t_moves = a._out, t2._moves

    ids = StateIds()
    for p in sorted(a.initial):
        for q in sorted(t2.initial):
            ids[(p, q)]
    initials = frozenset(range(len(ids.order)))
    transitions: list[tuple[int, "str | None", int]] = []
    for i, (p, q) in enumerate(ids.order):
        for ap in a_out[p].get(None, ()):
            transitions.append((i, None, ids[(ap, q)]))
        for x, moves in t_moves[q].items():
            targets = (p,) if x is None else a_out[p].get(x)
            if targets is None:
                continue
            for label, dst in moves:
                for ap in targets:
                    transitions.append((i, label, ids[(ap, dst)]))
    finals = frozenset(
        i
        for i, (p, q) in enumerate(ids.order)
        if p in a.final and q in t2.final
    )
    raw = Nfa._trusted(a.alphabet, len(ids.order), initials, finals,
                       Nfa._normalize(transitions))
    return raw.trim()

"""Transducers over one alphabet: inverse, union, composition, word images,
and the automaton-through-transducer product.

A transducer transition carries an input word and an output word (either may
be empty).  In standard form both labels have length at most one; every
operation that needs standard form converts its operands internally.
``Transducer`` is an ``automata.Machine``: validation, ``trim`` and the text
format are shared with the automata, and every operation builds its result
through ``_trusted``, unchecked.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .automata import Alphabet, Machine, Nfa, Word, walk
from .errors import AlphabetMismatchError


class Transducer(Machine):
    """Each transition is (source, input word, output word, target)."""

    _headers = ("@Transducer",)

    @staticmethod
    def _normalize(transitions) -> tuple[tuple[int, Word, Word, int], ...]:
        """Labels as tuples; deduplicated, in plain tuple order (so an empty
        label sorts first)."""
        return tuple(sorted({(src, tuple(inp), tuple(out), dst)
                             for src, inp, out, dst in transitions}))

    @staticmethod
    def _symbols(tr) -> Word:
        return tr[1] + tr[2]

    @staticmethod
    def _label(token: "str | None") -> Word:
        return () if token is None else (token,)

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
        return Transducer._trusted(self.alphabet, counter, self.initial,
                                   self.final, self._normalize(transitions))

    def inverse(self) -> "Transducer":
        """Swap input and output labels; x in inv(y) iff y in self(x)."""
        return Transducer._trusted(
            self.alphabet,
            self.num_states,
            self.initial,
            self.final,
            self._normalize((s, o, i, d) for s, i, o, d in self.transitions),
        )

    def union(self, other: "Transducer") -> "Transducer":
        """Pointwise union of relations: (self | other)(x) = self(x) | other(x)."""
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot union over {self.alphabet} and {other.alphabet}"
            )
        off = self.num_states
        return Transducer._trusted(
            self.alphabet,
            self.num_states + other.num_states,
            self.initial | frozenset(q + off for q in other.initial),
            self.final | frozenset(q + off for q in other.final),
            self._normalize(
                self.transitions
                + tuple((s + off, i, o, d + off)
                        for s, i, o, d in other.transitions)),
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
        def successors(pair):
            p, q = pair
            s_row = s_moves[q]
            for x, moves in t_moves[p].items():
                for mid, td in moves:
                    if mid is None:  # output-epsilon move: s stands still
                        yield (x, None), (td, q)
                        continue
                    for out, sd in s_row.get(mid, ()):
                        yield (x, out), (td, sd)
            for out, sd in s_row.get(None, ()):
                yield (None, out), (p, sd)

        starts = [(p, q) for p in sorted(t.initial) for q in sorted(s.initial)]
        order, edges = walk(starts, successors)
        composed = Transducer._trusted(
            self.alphabet,
            len(order),
            frozenset(range(len(starts))),
            frozenset(
                i for i, (p, q) in enumerate(order)
                if p in t.final and q in s.final
            ),
            self._normalize((a, self._label(x), self._label(y), b)
                            for a, (x, y), b in edges),
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
        return Transducer._trusted(
            self.alphabet, count,
            frozenset(block[q] for q in self.initial),
            frozenset(block[q] for q in self.final),
            self._normalize((block[s], i, o, block[d])
                            for s, i, o, d in self.transitions),
        )

    # -- images ----------------------------------------------------------------

    def image(self, word: "str | Iterable[str]") -> Nfa:
        """NFA accepting self(word); may describe an infinite language."""
        w = self.alphabet.word(word)
        chain = Nfa._trusted(
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

    def to_text(self) -> str:
        """The standard form in the text format, one symbol or
        ``@epsilon`` per label, so ``from_text`` reads back the same
        relation; a standard transducer prints as itself."""
        return Machine.to_text(self.standard_form())


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

    def successors(pair):
        p, q = pair
        for ap in a_out[p].get(None, ()):
            yield None, (ap, q)
        for x, moves in t_moves[q].items():
            targets = (p,) if x is None else a_out[p].get(x)
            if targets is None:
                continue
            for label, dst in moves:
                for ap in targets:
                    yield label, (ap, dst)

    starts = [(p, q) for p in sorted(a.initial) for q in sorted(t2.initial)]
    order, edges = walk(starts, successors)
    finals = frozenset(
        i
        for i, (p, q) in enumerate(order)
        if p in a.final and q in t2.final
    )
    raw = Nfa._trusted(a.alphabet, len(order), frozenset(range(len(starts))),
                       finals, Nfa._normalize(edges))
    return raw.trim()

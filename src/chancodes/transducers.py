"""Transducers over one alphabet: inverse, union, composition, word images,
and the automaton-through-transducer product; the image of a word is the
product with its chain trellis (``automata._chain_trellis``).

A transducer transition carries an input word and an output word (either may
be empty).  Every ``Transducer`` is in standard form, both labels of length
at most one: the constructor splits longer labels through fresh chain states,
and every operation keeps standard operands standard.  ``Transducer`` is an
``automata.Machine``: validation, ``trim`` and the text format are shared
with the automata, and every operation builds its result through
``_trusted``, unchecked.

``Transducer._table`` is the one table that the channel searches read:
per block length, what each state can still read and write, and its moves.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .automata import Machine, Nfa, Word, _chain_trellis, length_masks, walk
from .errors import AlphabetMismatchError


class Transducer(Machine):
    """Each transition is (source, input word, output word, target)."""

    _headers = ("@Transducer",)

    def __post_init__(self):
        """Validate, then split each label longer than one symbol through
        fresh chain states, one symbol or epsilon per side and step, in
        transition order: the standard form, with the same relation."""
        super().__post_init__()
        split = []
        fresh = self.num_states
        for src, inp, out, dst in self.transitions:
            last = max(len(inp), len(out), 1) - 1
            for k in range(last):
                split.append((src, inp[k:k + 1], out[k:k + 1], fresh))
                src, fresh = fresh, fresh + 1
            split.append((src, inp[last:], out[last:], dst))
        if fresh > self.num_states:
            object.__setattr__(self, "num_states", fresh)
            object.__setattr__(self, "transitions", self._normalize(split))

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

    @staticmethod
    def _renumbered(transitions, remap: dict[int, int]) -> tuple:
        """The transitions between states that ``remap`` keeps, renumbered."""
        return tuple([(remap[s], i, o, remap[d]) for s, i, o, d in transitions
                      if s in remap and d in remap])

    @cached_property
    def _moves(self) -> tuple[dict["str | None",
                                   tuple[tuple["str | None", int], ...]], ...]:
        """Per state, input symbol (None for epsilon) -> its moves (output
        symbol or None, target).  Keys and moves keep the transition order:
        epsilon input first, then by (input, output, target) in string
        order, which the witness tie-breaks rely on."""
        table: list[dict] = [{} for _ in self.states]
        for src, inp, out, dst in self.transitions:
            table[src].setdefault(inp[0] if inp else None, []).append(
                (out[0] if out else None, dst))
        return tuple({x: tuple(moves) for x, moves in row.items()}
                     for row in table)

    @cached_property
    def _tables(self) -> dict[int, tuple]:
        """``_table`` by length; unlike a method cache, it keeps no self."""
        return {}

    def _table(self, ell: int) -> tuple:
        """(feasible, moves) for lengths up to ``ell``, built once per
        length.  ``feasible[q]`` is nonzero at ``i * (ell + 2) + o`` when
        some path from q to a final state reads i and writes o symbols, i, o
        <= ell (column ell + 1 keeps a count past ell out of the next row);
        ``moves[q]`` maps each input symbol (None: epsilon) to its (output
        or None, target, ``feasible[target]``) moves, in ``_moves`` order."""
        table = self._tables.get(ell)
        if table is None:
            stride = ell + 2
            valid = sum(((1 << ell + 1) - 1) << i * stride
                        for i in range(ell + 1))
            masks = length_masks(
                self.num_states, self.final,
                ((s, len(i) * stride + len(o), d)
                 for s, i, o, d in self.transitions),
                valid)
            size = (ell + 1) * stride
            digits = bytes.maketrans(b"01", b"\0\1")  # bit k as byte k
            feasible = tuple(bin(m)[:1:-1].ljust(size, "0").encode()
                             .translate(digits) for m in masks)
            table = self._tables[ell] = (feasible, tuple(
                {x: tuple((y, d, feasible[d]) for y, d in moves)
                 for x, moves in row.items()} for row in self._moves))
        return table

    @cached_property
    def _mirror(self) -> "tuple[int, ...] | None":
        """Per state q, the least state whose relation on to a final state
        is the inverse of q's: one that shares a ``_blocks`` block of
        ``self | self^-1`` with the inverse copy of q.  None unless every
        state has one (a self-inverse relation, such as sub:k, id:k, bsid2
        and every sigma^-1 . sigma)."""
        block = self.union(self.inverse())._blocks()
        least: dict[int, int] = {}
        for q in self.states:
            least.setdefault(block[q], q)
        try:
            return tuple(least[b] for b in block[self.num_states:])
        except KeyError:
            return None

    @cached_property
    def _identity_tails(self) -> frozenset[int]:
        """The final states whose only moves are the loops a/a, one per
        symbol a: from each, the relation on to a final state is the
        identity on Sigma*.  Every budgeted channel of the zoo ends in one."""
        return frozenset(q for q, row in enumerate(self._moves)
                         if q in self.final
                         and row == {a: ((a, q),) for a in self.alphabet})

    # -- core operations -----------------------------------------------------

    def inverse(self) -> "Transducer":
        """Swap input and output labels; x in inv(y) iff y in self(x)."""
        return Transducer._trusted(
            self.alphabet,
            self.num_states,
            self.initial,
            self.final,
            self._normalize((s, o, i, d) for s, i, o, d in self.transitions),
        )

    def reverse(self) -> "Transducer":
        """Reverse every transition and its labels and swap the initial and
        final states: y in rev(x) iff y reversed is in self(x reversed).
        States keep their numbers."""
        return Transducer._trusted(
            self.alphabet,
            self.num_states,
            self.final,
            self.initial,
            self._normalize((d, i[::-1], o[::-1], s)
                            for s, i, o, d in self.transitions),
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

        ``inner`` runs first.  A transition of the pair state advances both
        sides on a matching middle symbol, or one side alone on an
        epsilon-output / epsilon-input move.  Only the pairs reachable from
        the initial pairs are built, numbered in breadth-first discovery
        order, then the result is trimmed.
        """
        if self.alphabet != inner.alphabet:
            raise AlphabetMismatchError(
                f"cannot compose over {self.alphabet} and {inner.alphabet}"
            )
        t_moves, s_moves = inner._moves, self._moves
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

        starts = [(p, q) for p in sorted(inner.initial)
                  for q in sorted(self.initial)]
        order, edges = walk(starts, successors)
        composed = Transducer._trusted(
            self.alphabet,
            len(order),
            frozenset(range(len(starts))),
            frozenset(
                i for i, (p, q) in enumerate(order)
                if p in inner.final and q in self.final
            ),
            self._normalize((a, self._label(x), self._label(y), b)
                            for a, (x, y), b in edges),
        )
        return composed.trim()

    def _blocks(self) -> list[int]:
        """The forward-bisimulation block of each state, by partition
        refinement from the final flag: a state's signature is its block and
        the set of its (input, output, block of target) moves, epsilon
        labels read as letters.  Blocks are numbered by their least member.
        States in one block have the same relation on to a final state."""
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
                return block
            count = len(ids)

    def quotient(self) -> "Transducer":
        """Merge forward-bisimilar states (``_blocks``); same relation.
        Classes are numbered by their least member, so a quotient is its own
        quotient."""
        block = self._blocks()
        return Transducer._trusted(
            self.alphabet, len(set(block)),
            frozenset(block[q] for q in self.initial),
            frozenset(block[q] for q in self.final),
            self._normalize((block[s], i, o, block[d])
                            for s, i, o, d in self.transitions),
        )

    # -- images ----------------------------------------------------------------

    def image(self, word: "str | Iterable[str]") -> Nfa:
        """NFA accepting self(word), the product of the word's chain with
        ``self``; may describe an infinite language."""
        w = self.alphabet.word(word)
        return product(_chain_trellis(self.alphabet, len(w), w), self)

    def is_input_preserving(self, up_to_length: int) -> bool:
        """Bounded check: x in self(x) whenever self(x) is non-empty, for all
        |x| <= up_to_length.  (An exact decision is deliberately not offered.)"""
        for n in range(up_to_length + 1):
            for w in self.alphabet.words_of_length(n):
                img = self.image(w)
                if img.num_states and not img.accepts(w):
                    return False
        return True


def product(a: Nfa, t: Transducer) -> Nfa:
    """The automaton accepting t(L(a)), built by synchronized state pairing.

    An epsilon move of ``a`` is a pair move that leaves ``t`` standing
    still, and an epsilon-input move of ``t`` one that leaves ``a`` standing
    still.  The result is trimmed, with states renumbered in discovery
    order.
    """
    if a.alphabet != t.alphabet:
        raise AlphabetMismatchError(
            f"cannot build product over {a.alphabet} and {t.alphabet}"
        )
    a_out, t_moves = a._out, t._moves

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

    starts = [(p, q) for p in sorted(a.initial) for q in sorted(t.initial)]
    order, edges = walk(starts, successors)
    finals = frozenset(
        i
        for i, (p, q) in enumerate(order)
        if p in a.final and q in t.final
    )
    raw = Nfa._trusted(a.alphabet, len(order), frozenset(range(len(starts))),
                       finals, Nfa._normalize(edges))
    return raw.trim()

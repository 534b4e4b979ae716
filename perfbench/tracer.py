"""Outside-in tracer for the benchmark's traced run.

It wraps chancodes' public functions from the outside: the package itself is
not edited.  Each call becomes a span (name, start, end, parent, op id) held
in flat arrays, so a run with hundreds of thousands of calls stays small.
A function that is imported into several modules is replaced under every
name that refers to it, or calls made through the other names would escape
the trace.  A target the package no longer has is skipped and reports zero.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

PACKAGE = "chancodes"

# (module, attribute path, whether ``num_states`` of the result is recorded)
TARGETS = (
    ("cli", "main", False),
    ("codegen", "make_code", False),
    ("codegen", "next_word", False),
    ("transducers", "product", True),
    ("transducers", "Transducer.standard_form", False),
    ("transducers", "Transducer.compose", True),
    ("channels", "Channel.self_union_inverse", False),
    ("automata", "Nfa.trim", False),
    ("automata", "Nfa.matcher", False),
    ("automata", "Nfa.determinize", True),
    ("automata", "Dfa.intersect", False),
    ("automata", "Dfa.sample_uniform", False),
    ("automata", "Trellis.add_word", False),
    ("automata", "universe_trellis", False),
    ("automata", "trellis_from_words", False),
    ("universes", "overlap_free_trellis", False),
    ("universes", "suffix_universe", False),
    ("properties", "detection_witness", False),
    ("properties", "correction_witness", False),
    ("properties", "exclusion_automaton", False),
    ("properties", "maximality_index", False),
    ("properties", "maximality_witness", False),
)

NAMES = tuple(f"{module}.{path}" for module, path, _ in TARGETS)
WITH_STATES = tuple(f"{m}.{p}" for m, p, states in TARGETS if states)


class Tracer:
    """Span recorder.  ``install`` patches the package, ``remove`` undoes it;
    ``op`` tags the spans of the operation that is running and
    ``begin_pass`` marks where each pass over the op list starts."""

    def __init__(self):
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._passes: list[int] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.states: array = array("q")

    def begin_pass(self) -> None:
        self._passes.append(len(self.start))

    def _open(self, name_id: int) -> int:
        """Append a span for a call that starts now; returns its index."""
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.states.append(0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def _wrap(self, fn, name_id: int, with_states: bool):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if with_states:
                self.states[index] = result.num_states
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name_id, (module, path, with_states) in enumerate(TARGETS):
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(original, name_id, with_states)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, alias, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _span_range(self, pass_no: int) -> range:
        bounds = self._passes + [len(self.start)]
        return range(bounds[pass_no], bounds[pass_no + 1])

    def stats(self, pass_no: int) -> dict[str, dict[str, float]]:
        """calls, self_s and states_out per target over one pass."""
        spans = self._span_range(pass_no)
        return span_stats(
            [(NAMES[self.name_id[i]], self.start[i], self.end[i],
              self.parent[i], self.states[i]) for i in spans],
            base=spans.start,
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("index\tpass\top\tname\tstart\tend\tparent\tstates\n")
            for pass_no in range(len(self._passes)):
                for i in self._span_range(pass_no):
                    fh.write(f"{i}\t{pass_no}\t{self.op_id[i]}\t"
                             f"{NAMES[self.name_id[i]]}\t"
                             f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                             f"{self.parent[i]}\t"
                             f"{self.states[i]}\n")


def span_stats(spans, base: int = 0) -> dict[str, dict[str, float]]:
    """Aggregate spans given as (name, start, end, parent, states).

    ``parent`` is the absolute index of the enclosing span (-1 for none) and
    the list starts at absolute index ``base``.  A span's self time is its
    duration minus the durations of its direct children; spans of one thread
    nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= base:
            child_time[parent - base] += end - start
    out = {name: {"calls": 0, "self_s": 0.0, "states_out": 0}
           for name in NAMES}
    for i, (name, start, end, _, states) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["states_out"] += states
    return out

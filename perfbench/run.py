#!/usr/bin/env python3
"""Benchmark for chancodes: drives the public CLI entry point in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it holding ``src/``).  The seed
fixes every input; the run builds them, sets the program up several times
(fresh import, channels, universes, code files), then repeats the workload's
fixed op list until ``--seconds`` have passed.  Every output is checked: the
first pass against brute-force referees and pinned digests, later passes
against the first.  Times are scaled to the machine speed that a probe
loop measures around each op (see PROBE_REF_S).  The last line of stdout is
one JSON object with the metrics; the lines before it name each metric with
its unit.

With ``--trace 1`` half the time runs untraced and half with every public
function of the package wrapped (see ``tracer.py``); it reports per-layer
counts and self times instead of the end-to-end metrics.  Spans are written
to ``.perfbench/spans-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import tempfile
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import checks
import inputs
from inputs import REFEREES
from tracer import NAMES, PACKAGE, WITH_STATES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "digests.json"

SETUP_REPS = 7
# Normalization.  The shared machine this benchmark was tuned on changes
# speed by up to 2x for seconds to minutes at a time, so each timing is
# divided by the time of the probe (see ``probe``) run right around it and
# multiplied by PROBE_REF_S, the fastest probe time seen there.  Times are
# thus seconds at that probe speed, and a change of machine speed during a
# run cancels out.
PROBE_ITERATIONS = 40_000
PROBE_WALK_BITS = 21
PROBE_REF_S = 0.0045

GEN_CAPS = (("del1", 12), ("sub:2", 13), ("id:2", 12))
GEN_CAPS_N = 64
# the criterion-7 table cells, plus del1 with a fixed suffix
GEN_SATURATE = (("sub:2", 7, ()), ("del1", 8, ()), ("id:2", 8, ()),
                ("ov", 8, ("--universe", "of")), ("del1", 8, ("--end", "01")))
GEN_SATURATE_N = 100
GEN_SATURATE_REPS = 4

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in WITH_STATES:
            units[f"{name}.states_out"] = "count"
    units["codegen.accept_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Op:
    kind: str                 # gen, detect, correct, index or maximal
    label: str                # stable name of the cell
    argv: list[str]
    check: Callable[[int, str], list[str]]
    pinned: "str | None" = None   # digest the output must have


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, list[str]] = field(default_factory=dict)
    channels: set[str] = field(default_factory=set)
    universes: set[tuple] = field(default_factory=set)
    answer: str = ""          # answer class of the decide ops


def derive_seed(seed: int, index: int) -> int:
    """Per-cell gen seed; the same stream ``chancodes experiment`` derives
    for its repetitions."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _pins(workload: str, seed: int) -> dict[str, str]:
    with open(PINS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def _gen_op(spec: str, length: int, n: int, gen_seed: int, extra, label: str,
            pins: dict[str, str]) -> Op:
    argv = ["gen", "--channel", spec, "--len", str(length), "--n", str(n),
            "--seed", str(gen_seed), *extra, "--format", "json"]
    if "of" in extra:
        in_universe = lambda w: not any(
            w[:k] == w[-k:] for k in range(1, len(w)))
    elif "--end" in extra:
        suffix = extra[extra.index("--end") + 1]
        in_universe = lambda w: w.endswith(suffix)
    else:
        in_universe = lambda w: True
    check = lambda rc, out: checks.check_gen(
        rc, out, referee=REFEREES[spec], length=length, n=n,
        in_universe=in_universe)
    return Op("gen", label, argv, check, pins.get(label))


def gen_caps(seed: int, tmp: Path) -> Workload:
    pins = _pins("gen-caps", seed)
    w = Workload()
    for i, (spec, length) in enumerate(GEN_CAPS):
        label = f"{spec} l{length} n{GEN_CAPS_N}"
        w.ops.append(_gen_op(spec, length, GEN_CAPS_N, derive_seed(seed, i),
                             (), label, pins))
        w.channels.add(spec)
        w.universes.add(("full", length))
    return w


def gen_saturate(seed: int, tmp: Path) -> Workload:
    pins = _pins("gen-saturate", seed)
    w = Workload()
    for rep in range(GEN_SATURATE_REPS):
        for spec, length, extra in GEN_SATURATE:
            label = " ".join((spec, f"l{length}", *extra, f"rep{rep}"))
            w.ops.append(_gen_op(spec, length, GEN_SATURATE_N,
                                 derive_seed(seed, rep), extra, label, pins))
            w.channels.add(spec)
            w.universes.add(("of", length) if "of" in extra else
                            ("end", length, extra[1]) if extra else
                            ("full", length))
    return w


class _DecideOps:
    """Writes code files and adds check / correct-check / index / maximal
    ops whose answers come from the brute-force referees."""

    def __init__(self, tmp: Path, answer: str):
        self.tmp = tmp
        self.w = Workload(answer=answer)

    def _file(self, name: str, words: list[str]) -> str:
        self.w.files[name] = words
        return str(self.tmp / f"{name}.txt")

    def _add(self, kind, command, spec, name, words, check):
        self.w.channels.add(spec)
        self.w.ops.append(Op(kind, f"{command} {spec} {name}",
                             [command, "--channel", spec,
                              self._file(name, words), "--format", "json"],
                             check))

    def check(self, spec: str, name: str, words: list[str]) -> None:
        referee = REFEREES[spec]
        self._add("detect", "check", spec, name, words,
                  lambda rc, out: checks.check_witness(
                      rc, out, code=frozenset(words), referee=referee,
                      correcting=False,
                      expect_none=inputs.is_detecting(words, referee)))

    def correct_check(self, spec: str, name: str, words: list[str]) -> None:
        referee = REFEREES[spec]
        self._add("correct", "correct-check", spec, name, words,
                  lambda rc, out: checks.check_witness(
                      rc, out, code=frozenset(words), referee=referee,
                      correcting=True,
                      expect_none=inputs.is_correcting(words, referee)))

    def index(self, spec: str, name: str, words: list[str],
              length: int) -> None:
        expected = inputs.maximality_index(words, REFEREES[spec], length)
        self.w.universes.add(("full", length))
        self._add("index", "index", spec, name, words,
                  lambda rc, out: checks.check_index(rc, out,
                                                     expected=expected))

    def maximal(self, spec: str, name: str, words: list[str],
                length: int) -> None:
        excluded = frozenset(inputs.excluded_by(words, REFEREES[spec]))
        self.w.universes.add(("full", length))
        self._add("maximal", "maximal", spec, name, words,
                  lambda rc, out: checks.check_maximal(
                      rc, out, length=length, excluded=excluded))


def decide_violation(seed: int, tmp: Path) -> Workload:
    """Codes that violate: random codes, and greedy codes stopped halfway
    through the universe, which leave addable words."""
    rng = random.Random(seed)
    rand300 = inputs.random_code(rng, 12, 300)
    rand100 = inputs.random_code(rng, 12, 100)
    half = {spec: inputs.greedy_code(rng, REFEREES[spec], 12, scan=0.5)
            for spec in ("sub:2", "del1", "id:2")}
    b = _DecideOps(tmp, "violation")
    for spec in ("sub:2", "del1", "id:2"):
        b.check(spec, "random-l12-300", rand300)
    b.correct_check("del1", "random-l12-300", rand300)
    b.correct_check("sub:2", "random-l12-100", rand100)
    b.correct_check("id:2", "random-l12-100", rand100)
    for spec in ("del1", "id:2"):
        b.index(spec, f"half-{spec}-l12", half[spec], 12)
    for spec in ("sub:2", "id:2"):
        b.maximal(spec, f"half-{spec}-l12", half[spec], 12)
    return b.w


def decide_none(seed: int, tmp: Path) -> Workload:
    """Codes without violations: greedy codes run over the whole universe
    (detecting and maximal) and VT_0(12), which corrects one indel."""
    rng = random.Random(seed)
    full14 = {spec: inputs.greedy_code(rng, REFEREES[spec], 14)
              for spec in ("sub:2", "del1", "id:2")}
    full12 = {spec: inputs.greedy_code(rng, REFEREES[spec], 12)
              for spec in ("sub:2", "del1", "id:2")}
    vt = inputs.varshamov_tenengolts(12)
    b = _DecideOps(tmp, "none")
    for spec in ("sub:2", "del1", "id:2"):
        b.check(spec, f"full-{spec}-l14", full14[spec])
    b.check("id:2", "vt0-l12", vt)
    b.correct_check("id:1", "vt0-l12", vt)
    b.correct_check("del1", "vt0-l12", vt)
    for spec in ("del1", "id:2"):
        b.index(spec, f"full-{spec}-l12", full12[spec], 12)
    for spec in ("sub:2", "id:2"):
        b.maximal(spec, f"full-{spec}-l12", full12[spec], 12)
    return b.w


WORKLOADS = {
    "gen-caps": gen_caps,
    "gen-saturate": gen_saturate,
    "decide-violation": decide_violation,
    "decide-none": decide_none,
}


# -- set-up ------------------------------------------------------------------------


def import_package():
    """Import chancodes afresh from ``src/`` and return its cli module."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the copy in {SRC}")
    return cli


def set_up(w: Workload, tmp: Path):
    """What the program needs before the first op: the import, channels,
    universes and the input code files.  Timed as setup_s."""
    cli = import_package()
    automata = sys.modules[f"{PACKAGE}.automata"]
    channels = sys.modules[f"{PACKAGE}.channels"]
    universes = sys.modules[f"{PACKAGE}.universes"]
    for spec in sorted(w.channels):
        channels.channel_from_spec(spec).self_union_inverse()
    for kind, length, *arg in sorted(w.universes):
        if kind == "of":
            universes.overlap_free_trellis(automata.BINARY, length)
        elif kind == "end":
            universes.suffix_universe(automata.BINARY, length, arg[0])
        else:
            automata.universe_trellis(automata.BINARY, length)
    for name, words in w.files.items():
        (tmp / f"{name}.txt").write_text("\n".join(words) + "\n")
        automata.trellis_from_words(words, automata.BINARY)
    return cli


# -- measurement -------------------------------------------------------------------


@dataclass
class Passes:
    """Timings and check results of repeated passes over one op list.

    An op's time is its median over the timed passes, after normalization;
    the first pass of a process is a warm-up and is not timed unless it is
    the only one.
    """

    ops: list[Op]
    reference: "list | None" = None
    times: list[list[float]] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.warm = self.reference is not None

    def record(self, times: list[float], scales: list[float],
               outputs: list) -> None:
        self.times.append([t * k for t, k in zip(times, scales)])
        self.raw_walls.append(sum(times))
        self.attempted += len(self.ops)
        first = self.reference is None
        if first:
            self.reference = outputs
        for op, got, want in zip(self.ops, outputs, self.reference):
            if first:
                found = verify(op, *got)
            else:
                found = [] if got == want else ["output differs from pass 1"]
            self.problems += [f"{op.label}: {p}" for p in found[:1]]

    def _timed(self, rows: list) -> list:
        """Drop the warm-up pass, unless it is the only one."""
        return rows if self.warm or len(rows) == 1 else rows[1:]

    def wall(self, kind: "str | None" = None) -> float:
        columns = zip(*self._timed(self.times))
        return sum(median(column) for op, column in zip(self.ops, columns)
                   if kind in (None, op.kind))

    def raw_wall(self) -> float:
        return median(self._timed(self.raw_walls))


@functools.cache
def _walk_table() -> array:
    """A 16 MB cycle of strided indices, too big for the core's caches."""
    size = 1 << PROBE_WALK_BITS
    return array("l", ((i * 40_503 + 1) % size for i in range(size)))


def probe() -> float:
    """Geometric mean of the seconds taken by two fixed loops: tuple and
    dict work of the kind the package spends its time on, and a chain of
    dependent loads through a table bigger than the core's caches.  The
    first tracks contention for the core, the second contention for the
    shared caches and memory; both slow the package.  Collection is paused
    so that the heap left by earlier ops cannot change the probe's time."""
    walk = _walk_table()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i & 1023, i >> 10)
            table[key] = table.get(key, 0) + 1
        middle = perf_counter()
        i = 0
        for _ in range(PROBE_ITERATIONS):
            i = walk[i]
        return ((middle - start) * (perf_counter() - middle)) ** 0.5
    finally:
        gc.enable()


def timed(fn, before: float):
    """Run fn between probes; returns its result, its raw time, its scale
    factor to reference seconds, and the closing probe time."""
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    after = probe()
    return result, elapsed, 2 * PROBE_REF_S / (before + after), after


def verify(op: Op, rc, out: str) -> list[str]:
    """Problems with one op's first output; ``rc`` is the exception text
    when the op raised."""
    if not isinstance(rc, int):
        return [f"raised {rc}"]
    try:
        found = op.check(rc, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        found = [f"malformed output: {exc!r}"]
    if op.pinned and checks.digest(out) != op.pinned:
        found.append("output digest differs from the pinned one")
    return found


def play(ops: list[Op], cli, tracer: "Tracer | None") -> tuple:
    """One pass over the ops: raw times, scale factors and outputs."""
    times, scales, outputs = [], [], []
    last_probe = probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        (rc, elapsed, scale, last_probe) = timed(
            lambda: _call(cli, op.argv, buf), last_probe)
        times.append(elapsed)
        scales.append(scale)
        outputs.append((rc, buf.getvalue()))
    return times, scales, outputs


def _call(cli, argv: list[str], buf: io.StringIO):
    try:
        with redirect_stdout(buf):
            return cli.main(list(argv))
    except Exception as exc:  # a crash is a failed op, not a lost run
        return repr(exc)


def measure(ops: list[Op], cli, seconds: float, tracer=None,
            reference=None) -> Passes:
    passes = Passes(ops, reference)
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.begin_pass()
        passes.record(*play(ops, cli, tracer))
        if perf_counter() >= deadline:
            return passes


def _gen_totals(passes: Passes) -> tuple[int, int]:
    words = draws = 0
    for op, (rc, out) in zip(passes.ops, passes.reference):
        if op.kind != "gen" or rc != 0:
            continue
        try:
            report = json.loads(out)
            words, draws = words + report["size"], draws + checks.draws(report)
        except (KeyError, TypeError, ValueError):
            pass   # verify() has counted the op as failed
    return words, draws


def _print(name: str, value: float, unit: str) -> None:
    print(f"{name:44s} {value:.6g} {unit}")


def end_to_end(w: Workload, passes: Passes, setups: list[float]) -> dict:
    wall = passes.wall()
    metrics = {
        "wall_s": wall,
        "setup_s": median(norm for norm, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    # informational: not gated, and apart from the raw times they are
    # computed from the normalized ones
    _print("raw_wall_s", passes.raw_wall(), "s")
    _print("raw_setup_s", median(raw for _, raw in setups), "s")
    if w.answer:
        for kind in ("detect", "correct"):
            _print(f"{kind}_{w.answer}_s", passes.wall(kind), "s")
        for kind in ("index", "maximal"):
            _print(f"{kind}_s", passes.wall(kind), "s")
    else:
        words, draws = _gen_totals(passes)
        _print("words_per_s", words / wall, "1/s")
        _print("draws_per_s", draws / wall, "1/s")
    return metrics


def per_layer(traced: Passes, untraced: Passes, tracer: Tracer) -> dict:
    per_pass = [tracer.stats(r) for r in range(len(traced.times))]
    # self times are scaled like the op times of their pass
    scales = [sum(p) / raw for p, raw in zip(traced.times, traced.raw_walls)]
    first = per_pass[0]
    for stats in per_pass[1:]:
        if any(stats[n]["calls"] != first[n]["calls"]
               or stats[n]["states_out"] != first[n]["states_out"]
               for n in NAMES):
            traced.problems.append("trace counters differ between passes")
            break
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = first[name]["calls"]
        metrics[f"{name}.self_s"] = median(
            s[name]["self_s"] * k for s, k in zip(per_pass, scales))
        if name in WITH_STATES:
            metrics[f"{name}.states_out"] = first[name]["states_out"]
    words, draws = _gen_totals(traced)
    metrics["codegen.accept_ratio"] = words / draws if draws else 0.0
    metrics["trace.overhead_s"] = traced.wall() - untraced.wall()
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        w = WORKLOADS[workload](seed, Path(tmp))
        setups = []
        last_probe = probe()
        for _ in range(SETUP_REPS):
            cli, elapsed, scale, last_probe = timed(
                lambda: set_up(w, Path(tmp)), last_probe)
            setups.append((elapsed * scale, elapsed))
        if not trace:
            passes = measure(w.ops, cli, seconds)
            metrics = end_to_end(w, passes, setups)
            units = END_TO_END
            all_passes = [passes]
        else:
            untraced = measure(w.ops, cli, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(w.ops, cli, seconds / 2, tracer,
                                 untraced.reference)
            finally:
                tracer.remove()
            tracer.write(WORK / f"spans-{workload}.tsv.gz")
            metrics = per_layer(traced, untraced, tracer)
            units = per_layer_units()
            all_passes = [untraced, traced]
    attempted = sum(r.attempted for r in all_passes)
    problems = [p for r in all_passes for p in r.problems]
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, value in metrics.items():
        _print(name, value, units[name])
    _print("fail_ratio", len(problems) / attempted, "ratio")
    print(f"passes {len(all_passes[-1].times)}, ops per pass {len(w.ops)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

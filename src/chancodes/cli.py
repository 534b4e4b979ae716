"""Command-line front-end.

Subcommands: ``gen``, ``check``, ``correct-check``, ``maximal``, ``index``,
``experiment``, ``channel list``, ``channel show``.

Exit codes: 0 success (including "violation-free" answers), 1 usage/file/parse
errors, 2 precondition failures (e.g. a non-detecting input code where a
detecting one is required), 3 a violation was found by check/correct-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

from .automata import Alphabet, BINARY, Nfa, Trellis, as_trellis, \
    trellis_from_words
from .channels import Channel, channel_from_spec, registry_names, parse_channel, \
    serialize_channel
from .codegen import derive_seed, make_code
from .errors import ChancodesError, FormatError, NotDetectingError, ParameterError
from .properties import correction_witness, detection_witness, \
    maximality_index, maximality_witness
from .universes import overlap_free_trellis, suffix_universe

SEED_ENV = "CHANCODES_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_ERROR, not argparse's
    2, which is kept for failed preconditions; subparsers share the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


class _CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_channel(spec: str, alphabet: Alphabet) -> Channel:
    try:
        return channel_from_spec(spec, alphabet)
    except ParameterError as registry_error:
        if os.path.exists(spec):
            try:
                with open(spec) as fh:
                    return parse_channel(fh.read(), alphabet,
                                         name=os.path.basename(spec))
            except (OSError, FormatError) as exc:
                raise _CliFailure(f"cannot load channel {spec!r}: {exc}",
                                  EXIT_ERROR) from exc
        raise _CliFailure(str(registry_error), EXIT_ERROR) from registry_error


def _combined_channel(specs: list[str], alphabet: Alphabet) -> Channel:
    channels = [_resolve_channel(s, alphabet) for s in specs]
    combined = channels[0]
    for ch in channels[1:]:
        combined = combined.union(ch)
    return combined


def _read_code_file(path: str, alphabet: Alphabet,
                    length: "int | None") -> Trellis:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise _CliFailure(f"cannot read code file {path!r}: {exc}", EXIT_ERROR)
    words = [ln for ln in lines if ln and not ln.startswith("#")]
    try:
        if not words:
            if length is None:
                raise _CliFailure(
                    "empty code file needs --len to fix the block length",
                    EXIT_ERROR,
                )
            return trellis_from_words((), alphabet, length=length)
        return trellis_from_words(words, alphabet, length=length)
    except ChancodesError as exc:
        raise _CliFailure(f"bad code file {path!r}: {exc}", EXIT_ERROR) from exc


def _read_trellis_file(path: str, alphabet: Alphabet) -> Trellis:
    try:
        with open(path) as fh:
            machine = Nfa.from_text(fh.read(), alphabet)
        return as_trellis(machine)
    except OSError as exc:
        raise _CliFailure(f"cannot read trellis file {path!r}: {exc}", EXIT_ERROR)
    except ChancodesError as exc:
        raise _CliFailure(f"bad trellis file {path!r}: {exc}", EXIT_ERROR) from exc


def _build_universe(alphabet: Alphabet, length: int, spec: "str | None",
                    end: "str | None") -> "tuple[Trellis | None, str]":
    """The sampling universe for ``--universe spec`` and ``--end end``, with
    its report label; (None, "full") when neither is given."""
    universe = None
    label = "full"
    if spec:
        if spec == "of":
            universe = overlap_free_trellis(alphabet, length)
            label = "of"
        else:
            universe = _read_trellis_file(spec, alphabet)
            label = spec
    if end:
        suffix = suffix_universe(alphabet, length, end)
        if universe is None:
            universe = suffix
            label = f"end={end}"
        else:
            universe = as_trellis(universe.intersect(suffix), length=length)
            label = f"{label}&end={end}"
    return universe, label


def _write_out(text: str, path: "str | None"):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _alphabet_from_arg(arg: "str | None") -> Alphabet:
    if arg is None:  # no --alphabet; an empty one is refused by Alphabet
        return BINARY
    return Alphabet(tuple(arg.split(",")) if "," in arg else tuple(arg))


def _seed_from_args(args) -> "int | None":
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else None


# -- subcommands --------------------------------------------------------------------


def _cmd_gen(args) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _combined_channel(args.channel, alphabet)
    seed_code = None
    length = args.len
    if args.seed_code:
        seed_code = _read_code_file(args.seed_code, alphabet, args.len)
        length = seed_code.length
    if length is None:
        raise _CliFailure("--len is required without --seed-code", EXIT_ERROR)
    universe, label = _build_universe(alphabet, length, args.universe, args.end)
    try:
        report = make_code(
            channel,
            args.n,
            length,
            alphabet=alphabet,
            seed_code=seed_code,
            f=args.f,
            eps=args.eps,
            seed=_seed_from_args(args),
            universe=universe,
            universe_label=label,
        )
    except NotDetectingError as exc:
        raise _CliFailure(f"seed code rejected: {exc}", EXIT_PRECONDITION)
    if args.format == "json":
        _write_out(report.to_json(include_timing=args.timing), args.output)
    else:
        _write_out(report.to_text(include_timing=args.timing), args.output)
    return EXIT_OK


def _witness_payload(witness, fmt: str, out: "str | None") -> None:
    if fmt == "json":
        payload = {"witness": str(witness), "kind": witness.kind}
        _write_out(json.dumps(payload) + "\n", out)
    else:
        _write_out(str(witness) + "\n", out)


def _cmd_check(args, correcting: bool) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _combined_channel(args.channel, alphabet)
    code = _read_code_file(args.code, alphabet, args.len)
    witness = (correction_witness if correcting else detection_witness)(
        code, channel
    )
    _witness_payload(witness, args.format, args.output)
    return EXIT_VIOLATION if witness else EXIT_OK


def _cmd_maximal(args) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _combined_channel(args.channel, alphabet)
    code = _read_code_file(args.code, alphabet, args.len)
    witness = detection_witness(code, channel)
    if witness:
        raise _CliFailure(f"code is not detecting: {witness}", EXIT_PRECONDITION)
    universe, _ = _build_universe(alphabet, code.length, args.universe,
                                  args.end)
    found = maximality_witness(code, channel, universe)
    if found:
        _witness_payload(found, args.format, args.output)
    else:
        _write_out(
            json.dumps({"witness": "MAXIMAL", "kind": "maximal"}) + "\n"
            if args.format == "json" else "MAXIMAL\n",
            args.output,
        )
    return EXIT_OK


def _cmd_index(args) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _combined_channel(args.channel, alphabet)
    code = _read_code_file(args.code, alphabet, args.len)
    try:
        value = maximality_index(code, channel)
    except NotDetectingError as exc:
        raise _CliFailure(str(exc), EXIT_PRECONDITION)
    if args.format == "json":
        _write_out(
            json.dumps({"index": str(value), "decimal": float(value)}) + "\n",
            args.output,
        )
    else:
        _write_out(f"{value} ({float(value)})\n", args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    if args.reps < 1:
        raise _CliFailure(f"--reps must be >= 1, got {args.reps}", EXIT_ERROR)
    if args.len > args.max_len or args.n > args.max_n:
        raise _CliFailure(
            f"cell exceeds the default caps (len <= {args.max_len}, "
            f"n <= {args.max_n}); raise --max-len/--max-n to override",
            EXIT_ERROR,
        )
    seed = _seed_from_args(args)
    universe, label = _build_universe(alphabet, args.len, args.universe,
                                      args.end)
    lines = []
    for spec in args.channel:
        channel = _resolve_channel(spec, alphabet)
        sizes = [
            make_code(channel, args.n, args.len, alphabet=alphabet, f=args.f,
                      eps=args.eps, seed=derive_seed(seed, rep),
                      universe=universe, universe_label=label).size
            for rep in range(args.reps)
        ]
        med = median(sizes)
        med_txt = str(int(med)) if float(med).is_integer() else f"{med:.1f}"
        lines.append(
            f"channel={spec} len={args.len} n={args.n}"
            f" end={args.end or '-'} universe={args.universe or 'full'}"
            f" reps={args.reps}"
            f" min={min(sizes)} median={med_txt} max={max(sizes)}"
            f" sizes={','.join(str(s) for s in sizes)}"
        )
    _write_out("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_channel(args) -> int:
    if args.action == "list":
        rows = [f"{name:8s} {desc}" for name, desc in registry_names().items()]
        _write_out("\n".join(rows) + "\n", args.output)
        return EXIT_OK
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _resolve_channel(args.name, alphabet)
    _write_out(serialize_channel(channel), args.output)
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def _add_common(p, with_format=True):
    p.add_argument(
        "--channel", action="append", required=True, metavar="SPEC",
        help="registry name (sub:k, id:k, del1, ins1, bsid2, segd:b, ov) "
             "or a transducer file; repeat to combine channels",
    )
    p.add_argument("--alphabet", help="symbols, e.g. 01 or a,b,c (default 01)")
    if with_format:
        p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chancodes",
        description="Model error channels as transducers; check and generate "
                    "error-detecting block codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="randomly generate a detecting block code")
    _add_common(gen)
    gen.add_argument("--len", type=int, help="block length")
    gen.add_argument("--n", type=int, required=True, help="words to add")
    gen.add_argument("--f", default="0.95", help="maximality threshold")
    gen.add_argument("--eps", default="0.05", help="failure probability")
    gen.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV})")
    gen.add_argument("--seed-code", help="code file to grow (must be detecting)")
    gen.add_argument("--universe", help="'of' or a trellis file restricting words")
    gen.add_argument("--end", help="require codewords to end with this pattern")
    gen.add_argument("--timing", action="store_true",
                     help="include wall time in the report")

    for name, correcting in (("check", False), ("correct-check", True)):
        c = sub.add_parser(
            name,
            help=f"test {'error-correction' if correcting else 'error-detection'}"
                 " and print a witness or NONE",
        )
        _add_common(c)
        c.add_argument("code", help="code file, one codeword per line")
        c.add_argument("--len", type=int, help="block length (for empty files)")
        c.set_defaults(correcting=correcting)

    mx = sub.add_parser("maximal", help="find an addable word or print MAXIMAL")
    _add_common(mx)
    mx.add_argument("code")
    mx.add_argument("--len", type=int)
    mx.add_argument("--universe", help="'of' or a trellis file")
    mx.add_argument("--end", help="restrict candidates to this suffix")

    ix = sub.add_parser("index", help="exact maximality index of a code")
    _add_common(ix)
    ix.add_argument("code")
    ix.add_argument("--len", type=int)

    ex = sub.add_parser("experiment", help="repeated generation, size statistics")
    _add_common(ex, with_format=False)
    ex.add_argument("--len", type=int, required=True)
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--f", default="0.95")
    ex.add_argument("--eps", default="0.05")
    ex.add_argument("--seed", type=int)
    ex.add_argument("--reps", type=int, default=21)
    ex.add_argument("--end", help="required codeword suffix")
    ex.add_argument("--universe", choices=("of",), help="overlap-free universe")
    ex.add_argument("--max-len", type=int, default=13)
    ex.add_argument("--max-n", type=int, default=500)

    ch = sub.add_parser("channel", help="inspect the channel registry")
    ch.add_argument("action", choices=("list", "show"))
    ch.add_argument("name", nargs="?", help="registry name or file (for show)")
    ch.add_argument("--alphabet")
    ch.add_argument("-o", "--output")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command in ("check", "correct-check"):
            return _cmd_check(args, args.correcting)
        if args.command == "maximal":
            return _cmd_maximal(args)
        if args.command == "index":
            return _cmd_index(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        # the subparsers are required, so "channel" is the one command left
        if args.action == "show" and not args.name:
            parser.error("channel show needs a name")
        return _cmd_channel(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ChancodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

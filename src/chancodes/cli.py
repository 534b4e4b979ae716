"""Command-line front-end.

Subcommands: ``gen``, ``check``, ``correct-check``, ``maximal``, ``index``,
``experiment``, ``channel list``, ``channel show``.

Exit codes: 0 success (including "violation-free" answers), 1 usage/file/parse
errors, 2 precondition failures (e.g. a non-detecting input code where a
detecting one is required), 3 a violation was found by check/correct-check.

Each subcommand's parser names its handler (``run``), which ``main`` calls.
``main`` builds its parser on its first call and reuses it for the rest of
the process; ``build_parser`` builds a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from statistics import median

from .automata import Alphabet, BINARY, EPSILON_TOKEN, Trellis, as_trellis, \
    trellis_from_words
from .channels import Channel, channel_from_spec, registry_names, parse_channel, \
    serialize_channel
from .codegen import DEFAULT_EPS, DEFAULT_F, derive_seed, make_code
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
    """A failure that ``main`` reports as one error line and exit ``code``.
    Not a ChancodesError, so a file parser's own failure is not reworded as
    a bad file."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
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
            except (OSError, UnicodeDecodeError, FormatError) as exc:
                raise _CliFailure(
                    f"cannot load channel {spec!r}: {exc}") from exc
        raise _CliFailure(str(registry_error)) from registry_error


def _combined_channel(specs: list[str], alphabet: Alphabet) -> Channel:
    return functools.reduce(Channel.union,
                            [_resolve_channel(s, alphabet) for s in specs])


def _read_file(path: str, what: str, parse):
    """``parse`` of the text of the file at ``path``; an unreadable or
    undecodable file, or a ChancodesError from ``parse``, fails naming the
    ``what`` file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        return parse(text)
    except ChancodesError as exc:
        raise _CliFailure(f"bad {what} file {path!r}: {exc}") from exc


def _read_code_file(path: str, alphabet: Alphabet,
                    length: "int | None") -> Trellis:
    """One codeword per line; blank lines and lines starting with # are
    skipped, and a line ``@epsilon`` is the empty word.  Lines end only at
    newlines, as when iterating the file (``str.splitlines`` would also end
    them at form feeds and the like)."""

    def parse(text: str) -> Trellis:
        words = ["" if ln == EPSILON_TOKEN else ln
                 for ln in map(str.strip, text.split("\n"))
                 if ln and not ln.startswith("#")]
        if not words and length is None:
            raise _CliFailure(
                "empty code file needs --len to fix the block length")
        return trellis_from_words(words, alphabet, length=length)

    return _read_file(path, "code", parse)


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
            universe = _read_file(
                spec, "trellis", lambda text: Trellis.from_text(text, alphabet))
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
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliFailure(
                f"cannot write output file {path!r}: {exc}") from exc


def _alphabet_from_arg(arg: "str | None") -> Alphabet:
    """Symbols separated by spaces (as a report's ``alphabet:`` line writes
    them) or by commas, else one character each."""
    if arg is None:  # no --alphabet; an empty one is refused by Alphabet
        return BINARY
    parts = arg.split()
    if len(parts) > 1:
        return Alphabet(tuple(parts))
    return Alphabet(tuple(arg.split(",")) if "," in arg else tuple(arg))


def _seed_from_args(args) -> "int | None":
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise _CliFailure(
            f"{SEED_ENV} must be an integer, got {env!r}") from None


def _read_inputs(args) -> "tuple[Alphabet, Channel, Trellis]":
    """The alphabet, the combined channel and the code of a decision
    command, read in that order."""
    alphabet = _alphabet_from_arg(args.alphabet)
    channel = _combined_channel(args.channel, alphabet)
    return alphabet, channel, _read_code_file(args.code, alphabet, args.len)


def _emit(args, text: str, payload: dict) -> None:
    """The answer line: ``text``, or ``payload`` under --format json."""
    _write_out((json.dumps(payload) if args.format == "json" else text) + "\n",
               args.output)


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
        raise _CliFailure("--len is required without --seed-code")
    universe, label = _build_universe(alphabet, length, args.universe, args.end)
    try:
        report = make_code(
            channel,
            args.n,
            length,
            seed_code=seed_code,
            f=args.f,
            eps=args.eps,
            seed=_seed_from_args(args),
            universe=universe,
            universe_label=label,
        )
    except NotDetectingError as exc:
        raise _CliFailure(f"seed code rejected: {exc}", EXIT_PRECONDITION)
    write = report.to_json if args.format == "json" else report.to_text
    _write_out(write(include_timing=args.timing), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    alphabet, channel, code = _read_inputs(args)
    # chosen per call, not stored in the cached parser, so the calls still
    # reach perfbench's tracer, which wraps these names after the first run
    decide = correction_witness if args.correcting else detection_witness
    witness = decide(code, channel)
    text = witness.to_text(alphabet)
    _emit(args, text, {"witness": text, "kind": witness.kind})
    return EXIT_VIOLATION if witness else EXIT_OK


def _cmd_maximal(args) -> int:
    alphabet, channel, code = _read_inputs(args)
    witness = detection_witness(code, channel)
    if witness:
        raise _CliFailure(f"code is not detecting: {witness.to_text(alphabet)}",
                          EXIT_PRECONDITION)
    universe, _ = _build_universe(alphabet, code.length, args.universe,
                                  args.end)
    found = maximality_witness(code, channel, universe)
    text, kind = ((found.to_text(alphabet), found.kind) if found
                  else ("MAXIMAL", "maximal"))
    _emit(args, text, {"witness": text, "kind": kind})
    return EXIT_OK


def _cmd_index(args) -> int:
    _, channel, code = _read_inputs(args)
    try:
        value = maximality_index(code, channel)
    except NotDetectingError as exc:
        raise _CliFailure(str(exc), EXIT_PRECONDITION)
    _emit(args, f"{value} ({float(value)})",
          {"index": str(value), "decimal": float(value)})
    return EXIT_OK


def _cmd_experiment(args) -> int:
    alphabet = _alphabet_from_arg(args.alphabet)
    if args.reps < 1:
        raise _CliFailure(f"--reps must be >= 1, got {args.reps}")
    if args.len > args.max_len or args.n > args.max_n:
        raise _CliFailure(
            f"cell exceeds the default caps (len <= {args.max_len}, "
            f"n <= {args.max_n}); raise --max-len/--max-n to override")
    seed = _seed_from_args(args)
    universe, label = _build_universe(alphabet, args.len, args.universe,
                                      args.end)
    lines = []
    for spec in args.channel:
        channel = _resolve_channel(spec, alphabet)
        sizes = [
            make_code(channel, args.n, args.len, f=args.f, eps=args.eps,
                      seed=derive_seed(seed, rep), universe=universe,
                      universe_label=label).size
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


def _add_common(p, with_format=True, repeat="combine channels"):
    p.add_argument(
        "--channel", action="append", required=True, metavar="SPEC",
        help=f"registry name ({', '.join(registry_names())}) "
             f"or a transducer file; repeat to {repeat}",
    )
    p.add_argument("--alphabet",
                   help="symbols, e.g. 01, a,b,c or 'a bc' (default 01)")
    if with_format:
        p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", help="output file (default stdout)")


def _add_code(p):
    p.add_argument("code", help="code file, one codeword per line")
    p.add_argument("--len", type=int, help="block length (for empty files)")


def _add_draw(p):
    p.add_argument("--f", default=DEFAULT_F, help="maximality threshold")
    p.add_argument("--eps", default=DEFAULT_EPS, help="failure probability")
    p.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chancodes",
        description="Model error channels as transducers; check and generate "
                    "error-detecting block codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="randomly generate a detecting block code")
    gen.set_defaults(run=_cmd_gen)
    _add_common(gen)
    gen.add_argument("--len", type=int, help="block length")
    gen.add_argument("--n", type=int, required=True, help="words to add")
    _add_draw(gen)
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
        c.set_defaults(run=_cmd_check, correcting=correcting)
        _add_common(c)
        _add_code(c)

    mx = sub.add_parser("maximal", help="find an addable word or print MAXIMAL")
    mx.set_defaults(run=_cmd_maximal)
    _add_common(mx)
    _add_code(mx)
    mx.add_argument("--universe", help="'of' or a trellis file")
    mx.add_argument("--end", help="restrict candidates to this suffix")

    ix = sub.add_parser("index", help="exact maximality index of a code")
    ix.set_defaults(run=_cmd_index)
    _add_common(ix)
    _add_code(ix)

    ex = sub.add_parser("experiment", help="repeated generation, size statistics")
    ex.set_defaults(run=_cmd_experiment)
    _add_common(ex, with_format=False, repeat="run one cell per channel")
    ex.add_argument("--len", type=int, required=True)
    ex.add_argument("--n", type=int, required=True)
    _add_draw(ex)
    ex.add_argument("--reps", type=int, default=21)
    ex.add_argument("--end", help="required codeword suffix")
    ex.add_argument("--universe", choices=("of",), help="overlap-free universe")
    ex.add_argument("--max-len", type=int, default=13)
    ex.add_argument("--max-n", type=int, default=500)

    ch = sub.add_parser("channel", help="inspect the channel registry")
    ch.set_defaults(run=_cmd_channel)
    ch.add_argument("action", choices=("list", "show"))
    ch.add_argument("name", nargs="?", help="registry name or file (for show)")
    ch.add_argument("--alphabet")
    ch.add_argument("-o", "--output")

    return parser


_parser = functools.cache(build_parser)


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "channel" and args.action == "show" and not args.name:
        parser.error("channel show needs a name")
    try:
        return args.run(args)
    except (_CliFailure, ChancodesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliFailure) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for every operation the benchmark runs.

Each check takes the CLI's exit code and its ``--format json`` output and
returns a list of problems, empty when the output is right.  The referees in
``inputs`` supply the answers; a failed check is counted by the caller,
never raised.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from inputs import Referee, is_detecting

EXIT_OK = 0
EXIT_VIOLATION = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load(out: str):
    try:
        return json.loads(out), []
    except ValueError:
        return None, [f"output is not JSON: {out[:80]!r}"]


def draws(report: dict) -> int:
    """Universe words sampled and tested in one gen run: every trial of the
    words it added, plus the full trial budget of the final give-up."""
    give_up = report["exhausted"] and not report["empty_universe"]
    final = report["trials_per_word"] if give_up else 0
    return sum(report["trials"]) + final


def check_gen(rc: int, out: str, *, referee: Referee, length: int, n: int,
              in_universe) -> list[str]:
    if rc != EXIT_OK:
        return [f"exit code {rc}"]
    report, problems = _load(out)
    if report is None:
        return problems
    words = report["words"]
    if any(len(w) != length or set(w) - {"0", "1"} for w in words):
        problems.append("a word has the wrong length or alphabet")
    if not all(in_universe(w) for w in words):
        problems.append("a word lies outside the sampling universe")
    if len(set(words)) != len(words) or report["size"] != len(words):
        problems.append("size does not match the distinct words listed")
    if len(words) > n or (len(words) < n) != report["exhausted"]:
        problems.append("exhausted flag contradicts the word count")
    if len(report["trials"]) != len(words) or any(
            not 1 <= t <= report["trials_per_word"] for t in report["trials"]):
        problems.append("trial counts out of range")
    if not is_detecting(words, referee):
        problems.append("generated code is not detecting")
    return problems


def check_witness(rc: int, out: str, *, code: frozenset, referee: Referee,
                  correcting: bool, expect_none: bool) -> list[str]:
    """check / correct-check: NONE where the referee says the code is
    detecting (correcting); otherwise a witness that is re-verified."""
    payload, problems = _load(out)
    if payload is None:
        return problems
    parts = payload["witness"].split()
    if expect_none:
        if parts != ["NONE"] or rc != EXIT_OK:
            problems.append(f"expected NONE, got {payload['witness']!r}")
        return problems
    kind = "CORRECT-VIOLATION" if correcting else "DETECT-VIOLATION"
    size = 5 if correcting else 3
    if rc != EXIT_VIOLATION or len(parts) != size or parts[0] != kind:
        return [f"expected {kind}, got {payload['witness']!r} (exit {rc})"]
    u, v = parts[1], parts[2]
    if u not in code or v not in code or u == v:
        problems.append(f"witness pair {u} {v} is not two distinct codewords")
    elif correcting:
        z = parts[4]
        if parts[3] != "via" or not (referee.member(u, z)
                                     and referee.member(v, z)):
            problems.append(f"{z} is not an output of both {u} and {v}")
    elif not referee.member(u, v):
        problems.append(f"{v} is not an output of {u}")
    return problems


def check_maximal(rc: int, out: str, *, length: int,
                  excluded: frozenset) -> list[str]:
    """MAXIMAL when every word of the length is excluded, else ADDABLE with
    a word the code does not exclude."""
    payload, problems = _load(out)
    if payload is None:
        return problems
    if rc != EXIT_OK:
        return [f"exit code {rc}"]
    parts = payload["witness"].split()
    if len(excluded) == 2 ** length:
        if parts != ["MAXIMAL"]:
            problems.append(f"expected MAXIMAL, got {payload['witness']!r}")
    elif len(parts) != 2 or parts[0] != "ADDABLE":
        problems.append(f"expected ADDABLE, got {payload['witness']!r}")
    elif len(parts[1]) != length or parts[1] in excluded:
        problems.append(f"{parts[1]} cannot be added to the code")
    return problems


def check_index(rc: int, out: str, *, expected: Fraction) -> list[str]:
    payload, problems = _load(out)
    if payload is None:
        return problems
    if rc != EXIT_OK:
        return [f"exit code {rc}"]
    try:
        value = Fraction(payload["index"])
    except (KeyError, ValueError):
        return [f"unreadable index in {out[:80]!r}"]
    if value != expected:
        problems.append(f"index {value} != brute-force {expected}")
    return problems

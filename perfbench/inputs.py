"""Seeded inputs and brute-force referees for the benchmark.

Nothing here imports chancodes: the codes the benchmark feeds to the CLI and
the answers it checks the CLI against are computed from first principles, so
a defect in the library cannot hide in its own referee.  Words are strings
over ``"01"``.

Each channel the benchmark uses is described by its same-length
neighbourhood (``images``: the outputs of one word that have the word's
length), the inverse neighbourhood (``preimages``), and a membership test for
outputs of any length (``member``), which witness checks need because a
correction witness ``z`` may be longer or shorter than the codewords.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from typing import Callable

SYMBOLS = "01"


def all_words(length: int) -> list[str]:
    return ["".join(w) for w in cartesian(SYMBOLS, repeat=length)]


# -- same-length neighbourhoods ----------------------------------------------------


def hamming_ball(u: str, radius: int) -> set[str]:
    ball = {u}
    frontier = {u}
    for _ in range(radius):
        frontier = {
            w[:i] + b + w[i + 1:]
            for w in frontier
            for i in range(len(w))
            for b in SYMBOLS
            if b != w[i]
        }
        ball |= frontier
    return ball


def delete_append(u: str) -> set[str]:
    """del1: no error, or delete one symbol and append one at the end."""
    return {u} | {
        u[:i] + u[i + 1:] + a for i in range(len(u)) for a in SYMBOLS
    }


def insert_drop_last(u: str) -> set[str]:
    """ins1, the inverse of del1: insert one symbol, drop the last one."""
    return {u} | {
        (u[:i] + a + u[i:])[:-1] for i in range(len(u)) for a in SYMBOLS
    }


def delete_insert(u: str) -> set[str]:
    """Same-length outputs of id:2: no error, or one deletion and one
    insertion anywhere."""
    shorter = {u[:i] + u[i + 1:] for i in range(len(u))}
    return {u} | {
        w[:j] + a + w[j:]
        for w in shorter for j in range(len(u)) for a in SYMBOLS
    }


def drop_prefix_append_suffix(u: str) -> set[str]:
    """Same-length outputs of ov: drop k < len(u) leading symbols, append k."""
    return {
        u[k:] + "".join(s)
        for k in range(len(u))
        for s in cartesian(SYMBOLS, repeat=k)
    }


# -- membership for outputs of any length ------------------------------------------


def hamming(u: str, z: str) -> int:
    return sum(a != b for a, b in zip(u, z))


def indel_distance(u: str, z: str) -> int:
    """Fewest single-symbol insertions and deletions turning u into z."""
    row = [0] * (len(z) + 1)
    for a in u:
        diag, row[0] = row[0], 0
        for j, b in enumerate(z, 1):
            diag, row[j] = row[j], (diag + 1 if a == b
                                    else max(row[j], row[j - 1]))
    return len(u) + len(z) - 2 * row[-1]


def in_delete_append(u: str, z: str) -> bool:
    return z == u or (len(z) == len(u) and any(
        u[:i] + u[i + 1:] == z[:-1] for i in range(len(u))))


def in_drop_prefix_append_suffix(u: str, z: str) -> bool:
    return any(z.startswith(u[k:]) for k in range(len(u)))


def deletion_ball(u: str, k: int) -> set[str]:
    """Every subsequence of u that is exactly k symbols shorter."""
    ball = {u}
    for _ in range(k):
        ball = {w[:i] + w[i + 1:] for w in ball for i in range(len(w))}
    return ball


@dataclass(frozen=True)
class Referee:
    """Brute-force model of one channel sigma.

    ``footprint`` maps a word to a set such that two words of one length
    share a channel output exactly when their footprints meet, which turns
    the correction question into a set-disjointness test.
    """

    images: Callable[[str], set]          # sigma(u), same-length part
    preimages: Callable[[str], set]       # sigma^-1(u), same-length part
    member: Callable[[str, str], bool]    # z in sigma(u), any length of z
    footprint: "Callable[[str], set] | None"   # None: no correction checks


def _sub(k: int) -> Referee:
    ball = lambda u: hamming_ball(u, k)
    return Referee(ball, ball,
                   lambda u, z: len(u) == len(z) and hamming(u, z) <= k, ball)


def _id(k: int) -> Referee:
    """id:k.  Its same-length outputs pair deletions with insertions, and two
    words of one length share an output within k indels each exactly when
    their indel distance is at most 2k, i.e. when they share a subsequence k
    symbols shorter."""
    if k == 1:
        same = lambda u: {u}   # one indel always changes the length
    elif k == 2:
        same = delete_insert
    else:
        raise ValueError("only id:1 and id:2 have a referee")
    return Referee(same, same, lambda u, z: indel_distance(u, z) <= k,
                   lambda u: deletion_ball(u, k))


def _ov_preimages(u: str) -> set[str]:
    return {v for v in all_words(len(u)) if u in drop_prefix_append_suffix(v)}


REFEREES = {
    "sub:1": _sub(1),
    "sub:2": _sub(2),
    "id:1": _id(1),
    "id:2": _id(2),
    "del1": Referee(delete_append, insert_drop_last, in_delete_append,
                    delete_append),
    "ov": Referee(drop_prefix_append_suffix, _ov_preimages,
                  in_drop_prefix_append_suffix, None),
}


# -- codes and their known answers -------------------------------------------------


def excluded_by(code, referee: Referee) -> set[str]:
    """(sigma | sigma^-1)(C), restricted to the code's length; contains C."""
    out: set[str] = set()
    for u in code:
        out |= referee.images(u)
        out |= referee.preimages(u)
    return out


def is_detecting(code, referee: Referee) -> bool:
    words = set(code)
    return all(referee.images(u) & words == {u} for u in words)


def is_correcting(code, referee: Referee) -> bool:
    owner: dict[str, str] = {}
    for u in code:
        for z in referee.footprint(u):
            if owner.setdefault(z, u) != u:
                return False
    return True


def maximality_index(code, referee: Referee, length: int) -> Fraction:
    return Fraction(len(excluded_by(code, referee)), 2 ** length)


def random_code(rng: random.Random, length: int, size: int) -> list[str]:
    return sorted(format(i, f"0{length}b")
                  for i in rng.sample(range(2 ** length), size))


def greedy_code(rng: random.Random, referee: Referee, length: int,
                scan: float = 1.0) -> list[str]:
    """Scan a shuffled universe, keeping every word the code so far does not
    exclude.  A full scan (``scan=1``) yields a maximal detecting code; a
    partial scan leaves addable words behind."""
    universe = all_words(length)
    rng.shuffle(universe)
    code: list[str] = []
    excluded: set[str] = set()
    for w in universe[: int(len(universe) * scan)]:
        if w not in excluded:
            code.append(w)
            excluded |= referee.images(w)
            excluded |= referee.preimages(w)
    return sorted(code)


def varshamov_tenengolts(length: int, residue: int = 0) -> list[str]:
    """VT_a(n) = {x : sum of i * x_i over i = 1..n is a mod n + 1}; corrects
    one deletion or insertion (Levenshtein)."""
    return [w for w in all_words(length)
            if sum(i for i, b in enumerate(w, 1) if b == "1")
            % (length + 1) == residue]

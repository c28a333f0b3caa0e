"""Graph maps: factorizations, admissible pairs and the Hom basis.

A triple ``u = u3.u2.u1`` (traversal order: ``u1`` first) is a quotient
factorization when the letter of ``u1`` adjacent to ``u2`` is inverse and
the letter of ``u3`` adjacent to ``u2`` is direct, empty parts allowed;
submodule factorizations are dual.  Each pair of a quotient factorization
of ``u`` and a submodule factorization of ``v`` with equivalent middles is
one basis element of Hom(M(u), M(v)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import _inverse_codes
from .words import StringWord, WordError, is_string

QUOTIENT = "quotient"
SUBMODULE = "submodule"


@dataclass(frozen=True)
class Factorization:
    word: StringWord
    i: int
    j: int
    kind: str

    @property
    def parts(self) -> tuple[StringWord, StringWord, StringWord]:
        """(u3, u2, u1) with u1 traversed first."""
        w = self.word
        return (w.slice(self.j, len(w)), w.slice(self.i, self.j), w.slice(0, self.i))

    def splits(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class AdmissiblePair:
    quotient: Factorization
    submodule: Factorization

    def is_trivial(self) -> bool:
        u, v = self.quotient, self.submodule
        return (
            u.word == v.word
            and u.splits() == (0, len(u.word))
            and v.splits() == (0, len(v.word))
        )

    def splits(self) -> tuple[int, int, int, int]:
        return self.quotient.splits() + self.submodule.splits()


@dataclass(frozen=True)
class HomBasis:
    pairs: tuple[AdmissiblePair, ...]

    @property
    def dim(self) -> int:
        return len(self.pairs)


def _bounds(c: tuple[int, ...], inverse_before: int) -> tuple[list[int], list[int]]:
    """Where the middles of one kind may start and where they may end.

    A quotient middle starts after an inverse letter and ends before a
    direct one (``inverse_before = 1``); a submodule middle starts after a
    direct letter and ends before an inverse one (``inverse_before = 0``).
    The ends of the word are always allowed.
    """
    n = len(c)
    lo = [i for i in range(n + 1) if i == 0 or c[i - 1] & 1 == inverse_before]
    hi = [j for j in range(n + 1) if j == n or c[j] & 1 != inverse_before]
    return lo, hi


def _splits(c: tuple[int, ...], inverse_before: int) -> list[tuple[int, int]]:
    lo, hi = _bounds(c, inverse_before)
    return [(i, j) for i in lo for j in hi if i <= j]


def quotient_factorizations(u: StringWord) -> list[Factorization]:
    """All factorizations inducing quotient maps M(u) ->> M(u2)."""
    return [Factorization(u, i, j, QUOTIENT) for i, j in _splits(u.codes, 1)]


def submodule_factorizations(u: StringWord) -> list[Factorization]:
    """All factorizations inducing inclusions M(u2) -> M(u)."""
    return [Factorization(u, i, j, SUBMODULE) for i, j in _splits(u.codes, 0)]


def _key_function(c: tuple[int, ...], walk: list[str]):
    """The key of the middle ``c[i:j]`` of a string with codes ``c`` and
    walk vertices ``walk``, as a function of ``(i, j)``.

    Two middles, of this word or of another word of the same quiver, have
    equal keys exactly when they are equal strings up to inversion; a lazy
    middle is keyed by its vertex.
    """
    r = _inverse_codes(c)
    n = len(c)

    def key(i: int, j: int):
        return walk[i] if i == j else min(c[i:j], r[n - j : n - i])

    return key


def admissible_pairs(u: StringWord, v: StringWord) -> HomBasis:
    """The graph-map basis of Hom(M(u), M(v)), in split order (both splits ascend)."""
    for w in (u, v):
        if not is_string(w):
            raise WordError(f"{w.render()} is not a string")
    cu, cv = u.codes, v.codes
    key_u = _key_function(cu, u.walk_vertices())
    key_v = _key_function(cv, v.walk_vertices())
    sub_index: dict[object, list[tuple[int, int]]] = {}
    for i, j in _splits(cv, 0):
        sub_index.setdefault(key_v(i, j), []).append((i, j))
    pairs = []
    for i, j in _splits(cu, 1):
        for i2, j2 in sub_index.get(key_u(i, j), ()):
            pairs.append(
                AdmissiblePair(
                    Factorization(u, i, j, QUOTIENT), Factorization(v, i2, j2, SUBMODULE)
                )
            )
    return HomBasis(tuple(pairs))


def hom_dim(u: StringWord, v: StringWord) -> int:
    return admissible_pairs(u, v).dim


def _is_brick_string(w: StringWord) -> bool:
    """The brick test for a word already known to be a string.

    The split ``(0, n)`` is the only middle of full length ``n``, so the
    trivial pair is the only pair with a middle of length ``n``; the string
    is a brick iff no quotient middle shorter than ``n`` has the key of a
    submodule middle of the same length.  Lengths are scanned upwards, and
    the scan stops at the first match.
    """
    c = w.codes
    key = _key_function(c, w.walk_vertices())
    n = len(c)
    sub_lo, sub_hi = _bounds(c, 0)
    quo_lo, quo_hi = _bounds(c, 1)
    sub_hi, quo_hi = set(sub_hi), set(quo_hi)
    for length in range(n):
        sub_keys = {key(i, i + length) for i in sub_lo if i + length in sub_hi}
        if sub_keys and any(
            key(i, i + length) in sub_keys for i in quo_lo if i + length in quo_hi
        ):
            return False
    return True


def is_brick(w: StringWord) -> bool:
    """One-dimensional endomorphism space: only the trivial pair survives."""
    if not is_string(w):
        raise WordError(f"{w.render()} is not a string")
    return _is_brick_string(w)

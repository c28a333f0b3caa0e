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

from .words import StringWord, WordError, _inverse_codes, is_string

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


def _quotient_splits(w: StringWord) -> list[tuple[int, int]]:
    n = len(w)
    lo = [i for i in range(n + 1) if i == 0 or w.letters[i - 1].inverse]
    hi = [j for j in range(n + 1) if j == n or not w.letters[j].inverse]
    return [(i, j) for i in lo for j in hi if i <= j]


def _submodule_splits(w: StringWord) -> list[tuple[int, int]]:
    n = len(w)
    lo = [i for i in range(n + 1) if i == 0 or not w.letters[i - 1].inverse]
    hi = [j for j in range(n + 1) if j == n or w.letters[j].inverse]
    return [(i, j) for i in lo for j in hi if i <= j]


def quotient_factorizations(u: StringWord) -> list[Factorization]:
    """All factorizations inducing quotient maps M(u) ->> M(u2)."""
    return [Factorization(u, i, j, QUOTIENT) for i, j in _quotient_splits(u)]


def submodule_factorizations(u: StringWord) -> list[Factorization]:
    """All factorizations inducing inclusions M(u2) -> M(u)."""
    return [Factorization(u, i, j, SUBMODULE) for i, j in _submodule_splits(u)]


def _key_function(w: StringWord):
    """The key of the middle ``w[i:j]``, as a function of ``(i, j)``.

    Two middles, of this word or of another word of the same quiver, have
    equal keys exactly when they are equal strings up to inversion; a lazy
    middle is keyed by its vertex.
    """
    walk = w.walk_vertices()
    c = w.codes()
    r = _inverse_codes(c)
    n = len(c)

    def key(i: int, j: int):
        return walk[i] if i == j else min(c[i:j], r[n - j : n - i])

    return key


def admissible_pairs(u: StringWord, v: StringWord) -> HomBasis:
    """The graph-map basis of Hom(M(u), M(v)), in split order."""
    for w in (u, v):
        if not is_string(w):
            raise WordError(f"{w.render()} is not a string")
    key_u, key_v = _key_function(u), _key_function(v)
    sub_index: dict[object, list[tuple[int, int]]] = {}
    for i, j in _submodule_splits(v):
        sub_index.setdefault(key_v(i, j), []).append((i, j))
    pairs = []
    for i, j in sorted(_quotient_splits(u)):
        for i2, j2 in sorted(sub_index.get(key_u(i, j), ())):
            pairs.append(
                AdmissiblePair(
                    Factorization(u, i, j, QUOTIENT), Factorization(v, i2, j2, SUBMODULE)
                )
            )
    pairs.sort(key=AdmissiblePair.splits)
    return HomBasis(tuple(pairs))


def hom_dim(u: StringWord, v: StringWord) -> int:
    return admissible_pairs(u, v).dim


def is_brick(w: StringWord) -> bool:
    """One-dimensional endomorphism space: only the trivial pair survives.

    The split ``(0, n)`` is the only middle of full length ``n``, so the
    trivial pair is the only pair with a middle of length ``n``; ``w`` is a
    brick iff no quotient middle shorter than ``n`` has the key of a
    submodule middle shorter than ``n``.  The scan stops at the first match.
    """
    if not is_string(w):
        raise WordError(f"{w.render()} is not a string")
    key = _key_function(w)
    n = len(w)
    sub_keys = {key(i, j) for i, j in _submodule_splits(w) if j - i < n}
    return not any(key(i, j) in sub_keys for i, j in _quotient_splits(w) if j - i < n)

"""Graph maps: the Hom basis as split tuples, and the brick test.

A split ``(i, j)`` of a word ``u`` (traversal order: ``u[:i]`` first) cuts
it into ``u[j:] . u[i:j] . u[:i]``.  It is a quotient split when the letter
of ``u[:i]`` next to the middle ``u[i:j]`` is inverse and the letter of
``u[j:]`` next to it is direct, empty sides allowed; submodule splits are
dual.  Each pair of a quotient split ``(i, j)`` of ``u`` and a submodule
split ``(i2, j2)`` of ``v`` with equivalent middles is one basis element
``(i, j, i2, j2)`` of Hom(M(u), M(v)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import _inverse_codes
from .words import BandClass, StringWord, WordError, is_string


@dataclass(frozen=True)
class HomBasis:
    pairs: tuple[tuple[int, int, int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.pairs)


def _splits(c: tuple[int, ...], inverse_before: int) -> list[tuple[int, int]]:
    """The splits of one kind of a word with codes ``c``, in ascending order.

    A quotient middle starts after an inverse letter and ends before a
    direct one (``inverse_before = 1``); a submodule middle starts after a
    direct letter and ends before an inverse one (``inverse_before = 0``).
    The ends of the word are always allowed.
    """
    n = len(c)
    hi = [j for j in range(n + 1) if j == n or c[j] & 1 != inverse_before]
    return [
        (i, j)
        for i in range(n + 1)
        if i == 0 or c[i - 1] & 1 == inverse_before
        for j in hi
        if i <= j
    ]


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
    return _hom_basis(u, v)


def _hom_basis(u: StringWord, v: StringWord) -> HomBasis:
    """The basis of ``admissible_pairs`` for words already known to be strings."""
    key_u = _key_function(u.codes, u.walk_vertices())
    key_v = _key_function(v.codes, v.walk_vertices())
    sub_index: dict[object, list[tuple[int, int]]] = {}
    for i, j in _splits(v.codes, 0):
        sub_index.setdefault(key_v(i, j), []).append((i, j))
    return HomBasis(
        tuple(
            (i, j, i2, j2)
            for i, j in _splits(u.codes, 1)
            for i2, j2 in sub_index.get(key_u(i, j), ())
        )
    )


def hom_dim(u: StringWord, v: StringWord) -> int:
    return admissible_pairs(u, v).dim


def _is_brick_string(w: StringWord) -> bool:
    """The brick test for a word already known to be a string.

    The split ``(0, n)`` is the only middle of full length ``n``, so the
    trivial pair ``(0, n, 0, n)`` is the only pair with a middle of length
    ``n``: the string is a brick iff no shorter quotient middle has the key
    of a shorter submodule middle.  A lazy middle's key is a vertex and any
    other key is a code tuple, so equal keys have equal lengths.
    """
    c, n = w.codes, len(w.codes)
    key = _key_function(c, w.walk_vertices())
    sub_keys = {key(i, j) for i, j in _splits(c, 0) if j - i < n}
    return not any(key(i, j) in sub_keys for i, j in _splits(c, 1) if j - i < n)


def is_brick(w: StringWord) -> bool:
    """One-dimensional endomorphism space: only the trivial pair survives."""
    if not is_string(w):
        raise WordError(f"{w.render()} is not a string")
    return _is_brick_string(w)


def is_band_brick(b: BandClass) -> bool:
    """Whether the band module M(b, lam, 1) is a brick, for every lam.

    By Krause (1991), End M(b, lam, 1) is the scalars plus one map per pair
    of a finite quotient and a finite submodule factor of b^oo, equal up to
    inversion: here, middles of ``b^5`` with both neighbours inside it.
    Only factors shorter than ``n = |b|`` can pair.  A shared window of
    length ``n`` fixes b^oo, so at another phase b is not primitive; at the
    same phase the letter before it is inverse and direct; inverted, b^oo
    is its own reversed inverse, so a letter is its own inverse or is
    followed by it, against (S1).  Every phase occurs among the submodule
    middles, so the quotient middles starting in copy 2 suffice.
    """
    n, w = len(b.representative), b.representative.power(5)
    c, key = w.codes, _key_function(w.codes, w.walk_vertices())
    sub = {key(i, j) for i, j in _splits(c, 0) if 0 < i and j < len(c) and j - i < n}
    return not any(key(i, j) in sub for i, j in _splits(c, 1) if 2 * n <= i < 3 * n and j - i < n)

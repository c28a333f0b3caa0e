"""Strings and bands over a string algebra, and their string modules.

A letter is an arrow traversed forwards or backwards; a word is a sequence
of letters in traversal order (first step first), stored as letter codes
``2*arrow_index + inverse``.  The printed form follows the right-to-left
application convention: ``eps delta- gamma- beta`` is the walk that applies
``beta`` first, so its traversal order is the reverse of the printed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .quiver import (
    MONOMIAL,
    BoundQuiver,
    QuiverError,
    _extend,
    _has_cycle,
    _inverse_codes,
    _memo,
    _step_ok,
    _Steps,
    _steps,
)


class Letter(NamedTuple):
    arrow: str
    inverse: bool

    def render(self) -> str:
        return self.arrow + ("-" if self.inverse else "")


class WordError(QuiverError):
    """Raised on non-composable or otherwise malformed words."""


def _code_text(q: BoundQuiver, x: int) -> str:
    """The printed form of the letter with code ``x``."""
    return q.arrows[x >> 1].name + ("-" if x & 1 else "")


@dataclass(frozen=True)
class StringWord:
    """A reduced walk satisfying (S1)/(S2); empty words carry a basepoint.

    ``codes`` holds the letter codes ``2*arrow_index + inverse`` in
    traversal order.  Code order is the (arrow index, inverse) letter
    order, so comparing code tuples compares words of equal length.
    """

    quiver: BoundQuiver
    codes: tuple[int, ...]
    basepoint: str | None = None

    def __post_init__(self):
        if not self.codes and self.basepoint is None:
            raise WordError("empty word needs a basepoint")

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The letters of the walk, in traversal order."""
        arrows = self.quiver.arrows
        return tuple(Letter(arrows[x >> 1].name, bool(x & 1)) for x in self.codes)

    # -- walk geometry -------------------------------------------------------

    @property
    def source(self) -> str:
        if not self.codes:
            return self.basepoint  # type: ignore[return-value]
        return _steps(self.quiver).ends[self.codes[0] ^ 1]

    @property
    def target(self) -> str:
        if not self.codes:
            return self.basepoint  # type: ignore[return-value]
        return _steps(self.quiver).ends[self.codes[-1]]

    def __len__(self) -> int:
        return len(self.codes)

    def walk_vertices(self) -> list[str]:
        """The l+1 vertices visited, in traversal order."""
        c = self.codes
        if not c:
            return [self.basepoint]  # type: ignore[list-item]
        ends = _steps(self.quiver).ends
        return [ends[c[0] ^ 1], *map(ends.__getitem__, c)]

    def supported_arrows(self) -> set[str]:
        arrows = self.quiver.arrows
        return {arrows[x >> 1].name for x in self.codes}

    def double_supported_arrows(self) -> set[str]:
        arrows = self.quiver.arrows
        c = set(self.codes)
        return {arrows[x >> 1].name for x in c if x & 1 and x ^ 1 in c}

    # -- algebra -------------------------------------------------------------

    def inverse(self) -> "StringWord":
        return StringWord(self.quiver, _inverse_codes(self.codes), self.basepoint)

    def concat(self, other: "StringWord") -> "StringWord":
        """``self`` then ``other`` (traversal order)."""
        if self.target != other.source:
            raise WordError("words do not compose")
        if not self.codes and not other.codes:
            return self
        return StringWord(self.quiver, self.codes + other.codes)

    def power(self, m: int) -> "StringWord":
        if not self.codes:
            return self
        return StringWord(self.quiver, self.codes * m)

    def rotate(self, k: int) -> "StringWord":
        """Cyclic rotation; only meaningful for closed walks."""
        if not self.codes:
            return self
        k %= len(self.codes)
        return StringWord(self.quiver, self.codes[k:] + self.codes[:k])

    def slice(self, i: int, j: int) -> "StringWord":
        if i == j:
            return StringWord(self.quiver, (), self.walk_vertices()[i])
        return StringWord(self.quiver, self.codes[i:j])

    # -- canonical form -------------------------------------------------------

    def sort_key(self) -> tuple:
        if not self.codes:
            return (0, (), self.quiver.vertex_index[self.basepoint])  # type: ignore[index]
        return (len(self.codes), self.codes, -1)

    def render(self) -> str:
        if not self.codes:
            return f"e({self.basepoint})"
        return " ".join(_code_text(self.quiver, x) for x in reversed(self.codes))

    def __repr__(self) -> str:
        return f"<{self.render()}>"


def _check_monomial(q: BoundQuiver) -> None:
    """Strings and bands are read off monomial relations: the step rule
    treats both paths of a commutativity relation as nonzero, so on such a
    quiver it finds walks the algebra does not have (read them on
    ``quiver.monomialize(q)`` instead)."""
    if any(r.kind != MONOMIAL for r in q.relations):
        raise QuiverError(
            f"{q.name!r} has a commutativity relation; strings and bands need monomial relations"
        )


def word_from_text(q: BoundQuiver, text: str) -> StringWord:
    """Parse the printed form; ``e(x)`` stands for the lazy word at ``x``."""
    _check_monomial(q)
    text = text.strip()
    if text.startswith("e(") and text.endswith(")"):
        v = text[2:-1]
        if v not in q.vertex_index:
            raise WordError(f"no vertex {v!r}")
        return StringWord(q, (), v)
    codes = []
    for token in reversed(text.split()):
        inv = token.endswith("-")
        name = token[:-1] if inv else token
        if name not in q.arrow_index:
            raise WordError(f"no arrow {name!r}")
        codes.append(2 * q.arrow_index[name] + inv)
    if not codes:
        raise WordError("empty word literal; use e(<vertex>)")
    _check_composable(q, codes)
    return StringWord(q, tuple(codes))


def lazy_word(q: BoundQuiver, vertex: str) -> StringWord:
    return StringWord(q, (), vertex)


# -- the string axioms ---------------------------------------------------------
# The rule itself, ``_step_ok`` over the step table, lives in ``quiver``.


def _check_composable(q: BoundQuiver, c: Sequence[int]) -> None:
    ends = _steps(q).ends
    for x, y in zip(c, c[1:]):
        if ends[x] != ends[y ^ 1]:
            raise WordError(f"letters {_code_text(q, x)} {_code_text(q, y)} do not compose")


def is_string(w: StringWord) -> bool:
    """(S1) and (S2) for a composable walk; lazy words are strings.

    Raises ``WordError`` if the walk is not composable.
    """
    c = w.codes
    steps = _steps(w.quiver)
    if all(_step_ok(steps, c, k) for k in range(len(c))):
        return True
    _check_composable(w.quiver, c)
    return False


def _is_canonical(c: tuple[int, ...]) -> bool:
    """Whether the non-empty string ``c`` is smaller than its inverse: the
    orientation that canonical strings and the string counts keep.

    The first codes decide most pairs without building the inverse.  A
    non-empty string never equals its inverse: at odd length its middle code
    would equal its own inverse, and at even length its two middle codes
    would undo each other, against (S1).  So ``<`` and ``<=`` agree here.
    """
    first, inv_first = c[0], c[-1] ^ 1
    return first < inv_first or (first == inv_first and c < _inverse_codes(c))


MAX_CENSUS_LEN = 1000  # the longest walk that string and brick enumerations accept


def _check_max_len(max_len: int) -> None:
    """Reject a walk length outside ``0..MAX_CENSUS_LEN``."""
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    if max_len > MAX_CENSUS_LEN:
        raise QuiverError(f"max_len must be at most {MAX_CENSUS_LEN}, got {max_len}")


def enumerate_strings(q: BoundQuiver, max_len: int) -> list[StringWord]:
    """All canonical strings of length at most ``max_len`` (at most
    ``MAX_CENSUS_LEN``), sorted."""
    _check_max_len(max_len)
    _check_monomial(q)
    canonical = []
    if max_len:
        steps = _steps(q)
        frontier = [(x,) for x in range(2 * len(q.arrows))]
        while frontier:
            c = frontier.pop()
            # the search meets every string and its inverse: keep the smaller
            if _is_canonical(c):
                canonical.append(c)
            if len(c) < max_len:
                frontier.extend(_extend(steps, c))
    canonical.sort(key=lambda c: (len(c), c))
    return [lazy_word(q, v) for v in q.vertices] + [StringWord(q, c) for c in canonical]


# -- bands ---------------------------------------------------------------------


@dataclass(frozen=True)
class BandClass:
    """A primitive cyclic string up to rotation and inversion."""

    representative: StringWord

    def length(self) -> int:
        return len(self.representative)

    def render(self) -> str:
        return self.representative.render()

    def __repr__(self) -> str:
        return f"Band<{self.render()}>"


def _is_primitive(c: tuple[int, ...]) -> bool:
    n = len(c)
    for d in range(1, n):
        if n % d == 0 and c == c[:d] * (n // d):
            return False
    return True


def _power_bound(steps: _Steps, length: int) -> int:
    """Powers to test so every relation window across seams is exercised."""
    return max(3, (max(steps.lengths, default=2) + length - 1) // length + 1)


def _is_band_walk(steps: _Steps, c: tuple[int, ...]) -> bool:
    """Whether the string ``c`` is a band: its power passes the rule past
    ``c`` itself (the first step there closes the walk), and ``c`` is
    primitive."""
    if c[0] not in steps.succ[c[-1]]:
        return False  # not closed, or the seam undoes a letter: most strings
    p = c * _power_bound(steps, len(c))
    return all(_step_ok(steps, p, k) for k in range(len(c), len(p))) and _is_primitive(c)


def is_band(w: StringWord) -> bool:
    """A closed primitive walk all of whose powers are strings; strings are
    prefix-closed, so testing the highest power needed covers the rest."""
    if len(w) == 0 or w.source != w.target or not is_string(w):
        return False
    return _is_band_walk(_steps(w.quiver), w.codes)


def _least_rotation(c: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of ``c`` over the word and its inverse: the codes
    of the representative of its band class."""
    return min(x[k:] + x[:k] for x in (c, _inverse_codes(c)) for k in range(len(c)))


def canonical_band(w: StringWord) -> BandClass:
    """Least rotation over the word and its inverse."""
    return BandClass(StringWord(w.quiver, _least_rotation(w.codes)))


def enumerate_bands(q: BoundQuiver, max_len: int | None = None) -> list[BandClass]:
    """Band classes supporting each arrow at most once per direction, with
    representative length at most ``max_len`` (default: all of them).

    Every band arises from these by splicing repetitions, so nothing is
    lost for existence or reduction questions.  Such a band uses each code
    at most once, so none is longer than ``2 |Q1|``.
    """
    _check_monomial(q)
    if max_len is None:
        return list(_bands(q))
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    return [b for b in _bands(q) if b.length() <= max_len]


@_memo
def _bands(q: BoundQuiver) -> tuple[BandClass, ...]:
    """The band classes of ``enumerate_bands``, in their representatives'
    ``StringWord.sort_key`` order.

    A representative starts with the least code of its class's codes and
    their inverses, a set closed under ``x ^ 1``, so with a direct code
    ``x`` followed by greater codes only.  The search grows walks from each
    direct code, using codes greater than it and none twice.
    """
    steps = _steps(q)
    classes = set()  # the least rotation of each class met
    frontier = [(x,) for x in range(0, 2 * len(q.arrows), 2)]
    while frontier:
        c = frontier.pop()
        if _is_band_walk(steps, c):
            classes.add(_least_rotation(c))
        frontier.extend(e for e in _extend(steps, c) if e[-1] > c[0] and e[-1] not in c)
    # the representatives' sort_key order, which is (length, codes, -1)
    return tuple(BandClass(StringWord(q, c)) for c in sorted(classes, key=lambda c: (len(c), c)))


@_memo
def band_exists(q: BoundQuiver) -> bool:
    """Rep-infiniteness test: a band exists iff some string walk goes on for
    ever, iff the states of the step table close a cycle."""
    return _has_cycle(_steps(q), range(2 * len(q.arrows)))


# -- string modules -------------------------------------------------------------


@dataclass
class Representation:
    """Vertex dimensions plus one 0/1 integer matrix per arrow.

    The matrix of ``a`` has shape ``dims[tgt] x dims[src]`` and acts on
    column vectors.
    """

    quiver: BoundQuiver
    dims: dict[str, int]
    mats: dict[str, list[list[int]]]

    def total_dim(self) -> int:
        return sum(self.dims.values())


def string_module(w: StringWord) -> Representation:
    """The string module M(w): one basis vector per visit, identity maps
    along the letters of the walk.

    ``is_string`` decides (S1)/(S2), so every monomial relation acts as zero
    on the module; a commutativity relation is rejected, as at the other
    word entry points."""
    q = w.quiver
    _check_monomial(q)
    if not is_string(w):
        raise WordError(f"{w.render()} is not a string")
    verts = w.walk_vertices()
    dims = {v: 0 for v in q.vertices}
    slot = []
    for v in verts:
        slot.append(dims[v])
        dims[v] += 1
    mats = {
        a.name: [[0] * dims[a.src] for _ in range(dims[a.tgt])] for a in q.arrows
    }
    for i, x in enumerate(w.codes):
        m = mats[q.arrows[x >> 1].name]
        if x & 1:
            # the walk runs against the arrow: position i+1 maps to i
            m[slot[i]][slot[i + 1]] = 1
        else:
            m[slot[i + 1]][slot[i]] = 1
    return Representation(q, dims, mats)

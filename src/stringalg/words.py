"""Strings and bands over a string algebra, and their string modules.

A letter is an arrow traversed forwards or backwards; a word is a sequence
of letters in traversal order (first step first).  The printed form follows
the right-to-left application convention: ``eps delta- gamma- beta`` is the
walk that applies ``beta`` first, so its traversal order is the reverse of
the printed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .quiver import BoundQuiver, QuiverError, _memo


class Letter(NamedTuple):
    arrow: str
    inverse: bool

    def inv(self) -> "Letter":
        return Letter(self.arrow, not self.inverse)

    def render(self) -> str:
        return self.arrow + ("-" if self.inverse else "")


class WordError(QuiverError):
    """Raised on non-composable or otherwise malformed words."""


def _letter_ends(q: BoundQuiver, letter: Letter) -> tuple[str, str]:
    """(start, end) of one step of a walk."""
    a = q.arrow_by_name[letter.arrow]
    return (a.tgt, a.src) if letter.inverse else (a.src, a.tgt)


def _codes(q: BoundQuiver, letters: Sequence[Letter]) -> tuple[int, ...]:
    """Letter codes ``2*arrow_index + inverse`` in traversal order.

    Code order is the (arrow index, inverse) letter order, so comparing code
    tuples compares words of equal length.
    """
    index = q.arrow_index
    return tuple(2 * index[l.arrow] + l.inverse for l in letters)


def _inverse_codes(c: tuple[int, ...]) -> tuple[int, ...]:
    """The codes of the inverse word: reversed, each letter's direction flipped."""
    return tuple(x ^ 1 for x in reversed(c))


@dataclass(frozen=True)
class StringWord:
    """A reduced walk satisfying (S1)/(S2); empty words carry a basepoint."""

    quiver: BoundQuiver
    letters: tuple[Letter, ...]
    basepoint: str | None = None

    def __post_init__(self):
        if not self.letters and self.basepoint is None:
            raise WordError("empty word needs a basepoint")

    # -- walk geometry -------------------------------------------------------

    @property
    def source(self) -> str:
        if not self.letters:
            return self.basepoint  # type: ignore[return-value]
        return _letter_ends(self.quiver, self.letters[0])[0]

    @property
    def target(self) -> str:
        if not self.letters:
            return self.basepoint  # type: ignore[return-value]
        return _letter_ends(self.quiver, self.letters[-1])[1]

    def __len__(self) -> int:
        return len(self.letters)

    def walk_vertices(self) -> list[str]:
        """The l+1 vertices visited, in traversal order."""
        if not self.letters:
            return [self.basepoint]  # type: ignore[list-item]
        verts = [_letter_ends(self.quiver, self.letters[0])[0]]
        for letter in self.letters:
            verts.append(_letter_ends(self.quiver, letter)[1])
        return verts

    def supported_arrows(self) -> set[str]:
        return {l.arrow for l in self.letters}

    def double_supported_arrows(self) -> set[str]:
        direct = {l.arrow for l in self.letters if not l.inverse}
        inv = {l.arrow for l in self.letters if l.inverse}
        return direct & inv

    # -- algebra -------------------------------------------------------------

    def inverse(self) -> "StringWord":
        return StringWord(
            self.quiver, tuple(l.inv() for l in reversed(self.letters)), self.basepoint
        )

    def concat(self, other: "StringWord") -> "StringWord":
        """``self`` then ``other`` (traversal order)."""
        if self.target != other.source:
            raise WordError("words do not compose")
        if not self.letters and not other.letters:
            return self
        return StringWord(self.quiver, self.letters + other.letters)

    def power(self, m: int) -> "StringWord":
        if not self.letters:
            return self
        return StringWord(self.quiver, self.letters * m)

    def rotate(self, k: int) -> "StringWord":
        """Cyclic rotation; only meaningful for closed walks."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return StringWord(self.quiver, self.letters[k:] + self.letters[:k])

    def slice(self, i: int, j: int) -> "StringWord":
        if i == j:
            return StringWord(self.quiver, (), self.walk_vertices()[i])
        return StringWord(self.quiver, self.letters[i:j])

    # -- canonical form -------------------------------------------------------

    def codes(self) -> tuple[int, ...]:
        return _codes(self.quiver, self.letters)

    def sort_key(self) -> tuple:
        if not self.letters:
            return (0, (), self.quiver.vertex_index[self.basepoint])  # type: ignore[index]
        return (len(self.letters), self.codes(), -1)

    def render(self) -> str:
        if not self.letters:
            return f"e({self.basepoint})"
        return " ".join(l.render() for l in reversed(self.letters))

    def __repr__(self) -> str:
        return f"<{self.render()}>"


def word_from_text(q: BoundQuiver, text: str) -> StringWord:
    """Parse the printed form; ``e(x)`` stands for the lazy word at ``x``."""
    text = text.strip()
    if text.startswith("e(") and text.endswith(")"):
        v = text[2:-1]
        if v not in q.vertex_index:
            raise WordError(f"no vertex {v!r}")
        return StringWord(q, (), v)
    letters = []
    for token in reversed(text.split()):
        inv = token.endswith("-")
        name = token[:-1] if inv else token
        if name not in q.arrow_by_name:
            raise WordError(f"no arrow {name!r}")
        letters.append(Letter(name, inv))
    if not letters:
        raise WordError("empty word literal; use e(<vertex>)")
    _check_composable(q, letters)
    return StringWord(q, tuple(letters))


def lazy_word(q: BoundQuiver, vertex: str) -> StringWord:
    return StringWord(q, (), vertex)


# -- the string axioms ---------------------------------------------------------


class _Steps(NamedTuple):
    """The string axioms of one quiver as a rule on letter codes.

    ``succ[x]`` lists the codes that may follow code ``x``: the letters that
    start where ``x`` ends, outgoing arrows direct first, then incoming
    arrows inverse, without ``x ^ 1``, which would undo ``x`` (S1), and
    without the codes that close a relation of length 2 with ``x`` (S2).
    ``forbidden`` holds each other monomial relation twice, as its direct
    codes and as their inverse codes, the way an inverse run spells it
    (S2); ``lengths`` are their lengths, ascending.
    """

    succ: tuple[tuple[int, ...], ...]
    forbidden: frozenset[tuple[int, ...]]
    lengths: tuple[int, ...]


@_memo
def _steps(q: BoundQuiver) -> _Steps:
    """The step table of ``q``."""
    index = q.arrow_index
    leave = {
        v: [2 * index[b.name] for b in q.outgoing(v)] + [2 * index[b.name] + 1 for b in q.incoming(v)]
        for v in q.vertices
    }
    forbidden = set()
    for path in q.monomials:
        d = tuple(2 * index[x] for x in path)
        forbidden.update((d, _inverse_codes(d)))
    succ = []
    for i, a in enumerate(q.arrows):
        for x, v in ((2 * i, a.tgt), (2 * i + 1, a.src)):
            succ.append(tuple(y for y in leave[v] if y != x ^ 1 and (x, y) not in forbidden))
    lengths = tuple(g for g in q._rel_lengths if g != 2)
    return _Steps(tuple(succ), frozenset(w for w in forbidden if len(w) != 2), lengths)


def _step_ok(steps: _Steps, c: tuple[int, ...], k: int) -> bool:
    """(S1) and (S2) at code ``k`` of a code walk whose first ``k`` codes
    form a string.

    Code ``k`` must lie in the successors of code ``k-1``, and no suffix of
    ``c[:k+1]`` may be a forbidden window.  A window that mixes directions
    never matches, so runs need no tracking; each relation factor of a run
    ends at exactly one code, so a walk is a string iff every code passes.
    """
    succ, forbidden, lengths = steps
    if k and c[k] not in succ[c[k - 1]]:
        return False
    for g in lengths:
        if g > k + 1:
            break
        if c[k + 1 - g : k + 1] in forbidden:
            return False
    return True


def _extend(steps: _Steps, c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The strings one code longer than the string ``c``, in ``succ`` order."""
    grown = [c + (y,) for y in steps.succ[c[-1]]]
    if not steps.lengths:  # every relation has length 2: ``succ`` is the rule
        return grown
    k = len(c)
    return [e for e in grown if _step_ok(steps, e, k)]


def _code_letters(q: BoundQuiver) -> tuple[Letter, ...]:
    """The letter of each code."""
    return tuple(Letter(a.name, inv) for a in q.arrows for inv in (False, True))


def _code_ends(q: BoundQuiver) -> tuple[str, ...]:
    """The vertex where each code ends; code ``x`` starts at ``ends[x ^ 1]``."""
    return tuple(v for a in q.arrows for v in (a.tgt, a.src))


def _walk(ends: tuple[str, ...], c: tuple[int, ...]) -> list[str]:
    """The ``len(c) + 1`` vertices a non-empty code walk visits."""
    return [ends[c[0] ^ 1], *map(ends.__getitem__, c)]


def _check_composable(q: BoundQuiver, letters: Sequence[Letter]) -> None:
    for a, b in zip(letters, letters[1:]):
        if _letter_ends(q, a)[1] != _letter_ends(q, b)[0]:
            raise WordError(f"letters {a.render()} {b.render()} do not compose")


def is_string(w: StringWord) -> bool:
    """(S1) and (S2) for a composable walk; lazy words are strings.

    Raises ``WordError`` if the walk is not composable.
    """
    c = w.codes()
    steps = _steps(w.quiver)
    if all(_step_ok(steps, c, k) for k in range(len(c))):
        return True
    _check_composable(w.quiver, w.letters)
    return False


def canonical_string(w: StringWord) -> StringWord:
    """The smaller of ``w`` and its inverse in the letter order."""
    c = w.codes()
    return w if c <= _inverse_codes(c) else w.inverse()


def enumerate_strings(q: BoundQuiver, max_len: int) -> list[StringWord]:
    """All canonical strings of length at most ``max_len``, sorted."""
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    canonical = []
    if max_len:
        steps = _steps(q)
        frontier = [(x,) for x in range(2 * len(q.arrows))]
        while frontier:
            c = frontier.pop()
            # the search meets every string and its inverse, never equal:
            # keep the smaller, mostly decided by the first letters
            first, inv_first = c[0], c[-1] ^ 1
            if first < inv_first or (first == inv_first and c < _inverse_codes(c)):
                canonical.append(c)
            if len(c) < max_len:
                frontier.extend(_extend(steps, c))
    canonical.sort(key=lambda c: (len(c), c))
    letters = _code_letters(q)
    return [lazy_word(q, v) for v in q.vertices] + [
        StringWord(q, tuple(map(letters.__getitem__, c))) for c in canonical
    ]


# -- bands ---------------------------------------------------------------------


@dataclass(frozen=True)
class BandClass:
    """A primitive cyclic string up to rotation and inversion."""

    representative: StringWord

    def length(self) -> int:
        return len(self.representative)

    def sort_key(self) -> tuple:
        return self.representative.sort_key()

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


def _power_bound(q: BoundQuiver, length: int) -> int:
    """Powers to test so every relation window across seams is exercised."""
    need = max(3, (q._max_rel_len + length - 1) // max(length, 1) + 1)
    return need


def _is_band_codes(q: BoundQuiver, steps: _Steps, c: tuple[int, ...]) -> bool:
    """Whether the string ``c`` is a band: its power passes the rule past
    ``c`` itself (the first step there closes the walk), and ``c`` is
    primitive."""
    if c[0] not in steps.succ[c[-1]]:
        return False  # not closed, or the seam undoes a letter: most strings
    p = c * _power_bound(q, len(c))
    return all(_step_ok(steps, p, k) for k in range(len(c), len(p))) and _is_primitive(c)


def is_band(w: StringWord) -> bool:
    """A closed primitive walk all of whose powers are strings; strings are
    prefix-closed, so testing the highest power needed covers the rest."""
    if len(w) == 0 or w.source != w.target or not is_string(w):
        return False
    return _is_band_codes(w.quiver, _steps(w.quiver), w.codes())


def _band_class(q: BoundQuiver, c: tuple[int, ...]) -> BandClass:
    """The class of a band given by codes: its least rotation over the word
    and its inverse."""
    least = min(x[k:] + x[:k] for x in (c, _inverse_codes(c)) for k in range(len(c)))
    letters = _code_letters(q)
    return BandClass(StringWord(q, tuple(letters[x] for x in least)))


def canonical_band(w: StringWord) -> BandClass:
    """Least rotation over the word and its inverse."""
    return _band_class(w.quiver, w.codes())


def supports_once_per_direction(w: StringWord) -> bool:
    seen = set()
    for l in w.letters:
        if l in seen:
            return False
        seen.add(l)
    return True


def enumerate_bands(
    q: BoundQuiver, max_len: int | None = None, find_one: bool = False, minimal_only: bool = True
) -> list[BandClass]:
    """Band classes with representative length at most ``max_len``
    (default ``2 |Q1|``).

    By default only bands supporting each arrow at most once per direction
    are listed; every band arises from these by splicing repetitions, so
    nothing is lost for existence or reduction questions, and the list is
    finite without any length cap.  Pass ``minimal_only=False`` to opt into
    the unrestricted (potentially much larger) enumeration.  With
    ``find_one`` the search stops at the first band found.
    """
    # a minimal band uses each code at most once, so it is never longer
    # than 2 |Q1|: any larger bound gives the default list
    if minimal_only and not find_one and (max_len is None or max_len >= 2 * len(q.arrows)):
        return list(_default_bands(q))
    return _bands(q, max_len, find_one, minimal_only)


@_memo
def _default_bands(q: BoundQuiver) -> tuple[BandClass, ...]:
    return tuple(_bands(q, None, False, True))


def _bands(q: BoundQuiver, max_len: int | None, find_one: bool, minimal_only: bool):
    if max_len is None:
        max_len = 2 * len(q.arrows)
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    if max_len == 0:
        return []
    steps = _steps(q)
    classes: dict[tuple, BandClass] = {}
    frontier = [(x,) for x in range(2 * len(q.arrows))]
    while frontier:
        c = frontier.pop()
        if _is_band_codes(q, steps, c):
            b = _band_class(q, c)
            classes.setdefault(b.sort_key(), b)
            if find_one:
                return [b]
        if len(c) < max_len:
            used = set(c) if minimal_only else ()
            frontier.extend(e for e in _extend(steps, c) if e[-1] not in used)
    return sorted(classes.values(), key=BandClass.sort_key)


def band_exists(q: BoundQuiver, bound: int | None = None) -> bool:
    """Rep-infiniteness test: a band exists iff one of length at most
    ``2 |Q1|`` does (a minimal band supports each arrow at most once per
    direction)."""
    if bound is None:
        return _band_exists(q)
    return bool(_bands(q, bound, True, True))


@_memo
def _band_exists(q: BoundQuiver) -> bool:
    return bool(_bands(q, None, True, True))


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

    def matrix_of_path(self, path: Sequence[str]) -> list[list[int]]:
        m = self.mats[path[0]]
        for name in path[1:]:
            m = _matmul(self.mats[name], m)
        return m

    def relations_hold(self) -> bool:
        from .quiver import COMMUTATIVITY, MONOMIAL

        for r in self.quiver.relations:
            if r.kind == MONOMIAL:
                if any(x for row in self.matrix_of_path(r.path1) for x in row):
                    return False
            elif r.kind == COMMUTATIVITY:
                if self.matrix_of_path(r.path1) != self.matrix_of_path(r.path2):
                    return False
        return True

    def total_dim(self) -> int:
        return sum(self.dims.values())


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            if ai[k]:
                bk = b[k]
                for j in range(cols):
                    oi[j] += ai[k] * bk[j]
    return out


def string_module(w: StringWord) -> Representation:
    """The string module M(w): one basis vector per visit, identity maps
    along the letters of the walk."""
    if not is_string(w):
        raise WordError(f"{w.render()} is not a string")
    q = w.quiver
    verts = w.walk_vertices()
    dims = {v: 0 for v in q.vertices}
    slot = []
    for v in verts:
        slot.append(dims[v])
        dims[v] += 1
    mats = {
        a.name: [[0] * dims[a.src] for _ in range(dims[a.tgt])] for a in q.arrows
    }
    for i, letter in enumerate(w.letters):
        if letter.inverse:
            # the walk runs against the arrow: position i+1 maps to i
            mats[letter.arrow][slot[i]][slot[i + 1]] = 1
        else:
            mats[letter.arrow][slot[i + 1]][slot[i]] = 1
    rep = Representation(q, dims, mats)
    if not rep.relations_hold():
        raise WordError(f"string module of {w.render()} violates a relation")
    return rep

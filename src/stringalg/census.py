"""Brick censuses at bounded length and scans for brick bands."""

from __future__ import annotations

from dataclasses import dataclass

from .graphmaps import _is_brick_string, is_band_brick
from .quiver import (
    BoundQuiver,
    QuiverError,
    _extend,
    _step_window,
    _steps,
    validate_string_algebra,
)
from .words import BandClass, StringWord, _is_canonical, enumerate_bands


@dataclass
class CensusReport:
    """Per-length string/brick counts up to ``bound_used``, and where the
    brick walk ran out.

    The counts are bounded-length evidence only.  ``exhausted_at`` is a
    proof: when it is a length, no string brick has that length or more,
    so the counts list every string brick; it is None when the walk did
    not run out below ``bound_used``.  Band modules are not counted.
    """

    per_length: dict[int, tuple[int, int]]
    bands: list[BandClass]
    bound_used: int
    exhausted_at: int | None

    def to_json(self) -> dict:
        return {
            "per_length": {str(k): list(v) for k, v in sorted(self.per_length.items())},
            "bands": [b.render() for b in self.bands],
            "bound_used": self.bound_used,
            "exhausted_at": self.exhausted_at,
            "evidence": "bounded-length",
        }


MAX_CENSUS_LEN = 1000


def brick_census(q: BoundQuiver, max_len: int) -> CensusReport:
    """Count canonical strings and bricks per length up to ``max_len``, and
    find the length at which the brick walk runs out, if it does below
    ``max_len`` (see ``_brick_walk``).  Band classes up to ``max_len`` are
    listed separately.

    ``max_len`` is at most ``MAX_CENSUS_LEN`` (1000), checked before any
    per-length list is allocated; every census that finishes in practice
    stops far below it."""
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    if max_len > MAX_CENSUS_LEN:
        raise QuiverError(f"max_len must be at most {MAX_CENSUS_LEN}, got {max_len}")
    if not validate_string_algebra(q).holds:
        raise QuiverError("census expects a string algebra")
    strings = _string_counts(q, max_len)
    bricks, exhausted_at = _brick_walk(q, max_len)
    per_length = {l: (strings[l], bricks[l]) for l in range(max_len + 1)}
    return CensusReport(per_length, enumerate_bands(q, max_len), max_len, exhausted_at)


def _brick_walk(q: BoundQuiver, max_len: int) -> tuple[list[int], int | None]:
    """Canonical bricks of each length up to ``max_len``, and the length
    ``exhausted_at`` from which on no string is a brick, or None.

    Bricks are found by one depth-first walk over the code walks of both
    orientations, as in ``enumerate_strings``; a brick is counted when its
    string is the smaller of itself and its inverse.  Each entry carries the state
    of its string ``c`` of length ``n``, as known at its parent:

    - ``suf[i]``, the trie node of the suffix ``c[i:n-1]`` for
      ``i = 0..n-1`` (``suf[n-1]`` is the root of the vertex where the last
      code starts).  The trie, one per walk, maps ``(node, code)`` to the
      node of the word one code longer.  A node's key names the class of
      its word up to inversion: it is the handle of the class's first node.
      A root, the node of a lazy middle, is its own key.  Each node points
      to its twin, the node of its inverse word, once both exist; a root
      is its own twin;
    - ``qs`` and ``ss``, the positions ``0 < i < n`` where a quotient or a
      submodule middle may start (after an inverse or a direct code);
    - ``qi`` and ``si``, the keys of the quotient and submodule middles
      that end before ``n - 1``: shared sets, never mutated.

    The last code ``y`` turns the middles ending at ``n - 1`` into inner
    middles of ``c``: quotient ones if ``y`` is direct, submodule ones if it
    is inverse.  A string is a brick iff no quotient middle other than the
    full one has the key of a submodule middle other than the full one, the
    test of ``graphmaps._is_brick_string``.  ``qi`` and ``si`` only grow down
    the tree, so once they meet, the string and its whole subtree are
    non-bricks, and the walk skips them.

    So when no entry of some length ``l`` passes that test, no string of
    length ``l`` or more is a brick, since its first ``l`` codes would
    have passed it.  ``exhausted_at`` is one past the longest entry that
    passed, and is set only when that is below ``max_len``: entries of
    length ``max_len`` are leaves, and a leaf that is not canonical is
    skipped before the test.

    The trie holds every factor of the words it holds, so the new nodes of
    a string are those of its longest suffixes, and a new node's twin is
    one code on from the twin of its tail: the inverse of ``c[i:]`` is the
    inverse of ``c[i+1:]`` followed by ``c[i] ^ 1``.  A node takes its
    twin's key, or a key of its own when it has no twin yet.
    """
    bricks = [0] * (max_len + 1)
    bricks[0] = len(q.vertices)  # lazy modules are simple
    if not max_len:
        return bricks, None
    deepest = 0  # the length of the longest entry that passed (lazy strings: 0)
    steps = _steps(q)
    width = 2 * len(q.arrows)
    # node k has handle k * width, so (node, code) is the int handle + code;
    # nodes 0..|Q0|-1 are the roots, one per vertex in vertex order
    root = [q.vertex_index[v] * width for v in steps.ends]  # at each code's end
    child: dict[int, int] = {}
    get = child.get
    key = {k * width: k * width for k in range(len(q.vertices))}
    twin: dict[int, int | None] = dict(key)

    empty: frozenset[int] = frozenset()
    frontier: list = [((x,), (root[x ^ 1],), (), (), empty, empty) for x in range(width)]
    while frontier:
        c, suf, qs, ss, qi, si = frontier.pop()
        n = len(c)
        canonical = _is_canonical(c)
        leaf = n == max_len
        if leaf and not canonical:
            continue
        y = c[-1]
        # the middles ending at n - 1, (0, n - 1) among them, are now inner
        if y & 1:
            new = {key[suf[i]] for i in ss}
            new.add(key[suf[0]])
            if not qi.isdisjoint(new):
                continue
            si = si | new
            qs += (n,)
        else:
            new = {key[suf[i]] for i in qs}
            new.add(key[suf[0]])
            if not si.isdisjoint(new):
                continue
            qi = qi | new
            ss += (n,)
        if n > deepest:
            deepest = n
        t = [get(h + y) for h in suf]
        t.append(root[y])
        if leaf:
            t[0] = 0  # the full word is a middle of no counted string
        # the new nodes are those of the longest suffixes; shortest first
        for i in range(leaf + t.count(None) - 1, leaf - 1, -1):
            h = t[i] = child[suf[i] + y] = len(key) * width
            tw = twin[t[i + 1]]
            if tw is not None:
                tw = get(tw + (c[i] ^ 1))
            twin[h] = tw
            if tw is None:
                key[h] = h
            else:
                key[h] = key[tw]
                twin[tw] = h
        if canonical:
            qe = {key[t[i]] for i in qs}
            se = {key[t[i]] for i in ss}
            # qe, se never meet: qs, ss are disjoint, so lengths differ, and no word node keys a root
            bricks[n] += qe.isdisjoint(si) and se.isdisjoint(qi)
        if not leaf:
            frontier += [(e, t, qs, ss, qi, si) for e in _extend(steps, c)]
    return bricks, deepest + 1 if deepest + 1 < max_len else None


def _string_counts(q: BoundQuiver, max_len: int) -> list[int]:
    """Canonical strings of each length up to ``max_len``: half the code
    walks that pass the step rule, counted per window."""
    strings = [len(q.vertices)] + [0] * max_len
    steps = _steps(q)
    moves: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    layer = {(x,): 1 for x in range(2 * len(q.arrows))}  # walks of length n by window
    for n in range(1, max_len + 1):
        if n > 1:
            grown: dict[tuple[int, ...], int] = {}
            for s, k in layer.items():
                if s not in moves:
                    moves[s] = _step_window(steps, s)
                for t in moves[s]:
                    grown[t] = grown.get(t, 0) + k
            layer = grown
        strings[n] = sum(layer.values()) // 2
    return strings


def _check_m_max(m_max: int) -> None:
    # an empty range of exponents would make every word pass
    if m_max < 1:
        raise QuiverError(f"m_max must be at least 1, got {m_max}")


def brick_rotation(b: BandClass, m_max: int) -> StringWord | None:
    """A rotation of the class whose powers up to ``m_max`` are all bricks.

    Rotations of one band give non-isomorphic string modules, so the brick
    property must be searched over the class, not read off one
    representative.
    """
    _check_m_max(m_max)
    rep = b.representative
    for base in (rep, rep.inverse()):
        for k in range(len(rep)):
            r = base.rotate(k)
            if all(_is_brick_string(r.power(m)) for m in range(1, m_max + 1)):
                return r
    return None


def unique_brick_band_scan(q: BoundQuiver, max_band_len: int) -> list[BandClass]:
    """The minimal band classes up to ``max_band_len`` that ``is_band_brick`` accepts."""
    if not validate_string_algebra(q).holds:
        raise QuiverError("scan expects a string algebra")
    return [b for b in enumerate_bands(q, max_band_len) if is_band_brick(b)]

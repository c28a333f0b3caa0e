"""Brick censuses at bounded length and scans for brick bands."""

from __future__ import annotations

from dataclasses import dataclass

from .graphmaps import is_band_brick
from .quiver import (
    BoundQuiver,
    QuiverError,
    _step_ok,
    _step_window,
    _steps,
    validate_string_algebra,
)
from .words import BandClass, _check_max_len, _is_canonical, enumerate_bands


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


def brick_census(q: BoundQuiver, max_len: int) -> CensusReport:
    """Count canonical strings and bricks per length up to ``max_len``, and
    find the length at which the brick walk runs out, if it does below
    ``max_len`` (see ``_brick_walk``).  Band classes up to ``max_len`` are
    listed separately.

    ``max_len`` is at most ``MAX_CENSUS_LEN`` (1000), checked before any
    per-length list is allocated; every census that finishes in practice
    stops far below it."""
    _check_max_len(max_len)
    if not validate_string_algebra(q).holds:
        raise QuiverError("census expects a string algebra")
    strings = _string_counts(q, max_len)
    bricks, exhausted_at = _brick_walk(q, max_len)
    per_length = {l: (strings[l], bricks[l]) for l in range(max_len + 1)}
    return CensusReport(per_length, enumerate_bands(q, max_len), max_len, exhausted_at)


def _brick_walk(q: BoundQuiver, max_len: int) -> tuple[list[int], int | None]:
    """Canonical bricks of each length up to ``max_len``, and the length
    ``exhausted_at`` from which on no string is a brick, or None.

    Bricks are found by one iterative depth-first walk over the code walks
    of both orientations, as in ``enumerate_strings``; a brick is counted
    when its string is the smaller of itself and its inverse.  An entry is
    a string ``c`` of length ``n`` and the node ``p`` of ``c[:-1]`` in a
    trie of words, one per walk, that maps ``(node, code)`` to the node of
    the word one code longer; its roots are the lazy words.  The node of a
    word ``w`` keeps a key naming its class up to inversion (the number of
    the class's first node), its ``twin``, the node of the inverse word once
    both exist (a root is its own key and twin), its ``link``, the node of
    ``w[1:]`` (the root where ``w`` ends if ``|w| = 1``, None at a root),
    and ``qm``/``sm``, the keys of the suffixes ``w[i:]``, ``1 <= i <= |w|``,
    that follow an inverse/a direct code.  If ``w[0]`` is inverse, ``qm`` is
    the link's ``qm`` plus the link's key and ``sm`` is the link's ``sm``;
    if it is direct, the other way round.

    ``qi``/``si``, one pair of sets for the whole walk, hold the keys of
    the quotient/submodule middles of ``c`` that end before its last code
    ``y``.  A quotient middle starts at 0 or after an inverse code and ends
    before a direct one; a submodule middle starts at 0 or after a direct
    code and ends before an inverse one.  So an inverse ``y`` turns exactly
    ``c[:n-1]`` and its suffixes that ``sm[p]`` keys into submodule
    middles, with the keys ``{key[p]} | sm[p]``.  A direct ``y``
    does the same with ``qm[p]`` and quotient middles.  A string is a brick
    iff no quotient middle but the full one has the key of a submodule
    middle but the full one (``graphmaps._is_brick_string``); besides those
    in ``qi``/``si``, its middles are the suffixes that its own node's
    ``qm``/``sm`` key.  ``qi`` and ``si`` only grow down the tree, so once
    they meet, the string and its whole subtree are non-bricks, and the
    walk skips them.  An entry that passes adds its new keys and pushes an
    undo marker under its children that removes them again.

    So when no entry of some length ``l`` passes that test, no string of
    length ``l`` or more is a brick, since its first ``l`` codes would
    have passed it.  ``exhausted_at`` is one past the longest entry that
    passed, and is set only when that is below ``max_len``: entries of
    length ``max_len`` are leaves, and a leaf that is not canonical is
    skipped before the test.

    The trie holds every factor of its words, so when ``p`` has no child
    ``y`` the missing nodes are those of the longest suffixes of ``c``,
    found by following links from ``p`` and added shortest first.  A new
    node's twin is one code on from the twin of its link: the inverse of
    ``c[i:]`` is the inverse of ``c[i+1:]`` followed by ``c[i] ^ 1``.  A
    node takes its twin's key, or a key of its own when it has no twin
    yet.  Each link followed adds a node, so an entry takes O(1) Python
    steps besides its new nodes; only set and tuple operations grow with
    ``n``.
    """
    bricks = [0] * (max_len + 1)
    bricks[0] = len(q.vertices)  # lazy modules are simple
    if not max_len:
        return bricks, None
    deepest = 0  # the length of the longest entry that passed (lazy strings: 0)
    steps = _steps(q)
    succ, lengths = steps.succ, steps.lengths
    width = 2 * len(q.arrows)
    # nodes are numbered, 0..|Q0|-1 being the roots in vertex order;
    # child maps node * width + code to the node one code longer
    root = [q.vertex_index[v] for v in steps.ends]  # at each code's end
    child: dict[int, int] = {}
    get = child.get
    key = list(range(len(q.vertices)))
    twin: list[int | None] = list(key)
    link: list[int | None] = [None] * len(key)
    qm: list[tuple[int, ...]] = [()] * len(key)
    sm, qi, si = list(qm), set(), set()

    stack: list = [((x,), root[x ^ 1]) for x in range(width)]
    pop = stack.pop
    while stack:
        c, p = pop()
        if p.__class__ is set:  # an undo marker: the keys c leave the set p
            p -= c
            continue
        n = len(c)
        if lengths and not _step_ok(steps, c, n - 1):
            continue  # children are pushed by succ: check longer relations here
        canonical = _is_canonical(c)
        leaf = n == max_len
        if leaf and not canonical:
            continue
        y = c[-1]
        other, side, m = (qi, si, sm) if y & 1 else (si, qi, qm)
        kp, mp = key[p], m[p]  # the middles ending at n - 1
        if kp in other or not other.isdisjoint(mp):
            continue
        added = {kp, *mp}
        added -= side
        side |= added
        if n > deepest:
            deepest = n
        h = get(p * width + y)
        if h is None:
            miss = []  # miss[i] is the node of c[i:n-1]
            u = p
            while h is None:
                miss.append(u)
                u = link[u]
                h = root[y] if u is None else get(u * width + y)
            for i in range(len(miss) - 1, -1, -1):
                x, tail = c[i], h
                h = child[miss[i] * width + y] = len(key)
                tw = twin[tail]
                tw = None if tw is None else get(tw * width + (x ^ 1))
                twin.append(tw)
                key.append(h if tw is None else key[tw])
                if tw is not None:
                    twin[tw] = h
                link.append(tail)
                k = (key[tail],)
                qm.append(qm[tail] + k if x & 1 else qm[tail])
                sm.append(sm[tail] if x & 1 else sm[tail] + k)
        if canonical:
            # qm[h], sm[h] never meet: their suffixes differ in length
            bricks[n] += si.isdisjoint(qm[h]) and qi.isdisjoint(sm[h])
        if leaf:
            side -= added
        else:
            if added:
                stack.append((added, side))
            stack += [(c + (z,), h) for z in succ[y]]
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


def unique_brick_band_scan(q: BoundQuiver, max_band_len: int) -> list[BandClass]:
    """The minimal band classes up to ``max_band_len`` that ``is_band_brick`` accepts."""
    if not validate_string_algebra(q).holds:
        raise QuiverError("scan expects a string algebra")
    return [b for b in enumerate_bands(q, max_band_len) if is_band_brick(b)]

"""Seeded benchmark inputs and the reference answers they are checked against.

Nothing here calls the program: the functions read the public attributes of
``BoundQuiver`` objects (``vertices``, ``arrows``, ``relations``) and work on
plain tuples.  Reference answers come from the test suite's pinned tables,
from the class each parametric family is built as, and from an independent
string counter.
"""

from __future__ import annotations

import random

FINITE, INFINITE = "Finite", "Infinite"

# Expected tau-tilting verdict of every fixture.  A relabelled copy has the
# verdict of its source.
CORPUS_VERDICTS = {
    # pinned by tests/test_classify.py::test_tau_verdicts
    "lambda1": FINITE,
    "lambda3": INFINITE,
    "lambda4": INFINITE,
    "double_a1": INFINITE,
    "double_a2": FINITE,
    "double_a3": INFINITE,
    "zero_bar_gb": INFINITE,
    "loops_barbell": INFINITE,
    "barbell_a9": INFINITE,
    "bongartz_a_1_1": INFINITE,
    "bongartz_ag_1_1": FINITE,
    "bongartz_e_1_1_1": FINITE,
    "linear_a5": FINITE,
    # acceptance criterion 6 (wind wheel)
    "windwheel_a12": FINITE,
    # built by a parametric family; see family_verdict
    "double_a4": FINITE,
    "bongartz_a_2_1": INFINITE,
    "bongartz_ag_2_1": FINITE,
    "bongartz_e_2_1_2": FINITE,
    # hereditary of type A~ (an acyclic cycle without relations) is
    # representation-infinite, and a hereditary algebra is tau-tilting finite
    # only when it is representation-finite
    "a9": INFINITE,
    "atilde5": INFINITE,
    # tau-tilting finiteness passes to quotients, so an algebra with a
    # tau-tilting infinite quotient is tau-tilting infinite: killing vertex p
    # leaves atilde5, killing d0..d3 leaves the hereditary A~3 cycle c0..c3
    "atilde5_pendant": INFINITE,
    "disjoint_bands": INFINITE,
    # killing vertex 1 gives the same quotient as for lambda3: a gentle
    # algebra that keeps lambda3's band (vertex 1 has degree one, so no band
    # passes through it)
    "lambda2": INFINITE,
    # gentle algebras with a band; a gentle algebra is tau-tilting finite
    # exactly when it is representation-finite (acceptance criterion 8
    # reduces big_gentle's bands)
    "gb22": INFINITE,
    "big_gentle": INFINITE,
    # second barification stage of a9: a generalized barbell with a bar of
    # length zero, which carries an infinite brick family
    "barbell_a9b": INFINITE,
}


def family_verdict(family: str, params: tuple[int, ...]) -> str:
    """The verdict of the class each family is built as."""
    if family == "double_cycle":
        return INFINITE if params[0] % 2 else FINITE
    if family == "bongartz_cycle":
        return INFINITE
    if family in ("bongartz_glued", "bongartz_e"):
        return FINITE
    raise ValueError(f"unknown family {family!r}")


def _mirrored(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``p`` and ``p`` with its first two entries swapped: the same quiver
    with its two paths or cycles exchanged (for bongartz_e, the opposite
    quiver), so the verdict stays and the cost stays about the same."""
    return sorted({p, (p[1], p[0]) + p[2:]})


# Family draws of one verdict round.  Each slot fixes a size and lists its
# orientations; round r gives slot i orientation (r + i) modulo their
# number, so a round's mix does not hang on the seed and every round costs
# about the same.  Sizes stay far below windwheel_a12, the costliest
# fixture: double_cycle(6) and bongartz_e with six arrows or more cost
# seconds each.
FAMILY_SLOTS: list[tuple[str, list[tuple[int, ...]]]] = (
    [("double_cycle", [(n,)]) for n in (1, 2, 3, 4, 5, 7, 9)]
    + [("bongartz_cycle", _mirrored(p)) for p in ((1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 4))]
    + [("bongartz_glued", _mirrored(p)) for p in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (4, 4))]
    + [("bongartz_e", _mirrored(p)) for p in ((1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 2, 1))]
    # fifteen draws of one size, so that about twenty ops per round cost
    # 0.25 to 0.5 s and the 90th percentile falls in the middle of them, not
    # at their edge or into a gap
    + [("bongartz_e", _mirrored((2, 1, 2)))] * 15
    # nine draws each of seven sizes that cost 20 to 45 ms, about the median
    # of the ops above: with these, some 80 ops of a round lie close to the
    # median, so one op's cost moving with its labels hardly moves it.  Seven
    # is odd, so the nine copies of a size alternate between orientations.
    + [
        ("bongartz_cycle", _mirrored((4, 3))),
        ("bongartz_cycle", _mirrored((5, 3))),
        ("bongartz_cycle", _mirrored((4, 2))),
        ("double_cycle", [(5,)]),
        ("bongartz_glued", [(2, 2)]),
        ("bongartz_glued", _mirrored((3, 2))),
        ("bongartz_e", [(1, 1, 1)]),
    ] * 9
)


def family_candidates() -> list[tuple[str, tuple[int, ...]]]:
    """Every (family, parameters) a verdict round may draw."""
    return sorted({(fam, p) for fam, cands in FAMILY_SLOTS for p in cands})


def draw_families(r: int) -> list[tuple[str, tuple[int, ...]]]:
    return [(fam, cands[(r + i) % len(cands)]) for i, (fam, cands) in enumerate(FAMILY_SLOTS)]


# Census draws of one round: (count, candidates).  Candidates of one tier
# have census sizes and costs within a small factor of each other.
CENSUS_TIERS: list[tuple[int, list[tuple[str, int]]]] = [
    # about 100-150 strings
    (20, [("a9", 9), ("lambda2", 9), ("lambda3", 9), ("lambda4", 8), ("disjoint_bands", 9),
          ("double_a3", 12), ("double_a4", 10), ("gb22", 8), ("loops_barbell", 8),
          ("windwheel_a12", 8), ("zero_bar_gb", 7), ("barbell_a9", 8),
          ("bongartz_e_2_1_2", 10), ("atilde5_pendant", 13)]),
    # about 270-330 strings
    (10, [("barbell_a9", 13), ("barbell_a9b", 9), ("gb22", 12), ("lambda4", 13),
          ("loops_barbell", 11), ("windwheel_a12", 13), ("zero_bar_gb", 10)]),
    # about 500-900 strings
    (6, [("barbell_a9b", 12), ("gb22", 15), ("loops_barbell", 14), ("zero_bar_gb", 12),
         ("lambda4", 16), ("windwheel_a12", 18), ("barbell_a9", 17)]),
    # big_gentle at about 10^3 and 3 * 10^3 strings, in every round
    (1, [("big_gentle", 8)]),
    (1, [("big_gentle", 12)]),
]


def census_candidates() -> list[tuple[str, int]]:
    return sorted({c for _, cands in CENSUS_TIERS for c in cands})


def census_orders(rng: random.Random) -> list[list[tuple[str, int]]]:
    """A seeded order of each tier's candidates."""
    return [rng.sample(cands, len(cands)) for _, cands in CENSUS_TIERS]


def draw_census(orders: list[list[tuple[str, int]]], r: int) -> list[tuple[str, int]]:
    """Census draws of round ``r``: each tier deals its next ``count``
    candidates in its seeded order, so every candidate of a tier comes up
    equally often over the rounds and the mix of a run does not hang on the
    seed."""
    return [
        order[(r * count + i) % len(order)]
        for (count, _), order in zip(CENSUS_TIERS, orders)
        for i in range(count)
    ]


def relabel(q, rng: random.Random, name: str) -> str:
    """Quiver-file text of ``q`` with vertices and arrows renamed and every
    declaration list shuffled."""
    verts = list(q.vertices)
    rng.shuffle(verts)
    vname = {v: f"v{i}" for i, v in enumerate(verts)}
    arrows = list(q.arrows)
    rng.shuffle(arrows)
    aname = {a.name: f"a{i}" for i, a in enumerate(arrows)}
    order = list(q.vertices)
    rng.shuffle(order)
    arrow_lines = [f"arrow {aname[a.name]}: {vname[a.src]} -> {vname[a.tgt]}" for a in q.arrows]
    rng.shuffle(arrow_lines)

    def path(p) -> str:
        return " ".join(aname[x] for x in p)

    rel_lines = [
        f"comrel {path(r.path1)} = {path(r.path2)}" if r.path2 else f"rel {path(r.path1)}"
        for r in q.relations
    ]
    rng.shuffle(rel_lines)
    lines = [f"quiver {name}", "vertices: " + " ".join(vname[v] for v in order)]
    return "\n".join(lines + arrow_lines + rel_lines) + "\n"


def string_walks(q, max_len: int) -> list[tuple[tuple[str, bool], ...]]:
    """Every walk of length 1..max_len that satisfies the string axioms, as
    (arrow, inverse) letters in traversal order.

    Each string of positive length appears twice, once per direction: a
    string equal to its own inverse would have a letter next to its own
    inverse.  Only monomial relations are supported.
    """
    if any(r.path2 for r in q.relations):
        raise ValueError(f"{q.name}: the walk counter supports monomial relations only")
    zero = [tuple(r.path1) for r in q.relations]
    leaving: dict[str, list[tuple[str, bool, str]]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        leaving[a.src].append((a.name, False, a.tgt))
        leaving[a.tgt].append((a.name, True, a.src))
    walks = []
    # stack entries: letters so far, end vertex, current one-direction run as
    # a path in arrow order
    stack = [((letter[:2],), letter[2], (letter[0],)) for v in q.vertices for letter in leaving[v]]
    while stack:
        letters, end, run = stack.pop()
        walks.append(letters)
        if len(letters) == max_len:
            continue
        last_arrow, last_inv = letters[-1]
        for arrow, inv, nxt in leaving[end]:
            if arrow == last_arrow and inv != last_inv:
                continue  # (S1)
            if inv != last_inv:
                new_run = (arrow,)
            elif inv:
                new_run = (arrow,) + run  # walking backwards prepends to the path
            else:
                new_run = run + (arrow,)
            if any(_has_factor(new_run, z, at_start=inv) for z in zero):
                continue  # (S2)
            stack.append((letters + ((arrow, inv),), nxt, new_run))
    return walks


def _has_factor(path: tuple[str, ...], z: tuple[str, ...], at_start: bool) -> bool:
    # only factors touching the newly added arrow are new
    if len(z) > len(path):
        return False
    return path[: len(z)] == z if at_start else path[-len(z) :] == z


def string_counts(q, walks, max_len: int) -> dict[int, int]:
    """Number of strings of each length 0..max_len, up to inversion, from
    the walks that ``string_walks(q, max_len)`` returns."""
    counts = {length: 0 for length in range(max_len + 1)}
    for w in walks:
        counts[len(w)] += 1
    for length in range(1, max_len + 1):
        counts[length] //= 2
    counts[0] = len(q.vertices)
    return counts


def word_text(letters: tuple[tuple[str, bool], ...]) -> str:
    """Printed form of a walk: right-to-left, ``-`` marks an inverse letter."""
    return " ".join(a + ("-" if inv else "") for a, inv in reversed(letters))

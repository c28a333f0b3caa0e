"""The step table is the one rule for which walks survive the relations.
Band existence, finite dimension and vanishing paths all read it; here each
is checked against an independent computation, on the fixture corpus and on
random string algebras."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stringalg.quiver import (
    COMMUTATIVITY,
    MONOMIAL,
    Arrow,
    BoundQuiver,
    Relation,
    is_finite_dimensional,
    nodes,
    parse_quiver,
    validate_special_biserial,
    validate_string_algebra,
)
from stringalg.words import band_exists, enumerate_bands


class _Draws:
    """``random.Random``'s ``randint`` and ``choice`` over a Hypothesis ``draw``."""

    def __init__(self, draw):
        self.draw = draw

    def randint(self, a: int, b: int) -> int:
        return self.draw(st.integers(min_value=a, max_value=b))

    def choice(self, xs):
        return self.draw(st.sampled_from(xs))


def random_string_quiver(rng, max_vertices: int = 7, special: bool = True) -> BoundQuiver:
    """A connected quiver with in- and out-degree at most 2 and monomial
    relations that make it a string algebra, possibly infinite dimensional:
    the largest component of a random one.  ``rng`` is a ``random.Random``
    or the ``_Draws`` of a Hypothesis strategy.

    At an arrow with two successors one or both compositions die; a lone
    composition dies with chance 0.3; of the live predecessors of an arrow
    one at most survives; each remaining length-3 path dies with chance
    0.4.  With ``special`` false, at most one of two compositions dies and
    no predecessor is pruned, so the quiver is mostly not special biserial.
    """
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    out_deg, in_deg = [0] * n, [0] * n
    arrows = []
    for _ in range(rng.randint(n, 2 * n)):
        s = rng.randint(0, n - 1)
        t = rng.randint(0, n - 1)
        if out_deg[s] < 2 and in_deg[t] < 2:
            out_deg[s] += 1
            in_deg[t] += 1
            arrows.append(Arrow(f"a{len(arrows)}", vertices[s], vertices[t]))
    after = {a.name: [b.name for b in arrows if b.src == a.tgt] for a in arrows}
    dead = set()
    for a in arrows:
        succ = after[a.name]
        if len(succ) == 2:
            kills = [(0,), (1,), (0, 1)] if special else [(), (0,), (1,)]
            dead.update((a.name, succ[i]) for i in rng.choice(kills))
        elif succ and rng.randint(0, 9) < 3:
            dead.add((a.name, succ[0]))
    if special:
        for b in arrows:
            live = [a.name for a in arrows if a.tgt == b.src and (a.name, b.name) not in dead]
            dead.update((x, b.name) for x in live[1:])
    relations = [Relation(MONOMIAL, p) for p in sorted(dead)]
    for a in arrows:
        for b in after[a.name]:
            for c in after[b]:
                if (a.name, b) not in dead and (b, c) not in dead and rng.randint(0, 9) < 4:
                    relations.append(Relation(MONOMIAL, (a.name, b, c)))
    q = BoundQuiver("random", vertices, arrows, relations)
    return max(q.components(), key=lambda c: len(c.arrows))


def random_brauer_graph(rng, max_vertices: int = 6) -> tuple[list, list]:
    """A simple connected graph on 2 to ``max_vertices`` vertices, as
    ``(edges, orders)``: a random spanning tree plus up to two extra edges,
    and at each vertex a random cyclic order of its edge numbers."""
    n = rng.randint(2, max_vertices)
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 2)):
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in edges:
            edges.append((a, b))
    orders = [[i for i, e in enumerate(edges) if v in e] for v in range(n)]
    for order in orders:
        rng.shuffle(order)
    return edges, orders


def brauer_graph_algebra(edges: list[tuple[int, int]], orders: list[list[int]]) -> BoundQuiver:
    """The Brauer graph algebra of multiplicity 1 of a simple connected graph
    with ``edges``; ``orders[v]`` is the cyclic order of the edge numbers at
    the graph vertex ``v``, and a vertex of degree 1 is truncated.

    Its quiver has a vertex ``e<i>`` per edge and, at each graph vertex of
    degree 2 or more, a cycle of arrows through its edges in their order.
    With ``C_v(e)`` the cycle at ``v`` from ``e`` back to ``e``, the
    relations are: ``a b = 0`` for arrows ``a``, ``b`` of different cycles;
    ``C_v(e) = C_w(e)`` for an edge ``e = vw`` with both ends of degree 2 or
    more; ``C_w(e) a = 0`` for an edge ``e = vw`` with ``v`` of degree 1,
    where ``a`` is the first arrow of ``C_w(e)``.
    """
    cycle = {}  # (v, e) -> the arrows of C_v(e)
    arrows = []
    for v, order in enumerate(orders):
        if len(order) < 2:
            continue
        names = [f"c{v}_{j}" for j in range(len(order))]
        arrows += [Arrow(x, f"e{e}", f"e{f}") for x, e, f in zip(names, order, order[1:] + order[:1])]
        cycle.update(((v, e), tuple(names[j:] + names[:j])) for j, e in enumerate(order))
    relations = []
    for (v, e), path in cycle.items():
        w = sum(edges[e]) - v
        if (w, e) not in cycle:
            relations.append(Relation(MONOMIAL, path + path[:1]))
            continue
        relations.append(Relation(MONOMIAL, (cycle[w, e][-1], path[0])))  # into e around w, out around v
        if v < w:
            relations.append(Relation(COMMUTATIVITY, path, cycle[w, e]))
    return BoundQuiver("brauer", [f"e{i}" for i in range(len(edges))], arrows, relations)


@st.composite
def special_quivers(draw, max_vertices: int = 7) -> BoundQuiver:
    return random_string_quiver(_Draws(draw), max_vertices)


def _vanishes(q: BoundQuiver, path: tuple[str, ...]) -> bool:
    """Whether some monomial relation of ``q`` is a factor of ``path``."""
    return any(
        r.kind == MONOMIAL and path[i : i + len(r.path1)] == r.path1
        for r in q.relations
        for i in range(len(path))
    )


def _paths(q: BoundQuiver, max_len: int) -> list[tuple[str, ...]]:
    """Every composable path of length 1 to ``max_len``, zero or not."""
    out = []
    frontier = [(a.name,) for a in q.arrows]
    while frontier:
        p = frontier.pop()
        out.append(p)
        if len(p) < max_len:
            tgt = q.arrow_by_name[p[-1]].tgt
            frontier.extend(p + (b.name,) for b in q.outgoing(tgt))
    return out


def _finite_by_composition_graph(q: BoundQuiver) -> bool:
    """Finite dimension by the window graph over arrow names: a state is a
    nonzero path shorter than the longest relation (at least one arrow), an
    edge appends an arrow keeping the window nonzero, and a cycle means
    arbitrarily long nonzero paths."""
    w = max(max((len(r.path1) for r in q.relations if r.kind == MONOMIAL), default=0) - 1, 1)
    graph = {}
    stack = [(a.name,) for a in q.arrows]
    seen = set(stack)
    while stack:
        state = stack.pop()
        graph[state] = []
        for b in q.outgoing(q.arrow_by_name[state[-1]].tgt):
            ext = state + (b.name,)
            if _vanishes(q, ext):
                continue
            nxt = ext[-w:]
            graph[state].append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    colour = {}

    def cyclic(node) -> bool:
        colour[node] = 1
        for nxt in graph[node]:
            if colour.get(nxt) == 1 or (nxt not in colour and cyclic(nxt)):
                return True
        colour[node] = 2
        return False

    return not any(cyclic(s) for s in graph if s not in colour)


def _special_biserial_witnesses(q: BoundQuiver) -> list[str]:
    """The witnesses of ``validate_special_biserial``, each composition
    decided by ``_vanishes``."""
    witnesses = []
    for v in q.vertices:
        for kind, arrows in (("in", q.incoming(v)), ("out", q.outgoing(v))):
            if len(arrows) > 2:
                witnesses.append(f"vertex {v}: {kind}-degree {len(arrows)} > 2")
    for a in q.arrows:
        after = [b.name for b in q.outgoing(a.tgt) if not _vanishes(q, (a.name, b.name))]
        if len(after) > 1:
            witnesses.append(f"arrow {a.name}: nonzero compositions with {after}")
        before = [b.name for b in q.incoming(a.src) if not _vanishes(q, (b.name, a.name))]
        if len(before) > 1:
            witnesses.append(f"arrow {a.name}: nonzero compositions after {before}")
    return witnesses


def _nodes(q: BoundQuiver) -> frozenset[str]:
    """The vertices with arrows in and out and every path through them zero."""
    return frozenset(
        v
        for v in q.vertices
        if q.incoming(v)
        and q.outgoing(v)
        and all(_vanishes(q, (a.name, b.name)) for a in q.incoming(v) for b in q.outgoing(v))
    )


def _check(q: BoundQuiver) -> None:
    assert is_finite_dimensional(q) == _finite_by_composition_graph(q), q.to_text()
    for p in _paths(q, 5):
        assert q.path_in_ideal(p) == _vanishes(q, p), (q.to_text(), p)
    assert nodes(q) == _nodes(q), q.to_text()
    assert list(validate_special_biserial(q).witnesses) == _special_biserial_witnesses(q), q.to_text()
    if validate_string_algebra(q).holds and is_finite_dimensional(q):
        assert band_exists(q) == bool(enumerate_bands(q)), q.to_text()


def test_step_table_agrees_with_references_on_the_corpus(corpus):
    for q in corpus.values():
        _check(q)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(special_quivers())
def test_step_table_agrees_with_references_on_random_quivers(q):
    assert validate_string_algebra(q).holds, q.to_text()
    _check(q)


def test_step_table_agrees_with_references_on_random_biserial_quivers():
    # the special biserial witnesses name the live compositions, which the
    # string-algebra samples above never have
    rng = random.Random(5)
    failing = 0
    for _ in range(300):
        q = random_string_quiver(rng, special=False)
        _check(q)
        failing += not validate_special_biserial(q).holds
    assert failing == 180


@pytest.mark.parametrize(
    "text, witnesses, node_set",
    [
        (
            "vertices: x y z\narrow a: x -> y\narrow b: y -> z\narrow c: y -> z\n",
            ["arrow a: nonzero compositions with ['b', 'c']"],
            set(),
        ),
        (
            "vertices: x y z\narrow a: x -> y\narrow b: x -> y\narrow c: y -> z\n",
            ["arrow c: nonzero compositions after ['a', 'b']"],
            set(),
        ),
        ("vertices: x y z\narrow a: x -> y\narrow b: y -> z\nrel a b\n", [], {"y"}),
        (
            "vertices: x y z\narrow a: x -> y\narrow b: y -> z\narrow c: y -> z\nrel a b\n",
            [],
            set(),
        ),
        (
            "vertices: x y\narrow a: x -> y\narrow b: x -> y\narrow c: x -> y\n",
            ["vertex x: out-degree 3 > 2", "vertex y: in-degree 3 > 2"],
            set(),
        ),
    ],
    ids=["two-successors", "two-predecessors", "node", "one-live-successor", "degree-3"],
)
def test_special_biserial_and_node_checks_on_small_cases(text, witnesses, node_set):
    q = parse_quiver("quiver small\n" + text)
    _check(q)
    assert list(validate_special_biserial(q).witnesses) == witnesses
    assert nodes(q) == node_set


@pytest.mark.parametrize(
    "text, finite, band",
    [
        ("arrow a: x -> x\n", False, True),
        ("arrow a: x -> x\nrel a a a\n", True, False),
        ("arrow a: x -> y\narrow b: x -> y\n", True, True),
    ],
    ids=["free-loop", "cubic-loop", "kronecker"],
)
def test_small_cases(text, finite, band):
    vertices = "vertices: x y\n" if "y" in text else "vertices: x\n"
    q = parse_quiver("quiver small\n" + vertices + text)
    assert is_finite_dimensional(q) is finite
    assert band_exists(q) is band

import itertools
import random

import pytest

from stringalg.fixtures import fixture_names, load_fixture
from stringalg.quiver import (
    COMMUTATIVITY,
    MONOMIAL,
    Arrow,
    BoundQuiver,
    Relation,
    nodes,
    parse_quiver,
    validate_gentle,
    validate_string_algebra,
)
from stringalg.transforms import (
    TransformError,
    barify,
    fully_reduce,
    glue,
    quivers_isomorphic,
    reduce,
    resolve_nodes,
    trim,
    weak_reduce,
)
from stringalg.words import band_exists, enumerate_bands, is_band, word_from_text


def test_resolve_double_cycle_gives_hereditary_hexagon(corpus):
    (out,), trace = resolve_nodes(corpus["double_a2"])
    assert len(out.vertices) == 6
    assert len(out.arrows) == 6
    assert not out.relations
    assert not nodes(out)
    assert trace[0]["op"] == "resolve-nodes"


def test_resolve_node_free_is_identity(corpus):
    q = corpus["atilde5"]
    (out,), _ = resolve_nodes(q)
    assert out == q


def test_resolve_can_disconnect(corpus):
    out, _ = resolve_nodes(corpus["double_a1"])
    assert len(out) == 2 and all(c.is_connected() for c in out)


def test_glue_preconditions(corpus):
    q = corpus["atilde5"]  # source 0, sink 3? actually sink is 5 and 3? check 3
    with pytest.raises(TransformError):
        glue(q, "1", "0")  # 1 is not a sink
    with pytest.raises(TransformError):
        glue(q, "5", "1")  # 1 is not a source


def test_glue_then_resolve_round_trip():
    a = load_fixture("bongartz_a_1_1")
    g = glue(a, "y", "x")
    assert nodes(g) == {"y~x"}
    (back,), _ = resolve_nodes(g)
    assert quivers_isomorphic(back, a)


def test_glue_barbell_then_resolve_restores_it():
    b = load_fixture("barbell_a9")
    g = glue(b, "4", "0")
    assert nodes(g) == {"4~0"}
    (back,), _ = resolve_nodes(g)
    assert quivers_isomorphic(back, b)


def test_barify_first_stage_structure():
    a9 = load_fixture("a9")
    v1 = word_from_text(a9, "delta alpha2 alpha1- alpha")
    v2 = word_from_text(a9, "gamma- beta2 beta1- beta-")
    out = barify(a9, v1, v2)
    assert len(out.vertices) == 7
    assert len(out.arrows) == 8
    assert {r.path1 for r in out.relations} == {("alpha", "beta"), ("gamma", "delta")}
    bar_arrows = {"alpha1~beta1", "alpha2~beta2"}
    assert bar_arrows <= {x.name for x in out.arrows}
    assert validate_string_algebra(out).holds


def test_barify_second_stage_zero_length_bar():
    q = load_fixture("barbell_a9")
    out = barify(q, word_from_text(q, "alpha eps-"), word_from_text(q, "mu- delta"))
    assert len(out.vertices) == 6
    assert {r.path1 for r in out.relations} == {
        ("alpha", "beta"),
        ("gamma", "delta"),
        ("delta", "alpha"),
        ("mu", "eps"),
    }


def test_barify_rejects_overlapping_interiors():
    a9 = load_fixture("a9")
    v1 = word_from_text(a9, "delta alpha2 alpha1- alpha")
    with pytest.raises(TransformError):
        barify(a9, v1, v1)


def test_trim_big_example(big_gentle):
    comps, trace = trim(big_gentle)
    removed = {"vertices": ["b", "d", "e"]}
    assert trace[0] == {"op": "remove-nodes", "params": removed, "result": trace[0]["result"]}
    assert len(comps) == 3
    vertex_sets = [set(c.vertices) for c in comps]
    assert {"1", "2", "3", "4", "5", "6"} in vertex_sets
    assert {str(i) for i in range(7, 21)} in vertex_sets
    assert {"21", "22", "23", "24"} in vertex_sets
    for c in comps:
        assert validate_gentle(c).holds
        assert not nodes(c)
        assert all(c.degree(v) != 1 for v in c.vertices)


def test_trim_fixpoint(corpus):
    comps, _ = trim(corpus["gb22"])
    assert comps == [corpus["gb22"]]


def _serial_barbell(big_gentle):
    comps, _ = trim(big_gentle)
    am = next(c for c in comps if "8" in c.vertices and "20" in c.vertices)
    middle = {str(i) for i in range(8, 18)}
    for b in enumerate_bands(am, 2 * len(am.arrows)):
        if set(b.representative.walk_vertices()) == middle:
            return am, b
    raise AssertionError("middle band not found")


def test_weak_reduce_middle_component(big_gentle):
    am, band = _serial_barbell(big_gentle)
    out = weak_reduce(am, band)
    assert len(out.vertices) == 10
    assert {r.path1 for r in out.relations} == {("b5", "b2"), ("b12", "b9")}


def test_weak_reduce_identity_when_band_visits_all(corpus):
    q = corpus["atilde5"]
    band = enumerate_bands(q, 12)[0]
    assert weak_reduce(q, band) == q.restrict(set(q.vertices), name=f"{q.name}.w")


def test_reduce_left_component_to_hereditary(big_gentle):
    comps, _ = trim(big_gentle)
    al = next(c for c in comps if "1" in c.vertices and "6" in c.vertices)
    target = None
    for b in enumerate_bands(al, 2 * len(al.arrows)):
        if set(b.representative.walk_vertices()) == set(al.vertices):
            r = reduce(al, b)
            if not r.relations and len(r.vertices) == 6:
                target = r
    assert target is not None
    assert validate_gentle(target).holds and band_exists(target)


def test_reduce_right_component_two_orientations(big_gentle):
    comps, _ = trim(big_gentle)
    ar = next(c for c in comps if "21" in c.vertices)
    outs = []
    for b in enumerate_bands(ar, 2 * len(ar.arrows)):
        r = reduce(ar, b)
        if {x.name for x in r.arrows} != {x.name for x in ar.arrows}:
            outs.append(r)
    assert len(outs) == 2
    assert all(not r.relations and len(r.vertices) == 4 for r in outs)
    assert not quivers_isomorphic(outs[0], outs[1])


def test_fully_reduce_outputs(big_gentle):
    outs = [q for q, _ in fully_reduce(big_gentle)]
    comps, _ = trim(big_gentle)
    ar = next(c for c in comps if "21" in c.vertices)
    a3s = [
        reduce(ar, b)
        for b in enumerate_bands(ar, 2 * len(ar.arrows))
        if {x.name for x in reduce(ar, b).arrows} != {x.name for x in ar.arrows}
    ]
    hereditary_a5 = [q for q in outs if len(q.vertices) == 6 and not q.relations]
    assert hereditary_a5
    for a3 in a3s:
        assert any(quivers_isomorphic(a3, q) for q in outs)
    assert not quivers_isomorphic(a3s[0], a3s[1])
    for q in outs:
        assert q.is_connected() and validate_gentle(q).holds and band_exists(q)
        for b in enumerate_bands(q, 2 * len(q.arrows)):
            assert {x.name for x in reduce(q, b).arrows} == {x.name for x in q.arrows}


def test_fully_reduce_fixpoints(corpus):
    for name in ("gb22", "atilde5", "zero_bar_gb", "loops_barbell"):
        outs = fully_reduce(corpus[name])
        assert len(outs) == 1
        assert outs[0][0] == corpus[name]


def replayed_outputs(a):
    """How many outputs ``fully_reduce(a)`` has; each one is rebuilt from
    ``a`` by its trace alone and must come out equal, name included."""
    outs = fully_reduce(a)
    for out, trace in outs:
        q = a
        for step in trace:
            op, params, result = step["op"], step["params"], step["result"]
            if op in ("remove-nodes", "remove-secluded"):
                assert set(params["vertices"]) <= set(q.vertices), (a.name, step)
                q = q.restrict(set(q.vertices) - set(params["vertices"]), result)
            elif op == "split":
                assert (len(q.components()), q.name) == (params["components"], result), (a.name, step)
            elif op == "component":
                q = q.restrict(set(params["vertices"]), result)
                assert q.is_connected(), (a.name, step)
            else:
                assert op == "reduce", (a.name, step)
                w = word_from_text(q, params["band"])
                assert is_band(w), (a.name, step)
                q = q.restrict(set(w.walk_vertices()), result, w.supported_arrows())
        assert (q, q.name) == (out, out.name), (a.name, trace)
    return len(outs)


def test_fully_reduce_traces_replay_on_the_fixtures(corpus):
    gentle = [q for q in corpus.values() if validate_gentle(q).holds and band_exists(q)]
    assert len(gentle) == 14
    assert sum(replayed_outputs(q) for q in gentle) == 20


def test_three_vertex_parity_after_trimming(big_gentle):
    comps, _ = trim(big_gentle)
    for c in comps:
        assert sum(1 for v in c.vertices if c.degree(v) == 3) % 2 == 0


def test_quiver_isomorphism_basics(corpus):
    q = corpus["lambda3"]
    renamed = q.rename("other")
    assert quivers_isomorphic(q, renamed)
    assert not quivers_isomorphic(q, corpus["lambda4"])
    assert not quivers_isomorphic(q, corpus["atilde5"])


def _shuffled_copy(q: BoundQuiver, rng: random.Random) -> BoundQuiver:
    """``q`` with fresh vertex and arrow names, its vertices, arrows and
    relations in a random order, and each commutativity relation in a
    random orientation."""
    n, m = len(q.vertices), len(q.arrows)
    vname = {v: f"p{k}" for v, k in zip(q.vertices, rng.sample(range(n), n))}
    aname = {a.name: f"x{k}" for a, k in zip(q.arrows, rng.sample(range(m), m))}
    arrows = [Arrow(aname[a.name], vname[a.src], vname[a.tgt]) for a in q.arrows]
    relations = []
    for r in q.relations:
        p1, p2 = (tuple(aname[x] for x in p) for p in (r.path1, r.path2))
        if r.kind == COMMUTATIVITY and rng.random() < 0.5:
            p1, p2 = p2, p1
        relations.append(Relation(r.kind, p1, p2))
    vertices = rng.sample(list(vname.values()), n)
    arrows = rng.sample(arrows, m)
    return BoundQuiver("shuffled", vertices, arrows, rng.sample(relations, len(relations)))


def _degrees(q: BoundQuiver) -> list[tuple[int, int]]:
    return sorted((len(q.incoming(v)), len(q.outgoing(v))) for v in q.vertices)


def _relation_lengths(q: BoundQuiver) -> list[int]:
    return sorted(len(r.arrows()) for r in q.relations)


def _other_quiver(q: BoundQuiver) -> BoundQuiver:
    """A quiver with as many vertices, arrows and relations as ``q``: one
    arrow outside every relation reversed, if that changes the sorted
    degrees; else one monomial relation shortened or lengthened by an arrow."""
    used = {x for r in q.relations for x in r.arrows()}
    for a in q.arrows:
        if a.name not in used and a.src != a.tgt:
            arrows = [Arrow(b.name, b.tgt, b.src) if b is a else b for b in q.arrows]
            p = BoundQuiver("other", q.vertices, arrows, q.relations)
            if _degrees(p) != _degrees(q):
                return p
    for i, r in enumerate(q.relations):
        if r.kind != MONOMIAL:
            continue
        if len(r.path1) > 2:
            paths = [r.path1[:-1]]
        else:
            src, tgt = q.arrow_by_name[r.path1[0]].src, q.arrow_by_name[r.path1[-1]].tgt
            paths = [r.path1 + (b.name,) for b in q.outgoing(tgt)]
            paths += [(b.name,) + r.path1 for b in q.incoming(src)]
        if paths:
            relations = list(q.relations)
            relations[i] = Relation(MONOMIAL, paths[0])
            return BoundQuiver("other", q.vertices, q.arrows, relations)
    raise AssertionError(f"no quiver to compare with {q.name}")


@pytest.mark.parametrize("name", fixture_names())
def test_isomorphism_survives_renaming_and_reordering(corpus, name):
    q = corpus[name]
    copy = _shuffled_copy(q, random.Random(name))
    assert copy != q
    assert quivers_isomorphic(q, copy) and quivers_isomorphic(copy, q)


@pytest.mark.parametrize("name", fixture_names())
def test_isomorphism_rejects_a_changed_invariant(corpus, name):
    q = corpus[name]
    other = _other_quiver(q)
    sizes = (len(q.vertices), len(q.arrows), len(q.relations))
    assert (len(other.vertices), len(other.arrows), len(other.relations)) == sizes
    assert _degrees(other) != _degrees(q) or _relation_lengths(other) != _relation_lengths(q)
    assert not quivers_isomorphic(q, other)
    assert not quivers_isomorphic(_shuffled_copy(q, random.Random(name)), other)


def test_commutativity_relations_compare_equal_in_either_orientation():
    text = (
        "quiver square\nvertices: 1 2 3 4 5\narrow a: 1 -> 2\narrow b: 2 -> 4\n"
        "arrow c: 1 -> 3\narrow d: 3 -> 5\narrow e: 5 -> 4\n"
    )
    q = parse_quiver(text + "comrel a b = c d e\n")
    flipped = parse_quiver(text + "comrel c d e = a b\n")
    assert q == flipped
    assert quivers_isomorphic(q, flipped)


def _isomorphic_by_brute_force(q1: BoundQuiver, q2: BoundQuiver) -> bool:
    """Whether the vertex, arrow and relation-list lengths agree and some
    vertex bijection with an arrow bijection that respects it maps the
    relation keys of ``q1`` onto those of ``q2``."""
    sizes = [(len(q.vertices), len(q.arrows), len(q.relations)) for q in (q1, q2)]
    if sizes[0] != sizes[1]:
        return False
    keys2 = {r.key() for r in q2.relations}
    for vs in itertools.permutations(q2.vertices):
        vmap = dict(zip(q1.vertices, vs))
        for bs in itertools.permutations(q2.arrows):
            if any((vmap[a.src], vmap[a.tgt]) != (b.src, b.tgt) for a, b in zip(q1.arrows, bs)):
                continue
            amap = {a.name: b.name for a, b in zip(q1.arrows, bs)}
            keys = {
                Relation(r.kind, tuple(amap[x] for x in r.path1), tuple(amap[x] for x in r.path2)).key()
                for r in q1.relations
            }
            if keys == keys2:
                return True
    return False


def _small_quiver(rng: random.Random, n: int, like: BoundQuiver | None = None) -> BoundQuiver:
    """Up to 4 random arrows on ``n`` vertices, loops, parallel arrows and
    vertices without arrows included, and up to 3 monomial relations drawn
    with repetition, so some entries are duplicates.  Given ``like``, its
    arrows with as many relations, drawn afresh."""
    vertices = [f"v{i}" for i in range(n)]
    if like is None:
        arrows = [Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(0, 4))]
    else:
        arrows = list(like.arrows)
    paths = [
        tuple(a.name for a in p)
        for k in (2, 3)
        for p in itertools.product(arrows, repeat=k)
        if all(a.tgt == b.src for a, b in zip(p, p[1:]))
    ]
    count = rng.randint(0, 3) if like is None else len(like.relations)
    relations = [Relation(MONOMIAL, rng.choice(paths)) for _ in range(count)] if paths else []
    return BoundQuiver("small", vertices, arrows, relations)


def test_isomorphism_agrees_with_a_brute_force_search_on_small_quivers():
    rng = random.Random(2022)
    answers = []
    for k in range(1200):
        q = _small_quiver(rng, rng.randint(1, 4))
        n = len(q.vertices)
        # the same quiver, its arrows with other relations, or a fresh draw
        other = [q, _small_quiver(rng, n, like=q), _small_quiver(rng, n)][k % 3]
        if rng.random() < 0.8:
            other = _shuffled_copy(other, rng)
        expected = _isomorphic_by_brute_force(q, other)
        assert quivers_isomorphic(q, other) is expected, (q.to_text(), other.to_text())
        assert quivers_isomorphic(other, q) is expected, (q.to_text(), other.to_text())
        answers.append(expected)
    assert answers.count(True) >= 300 and answers.count(False) >= 300


def test_barify_flags_boundary_relation_involvement():
    q = load_fixture("barbell_a9")
    tr = []
    barify(q, word_from_text(q, "alpha eps-"), word_from_text(q, "mu- delta"), trace=tr)
    op, params = tr[0]["op"], tr[0]["params"]
    assert op == "barify"
    # delta and alpha already sit in the stage-one relations
    assert params["boundary_arrows_in_relations"] == ["alpha", "delta"]
    assert params["bar_length"] == 0


def test_reductions_reject_a_band_of_another_quiver(corpus):
    band = enumerate_bands(corpus["atilde5"])[0]
    for op in (reduce, weak_reduce):
        with pytest.raises(TransformError, match="is not a band of"):
            op(corpus["lambda3"], band)


def test_reductions_read_a_foreign_band_by_arrow_name(big_gentle):
    # a band of a trimmed component, whose arrow indices differ, is
    # re-read on the whole quiver by arrow name
    comps, _ = trim(big_gentle)
    ar = next(c for c in comps if "21" in c.vertices)
    for b in enumerate_bands(ar):
        names = {x.name for x in reduce(big_gentle, b).arrows}
        assert names == b.representative.supported_arrows()
        assert set(weak_reduce(big_gentle, b).vertices) == set(b.representative.walk_vertices())

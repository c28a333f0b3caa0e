import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from stringalg import classify
from stringalg.classify import (
    BARBELL,
    GENERALIZED_BARBELL,
    HEREDITARY_AN,
    NODY,
    OTHER,
    WIND_WHEEL,
    brick_rotation,
    classify_mri_sb,
    classify_node_free,
    gentle_hom_report,
    is_monomial_minimal_rep_infinite,
    tau_finiteness,
)
from stringalg.census import brick_census
from stringalg.cli import main
from stringalg.fixtures import fixture_names, load_fixture
from stringalg.quiver import (
    QuiverError,
    is_finite_dimensional,
    monomialize,
    nodes,
    nonzero_paths,
    parallel_pair_candidates,
    parse_quiver,
    quotient_by_arrow,
    quotient_by_parallel_pair,
    quotient_by_path,
    quotient_by_vertex,
    validate_gentle,
    validate_special_biserial,
    validate_string_algebra,
)
from stringalg.transforms import reduce, resolve_nodes, trim, weak_reduce
from stringalg.words import band_exists, enumerate_bands, string_module, word_from_text
from stringalg.graphmaps import is_band_brick, is_brick
from stringalg.oracle import end_dim_linear

from test_graphmaps import band_module
from test_step_table import brauer_graph_algebra, random_brauer_graph, random_string_quiver, special_quivers
from test_transforms import _shuffled_copy, replayed_outputs


def test_classify_barbell_stage_one():
    label = classify_node_free(load_fixture("barbell_a9"))
    assert label.value == BARBELL
    assert not label.detail["bar_serial"]
    assert len(label.detail["bar"]) == 2


def test_barbell_detail_reassembles_the_quiver():
    q = load_fixture("barbell_a9")
    d = classify_node_free(q).detail
    pieces = [d["c_l"], d["c_r"], d["bar"]]
    arrows = set()
    verts = set()
    for w in pieces:
        arrows |= w.supported_arrows()
        verts |= set(w.walk_vertices())
    assert arrows == {a.name for a in q.arrows}
    assert verts == set(q.vertices)


def test_classify_wind_wheel(windwheel):
    label = classify_node_free(windwheel)
    assert label.value == WIND_WHEEL
    bars = label.detail["bars"]
    assert sorted(len(b) for b in bars) == [1, 2]
    assert len(label.detail["c_relations"]) == 4
    assert len(label.detail["b_relations"]) == 2


def test_classify_hereditary_and_other(corpus):
    assert classify_node_free(corpus["atilde5"]).value == HEREDITARY_AN
    assert classify_node_free(corpus["linear_a5"]).value == OTHER
    assert classify_node_free(corpus["zero_bar_gb"]).value == GENERALIZED_BARBELL


def test_classify_requires_node_free(corpus):
    with pytest.raises(QuiverError):
        classify_node_free(corpus["double_a2"])


def test_mri_classification_of_doubles(corpus):
    assert classify_mri_sb(corpus["double_a2"]).value == NODY
    assert classify_mri_sb(corpus["double_a4"]).value == NODY
    assert classify_mri_sb(corpus["double_a1"]).value == OTHER
    assert classify_mri_sb(corpus["double_a3"]).value == OTHER


def test_mri_classification_of_bongartz_fixtures(corpus):
    assert classify_mri_sb(corpus["bongartz_a_1_1"]).value == HEREDITARY_AN
    assert classify_mri_sb(corpus["bongartz_ag_1_1"]).value == NODY
    assert classify_mri_sb(corpus["bongartz_ag_2_1"]).value == NODY
    assert classify_mri_sb(corpus["bongartz_e_1_1_1"]).value == WIND_WHEEL
    assert classify_mri_sb(corpus["bongartz_e_2_1_2"]).value == WIND_WHEEL


def test_serial_bar_is_excluded_from_the_minimal_classification(corpus):
    label = classify_mri_sb(corpus["gb22"])
    assert label.value == OTHER
    assert "serial" in " ".join(label.notes)


def test_nody_resolution_matches(corpus):
    label = classify_mri_sb(corpus["double_a2"])
    assert label.detail["resolved"].value == HEREDITARY_AN
    label = classify_mri_sb(corpus["bongartz_e_2_1_2"])
    assert label.value == WIND_WHEEL


def test_weak_minimality(corpus):
    # rep-infinite, while every one-vertex quotient is rep-finite
    def weakly_minimal(q):
        return band_exists(q) and not any(band_exists(quotient_by_vertex(q, v)) for v in q.vertices)

    assert weakly_minimal(corpus["atilde5"])
    assert not weakly_minimal(corpus["disjoint_bands"])
    assert not weakly_minimal(corpus["linear_a5"])


def test_monomial_minimality(corpus, big_gentle):
    assert is_monomial_minimal_rep_infinite(load_fixture("barbell_a9"))
    assert is_monomial_minimal_rep_infinite(corpus["atilde5"])
    comps, _ = trim(big_gentle)
    am = next(c for c in comps if "8" in c.vertices and "20" in c.vertices)
    middle = {str(i) for i in range(8, 18)}
    band = next(
        b
        for b in enumerate_bands(am, 2 * len(am.arrows))
        if set(b.representative.walk_vertices()) == middle
    )
    serial_barbell = weak_reduce(am, band)
    assert classify_node_free(serial_barbell).value == BARBELL
    assert classify_node_free(serial_barbell).detail["bar_serial"]
    assert not is_monomial_minimal_rep_infinite(serial_barbell)


@pytest.mark.parametrize(
    "name,verdict",
    [
        ("lambda3", "Infinite"),
        ("lambda4", "Infinite"),
        ("double_a1", "Infinite"),
        ("double_a2", "Finite"),
        ("double_a3", "Infinite"),
        ("zero_bar_gb", "Infinite"),
        ("loops_barbell", "Infinite"),
        ("barbell_a9", "Infinite"),
        ("bongartz_a_1_1", "Infinite"),
        ("bongartz_ag_1_1", "Finite"),
        ("bongartz_e_1_1_1", "Finite"),
        ("linear_a5", "Finite"),
        # the commutativity relation forces a projective-injective whose
        # socle quotient is band-free, so lambda1 is representation-finite
        ("lambda1", "Finite"),
    ],
)
def test_tau_verdicts(name, verdict):
    assert tau_finiteness(load_fixture(name)).value == verdict


# the witness band of every Infinite fixture, the first minimal band that is
# a band brick: also the band of the brick family (HereditaryAn, Barbell or
# GeneralizedBarbell) on the smallest full reduction
INFINITE_FIXTURE_BANDS = {
    "a9": "eps- beta beta1 beta2- gamma mu- delta alpha2 alpha1- alpha",
    "atilde5": "g5- g4 g3 g2 g1 g0",
    "atilde5_pendant": "g5- g4 g3 g2 g1 g0",
    "barbell_a9": "eps- beta alpha1~beta1 alpha2~beta2- gamma mu- delta alpha2~beta2 alpha1~beta1- alpha",
    "barbell_a9b": "mu gamma- alpha2~beta2 alpha1~beta1- alpha",
    "big_gentle": "alpha eps- delta theta",
    "bongartz_a_1_1": "beta1- alpha1",
    "bongartz_a_2_1": "beta1- alpha2 alpha1",
    "disjoint_bands": "cd cc- cb ca",
    "double_a1": "g1- g0",
    "double_a3": "g3- g2 g1s- g0",
    "gb22": "beta theta- gamma delta theta alpha",
    "lambda2": "eps delta- gamma- beta",
    "lambda3": "eps delta- gamma- beta",
    "lambda4": "theta- delta- gamma- beta",
    "loops_barbell": "theta gamma theta- alpha",
    "zero_bar_gb": "mu- beta gamma alpha",
}


def _referee_brick_band_witness(q, v) -> str:
    """Re-derive an ``Infinite`` witness of ``q`` on its monomial form: a
    minimal band that is a band brick, a rotation of it (or of its inverse)
    whose powers 1 to 3 are bricks by graph maps and by End dimension 1,
    and the band module M(b, 2, 1) itself with End dimension 1."""
    w = v.witness
    assert w["kind"] == "brick-band" and w["verified_exponents"] == [1, 2, 3]
    assert v.trace[-1] == f"band {w['band']} is a band brick"
    q0 = monomialize(q)
    (band,) = [b for b in enumerate_bands(q0) if b.render() == w["band"]]
    assert is_band_brick(band)
    rep = band.representative
    word = word_from_text(q0, w["word"])
    assert word.codes in {base.rotate(k).codes for base in (rep, rep.inverse()) for k in range(len(rep))}
    for m in (1, 2, 3):
        assert is_brick(word.power(m)) and end_dim_linear(string_module(word.power(m))) == 1
    assert end_dim_linear(band_module(band, 2)) == 1
    return w["band"]


def test_tau_infinite_witness_reverifies(corpus):
    verdicts = {name: tau_finiteness(q) for name, q in corpus.items()}
    bands = {
        name: _referee_brick_band_witness(corpus[name], v)
        for name, v in verdicts.items()
        if v.value == "Infinite"
    }
    assert bands == INFINITE_FIXTURE_BANDS
    sample = []
    for q in _seeded_sample():
        v = tau_finiteness(q)
        if v.value == "Infinite":
            sample.append(_referee_brick_band_witness(q, v))
    assert len(sample) == 365
    # the 365 bands in sample order: the brick-family bands of the smallest
    # full reductions, as for the fixtures
    assert hashlib.sha256("\n".join(sample).encode()).hexdigest()[:16] == "2bcfb1adb4c9c581"


def test_tau_raises_when_the_cross_check_disagrees_with_the_band_brick_test(corpus, monkeypatch):
    q = corpus["atilde5"]
    band = "band brick g5- g4 g3 g2 g1 g0"
    monkeypatch.setattr(classify, "end_dim_linear", lambda m: 2)
    linear = r"fails brick check at exponent 1 \(graph=True, linear=False\); graph-map bug"
    with pytest.raises(QuiverError, match=f"{band} {linear}"):
        tau_finiteness(q)
    monkeypatch.setattr(classify, "brick_rotation", lambda b: None)
    # a rotation proves a band brick, so none is a graph-map bug or a
    # counterexample to lemma (S)
    cause = r"graph-map bug, or a counterexample to lemma \(S\) at powers 1 to 3"
    with pytest.raises(QuiverError, match=f"{band} has no brick rotation; {cause}"):
        tau_finiteness(q)


@pytest.mark.parametrize(
    "name, exhausted_at, bricks",
    [
        ("bongartz_ag_1_1", 2, 1),
        ("bongartz_ag_2_1", 3, 4),
        ("bongartz_e_1_1_1", 6, 5),
        ("bongartz_e_2_1_2", 11, 22),
        ("double_a2", 4, 15),
        ("double_a4", 6, 45),
        ("windwheel_a12", 18, 104),
    ],
)
def test_tau_finite_witness_is_the_brick_walk(name, exhausted_at, bricks, corpus):
    # every WindWheel and Nody fixture; the bricks include the lazy ones
    q = corpus[name]
    v = tau_finiteness(q)
    assert v.value == "Finite"
    assert v.trace[-1].endswith("brick-finite")
    assert v.witness == {
        "kind": "brick-walk",
        "algebra": q.name,
        "max_len": 2 * len(q.arrows) + 2,
        "exhausted_at": exhausted_at,
        "bricks": bricks,
    }


def _check_hereditary_and_barbell_labels_are_gentle(q):
    """``classify_mri_sb`` gives these labels to gentle algebras only, on
    ``q`` and on every band reduction."""
    q0 = monomialize(q)
    if not validate_string_algebra(q0).holds:
        return
    pending = [q0] + [comp for b in enumerate_bands(q0) for comp in reduce(q0, b).components()]
    for p in pending:
        if validate_special_biserial(p).holds and classify_mri_sb(p).value in (HEREDITARY_AN, BARBELL):
            assert validate_gentle(p).holds, p.to_text()


def test_hereditary_and_barbell_labels_are_gentle_on_the_corpus(corpus):
    for q in corpus.values():
        _check_hereditary_and_barbell_labels_are_gentle(q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(special_quivers())
def test_hereditary_and_barbell_labels_are_gentle_on_random_quivers(q):
    if is_finite_dimensional(q):
        _check_hereditary_and_barbell_labels_are_gentle(q)


def _seeded_sample():
    """The 600 finite-dimensional draws with an arrow of each of the seeds
    23 and 37, in order."""
    draws = 0
    for seed in (23, 37):
        rng, kept = random.Random(seed), 0
        while kept < 600:
            q = random_string_quiver(rng)
            draws += 1
            if q.arrows and is_finite_dimensional(q):
                kept += 1
                yield q
    assert draws == 1557


def test_verdict_table_of_the_seeded_random_sample():
    # a change that decides some Unknown algebras updates this table; the
    # columns are whether the brick walk runs out below 2|Q1| + 2 and
    # whether some minimal band has a brick rotation
    table, local, slack = Counter(), 0, []
    for q in _seeded_sample():
        verdict = tau_finiteness(q).value
        exhausted_at = brick_census(q, 2 * len(q.arrows) + 2).exhausted_at
        brick_band = any(brick_rotation(b) is not None for b in enumerate_bands(q))
        table[verdict, exhausted_at is not None, brick_band] += 1
        local += verdict == "Unknown" and len(q.vertices) == 1
        if exhausted_at is not None:
            slack.append(2 * len(q.arrows) + 1 - exhausted_at)
    assert table == {
        ("Finite", True, False): 655,
        ("Infinite", False, True): 365,
        ("Unknown", True, False): 180,
    }
    assert local == 85
    # the walk runs out by length 2|Q1| + 1, and that bound is attained
    assert min(slack) == 0


def _brauer_graph_shape(edges, orders):
    """"tree", "odd cycle", "even cycle" or "cycles" (two or more), for a
    connected graph with one cyclic order per vertex."""
    cycles = len(edges) - len(orders) + 1
    if cycles != 1:
        return "tree" if cycles == 0 else "cycles"
    core = list(edges)  # strip leaves until only the cycle is left
    while leaves := {x for x, d in Counter(x for e in core for x in e).items() if d == 1}:
        core = [e for e in core if not leaves & set(e)]
    return "odd cycle" if len(core) % 2 else "even cycle"


def test_brauer_graph_algebras_agree_with_adachi_aihara_chan():
    # Adachi-Aihara-Chan: a Brauer graph algebra is tau-tilting finite iff its
    # graph has at most one cycle, of odd length if any.  No decided verdict
    # may contradict it; the table pins how many odd-cycle graphs tau leaves
    # Unknown, for a change that decides them to update
    rng, table = random.Random(1), Counter()
    for _ in range(1000):
        edges, orders = random_brauer_graph(rng)
        q = brauer_graph_algebra(edges, orders)
        shape, verdict = _brauer_graph_shape(edges, orders), tau_finiteness(q).value
        if verdict != "Unknown":
            assert (verdict == "Finite") == (shape in ("tree", "odd cycle")), q.to_text()
        table[shape, verdict] += 1
    assert table == {
        ("tree", "Finite"): 664,
        ("odd cycle", "Finite"): 62,
        ("odd cycle", "Unknown"): 148,
        ("even cycle", "Infinite"): 60,
        ("cycles", "Infinite"): 66,
    }


def _four_family_minimal(q):
    """Minimality straight from the definition: no quotient by an arrow, a
    vertex, a nonzero path of length 2 or more, or a coefficient-1
    commutativity relation (on its monomial form) has a band."""
    cuts = [quotient_by_arrow(q, a.name) for a in q.arrows]
    cuts += [quotient_by_vertex(q, v) for v in q.vertices]
    cuts += [quotient_by_path(q, p) for p in nonzero_paths(q) if len(p) > 1]
    cuts += [monomialize(quotient_by_parallel_pair(q, *pair)) for pair in parallel_pair_candidates(q)]
    return not any(band_exists(cut) for cut in cuts)


def _check_minimal_verdict(q, label):
    # HereditaryAn and Barbell are the gentle labels and give Infinite;
    # WindWheel and Nody give Finite
    gentle = validate_gentle(q).holds
    assert gentle == (label in (HEREDITARY_AN, BARBELL)), q.to_text()
    assert tau_finiteness(q).value == ("Infinite" if gentle else "Finite"), q.to_text()


def test_ringel_classification_referees_minimality_on_the_seeded_sample():
    # Ringel: the minimal representation-infinite special biserial algebras
    # are exactly the ones classify_mri_sb names; the paper: such an
    # algebra is tau-tilting infinite iff it is gentle
    infinite, labels = 0, Counter()
    for q in _seeded_sample():
        if not band_exists(q):
            continue
        infinite += 1
        minimal = is_monomial_minimal_rep_infinite(q)
        assert minimal == _four_family_minimal(q), q.to_text()
        label = classify_mri_sb(q).value
        assert (label != OTHER) == minimal, q.to_text()
        if minimal:
            labels[label] += 1
            _check_minimal_verdict(q, label)
    assert infinite == 580
    assert labels == {HEREDITARY_AN: 45, BARBELL: 4, NODY: 30, WIND_WHEEL: 5}


def _reductions_checked(q):
    bands = enumerate_bands(q)
    for b in bands:
        r = reduce(q, b)
        assert r.is_connected() and band_exists(r), (q.to_text(), b.render())
    return len(bands)


def test_band_reductions_are_connected_and_keep_their_band(corpus):
    # fully_reduce reads each band reduction whole
    assert sum(_reductions_checked(q) for q in _seeded_sample()) == 794
    for q in corpus.values():
        _reductions_checked(monomialize(q))


def test_fully_reduce_traces_replay_on_the_seeded_sample():
    gentle = [q for q in _seeded_sample() if validate_gentle(q).holds and band_exists(q)]
    assert len(gentle) == 127
    assert sum(replayed_outputs(q) for q in gentle) == 134


def test_unknown_witness_lists_the_minimal_bands():
    # every minimal band of the monomial form, rendered, and none of them
    # a band brick, or the cascade would have said Infinite
    counts = Counter()
    for q in _seeded_sample():
        v = tau_finiteness(q)
        if v.value != "Unknown":
            continue
        bands = enumerate_bands(monomialize(q))
        assert v.witness == {"kind": "attempted", "bands": [b.render() for b in bands]}
        assert not any(is_band_brick(b) for b in bands), q.to_text()
        counts[len(bands)] += 1
    assert counts == {1: 152, 2: 22, 3: 2, 4: 2, 5: 1, 8: 1}


def _answers(q):
    q0 = monomialize(q)
    verdict = tau_finiteness(q)
    census = brick_census(q0, 8)
    return (
        verdict.value,
        verdict.witness["kind"],
        classify_mri_sb(q).value,
        len(enumerate_bands(q0)),
        census.per_length,
        census.exhausted_at,
    )


@pytest.mark.parametrize("name", fixture_names())
def test_declaration_order_does_not_change_the_answers(corpus, name):
    q = corpus[name]
    rng = random.Random(name)
    want = _answers(q)
    for _ in range(4):
        assert _answers(_shuffled_copy(q, rng)) == want


_UNKNOWN = """quiver unknown
vertices: v0 v1
arrow a0: v0 -> v1
arrow a1: v1 -> v0
arrow a2: v0 -> v0
rel a1 a0
rel a2 a0
rel a2 a2
"""


def test_tau_unknown_when_no_step_decides(tmp_path, capsys):
    # labelled Other, and its one minimal band is no band brick
    v = tau_finiteness(parse_quiver(_UNKNOWN))
    assert v.value == "Unknown"
    assert v.witness == {"kind": "attempted", "bands": ["a2- a1 a0"]}
    assert v.trace == ("no witness found",)
    path = tmp_path / "unknown.quiver"
    path.write_text(_UNKNOWN)
    assert main(["tau", "--strict", str(path)]) == 1
    assert main(["tau", str(path)]) == 0
    capsys.readouterr()


def test_nodes_are_exactly_the_degree_four_vertices(corpus):
    for name in (
        "double_a2",
        "double_a4",
        "barbell_a9",
        "windwheel_a12",
        "bongartz_ag_1_1",
        "bongartz_e_1_1_1",
        "bongartz_a_1_1",
        "atilde5",
    ):
        q = corpus[name]
        assert nodes(q) == {v for v in q.vertices if q.degree(v) == 4}
        assert sum(1 for v in q.vertices if q.degree(v) == 3) % 2 == 0


def test_nody_resolution_preserves_three_vertex_count(corpus):
    for name in ("double_a2", "bongartz_ag_1_1", "bongartz_ag_2_1"):
        q = corpus[name]
        (out,), _ = resolve_nodes(q)
        before = sum(1 for v in q.vertices if q.degree(v) == 3)
        after = sum(1 for v in out.vertices if out.degree(v) == 3)
        assert before == after


def test_gentle_hom_report_values(loops_barbell, corpus):
    r = gentle_hom_report(loops_barbell)
    assert r.n_of_a == 1
    assert r.injective_dim == 1 and not r.injective_dim_is_bound
    assert r.gorenstein_dim == 1
    assert r.gldim_le_2 is False

    r = gentle_hom_report(corpus["gb22"])
    assert r.n_of_a == 2
    assert r.injective_dim == 2
    assert r.gldim_le_2 is True

    r = gentle_hom_report(corpus["atilde5"])
    assert r.injective_dim <= 1
    assert r.gldim_le_2 is True


def test_gentle_hom_report_rejects_non_gentle(lambda2):
    with pytest.raises(QuiverError):
        gentle_hom_report(lambda2)


def test_recognized_minimal_classes_are_monomial_minimal(corpus):
    # every fixture the classifier recognizes is genuinely minimal under
    # single-step monomial and commutativity quotients
    for name in (
        "double_a2",
        "barbell_a9",
        "windwheel_a12",
        "bongartz_a_1_1",
        "bongartz_ag_1_1",
        "bongartz_e_1_1_1",
        "atilde5",
    ):
        q = corpus[name]
        label = classify_mri_sb(q).value
        assert label != OTHER, name
        assert is_monomial_minimal_rep_infinite(q), name
        _check_minimal_verdict(q, label)


def test_maximal_path_quotients_agree_with_the_definition_on_the_corpus(corpus):
    for name, q in corpus.items():
        if validate_string_algebra(q).holds and band_exists(q):
            assert is_monomial_minimal_rep_infinite(q) == _four_family_minimal(q), name


_INFINITE_DIMENSIONAL = """quiver inf
vertices: x y z
arrow a: x -> y
arrow b: y -> x
arrow c: y -> z
arrow d: z -> y
rel a c
rel d b
"""


def test_monomial_minimality_rejects_an_infinite_dimensional_algebra():
    q = parse_quiver(_INFINITE_DIMENSIONAL)
    assert not is_finite_dimensional(q)
    with pytest.raises(QuiverError, match="not finite dimensional"):
        is_monomial_minimal_rep_infinite(q)

"""Acceptance suite: one test per criterion, exact values, no tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion; each test also prints an explicit PASS marker.
"""

import itertools
import random

from stringalg.census import brick_census, unique_brick_band_scan
from stringalg.classify import (
    barbell_brick_family,
    classify_mri_sb,
    classify_node_free,
    gentle_hom_report,
    is_monomial_minimal_rep_infinite,
    tau_finiteness,
)
from stringalg.fixtures import fixture_names, load_fixture
from stringalg.graphmaps import hom_dim, is_brick
from stringalg.oracle import end_dim_linear, hom_dim_linear
from stringalg.quiver import (
    nodes,
    nonzero_paths,
    parallel_pair_candidates,
    quotient_by_arrow,
    quotient_by_parallel_pair,
    quotient_by_path,
    quotient_by_vertex,
    validate_gentle,
    validate_special_biserial,
    validate_string_algebra,
)
from stringalg.transforms import quivers_isomorphic, reduce, resolve_nodes, trim, weak_reduce
from stringalg.words import (
    band_exists,
    canonical_band,
    enumerate_bands,
    enumerate_strings,
    string_module,
    word_from_text,
)

SEED = 20260810

MINIMAL_FIXTURES = (
    "double_a2",
    "double_a4",
    "barbell_a9",
    "windwheel_a12",
    "bongartz_a_1_1",
    "bongartz_ag_1_1",
    "bongartz_ag_2_1",
    "bongartz_e_1_1_1",
    "bongartz_e_2_1_2",
    "atilde5",
)


def _passed(n, text):
    print(f"[acceptance] criterion {n:02d} ({text}): PASS")


def test_criterion_01_validation_matrix(lambda1, lambda2, lambda3, lambda4):
    assert validate_special_biserial(lambda1).holds
    assert not validate_string_algebra(lambda1).holds
    assert validate_string_algebra(lambda2).holds
    assert not validate_gentle(lambda2).holds
    assert validate_gentle(lambda3).holds
    assert validate_gentle(lambda4).holds
    _passed(1, "validation matrix")


def test_criterion_02_band_counts(lambda3, lambda4):
    assert len(enumerate_bands(lambda3, 2 * len(lambda3.arrows))) == 1
    assert len(enumerate_bands(lambda4, 2 * len(lambda4.arrows))) == 2
    _passed(2, "band counts")


def test_criterion_03_hom_dimensions(lambda2):
    w = word_from_text(lambda2, "alpha- eps delta- gamma- beta eps")
    u = word_from_text(lambda2, "delta- gamma- beta eps")
    v = word_from_text(lambda2, "eps delta- gamma- beta")
    mw, mu, mv = string_module(w), string_module(u), string_module(v)
    assert hom_dim(w, u) == 1 and hom_dim_linear(mw, mu) == 1
    assert hom_dim(u, w) == 0 and hom_dim_linear(mu, mw) == 0
    assert hom_dim(v, w) >= 1 and hom_dim_linear(mv, mw) >= 1
    _passed(3, "Hom dimensions")


def test_criterion_04_oracle_equivalence(corpus):
    total = 0
    for name in ("lambda2", "lambda3", "lambda4", "loops_barbell"):
        q = corpus[name]
        words = enumerate_strings(q, 6)
        mods = {w: string_module(w) for w in words}
        for u, v in itertools.product(words, repeat=2):
            assert hom_dim(u, v) == hom_dim_linear(mods[u], mods[v]), (
                name,
                u.render(),
                v.render(),
            )
            total += 1
    assert total > 10000
    _passed(4, f"oracle equivalence on {total} pairs")


def test_criterion_05_barbell_brick_families(loops_barbell):
    barbell = load_fixture("barbell_a9")
    for q in (barbell, loops_barbell):
        fam = barbell_brick_family(classify_node_free(q))
        assert fam.verified_exponents == (1, 2, 3)
        # one power beyond the verified ones, by graph maps and the oracle
        w4 = fam.word.power(4)
        assert is_brick(w4) and end_dim_linear(string_module(w4)) == 1
    scan = unique_brick_band_scan(loops_barbell, 8)
    expected = canonical_band(word_from_text(loops_barbell, "theta gamma- theta- alpha-"))
    assert scan == [expected]
    _passed(5, "barbell brick families")


def test_criterion_06_wind_wheel(windwheel):
    label = classify_node_free(windwheel)
    assert label.value == "WindWheel"
    bands = enumerate_bands(windwheel, 2 * len(windwheel.arrows))
    assert len(bands) == 1
    lv = bands[0].length()
    report = brick_census(windwheel, 3 * lv)
    assert report.exhausted_at is not None and report.exhausted_at <= 2 * lv
    assert all(report.per_length[l][1] == 0 for l in range(2 * lv + 1, 3 * lv + 1))
    assert tau_finiteness(windwheel).value == "Finite"
    _passed(6, "wind wheel")


def test_criterion_07_nody_family(corpus):
    d2 = corpus["double_a2"]
    assert classify_mri_sb(d2).value == "Nody"
    assert tau_finiteness(d2).value == "Finite"
    bands = enumerate_bands(d2, 2 * len(d2.arrows))
    assert len(bands) == 1 and bands[0].length() == 6
    (nn,), _ = resolve_nodes(d2)
    assert len(nn.vertices) == 6
    assert classify_node_free(nn).value == "HereditaryAn"
    census = brick_census(d2, 8)
    assert all(census.per_length[l][1] == 0 for l in range(3, 9))
    assert census.exhausted_at == 4
    assert tau_finiteness(corpus["double_a1"]).value == "Infinite"
    assert tau_finiteness(corpus["double_a3"]).value == "Infinite"
    _passed(7, "nody family")


def test_criterion_08_gentle_pipeline(big_gentle):
    comps, trace = trim(big_gentle)
    assert trace[0]["op"] == "remove-nodes"
    assert trace[0]["params"]["vertices"] == ["b", "d", "e"]
    assert len(comps) == 3
    a_r = next(c for c in comps if "21" in c.vertices)
    a_m = next(c for c in comps if "8" in c.vertices and "20" in c.vertices)

    from stringalg.transforms import fully_reduce

    outs = [q for q, _ in fully_reduce(big_gentle)]
    hereditary_a5 = [
        q
        for q in outs
        if len(q.vertices) == 6 and not q.relations and classify_node_free(q).value == "HereditaryAn"
    ]
    assert hereditary_a5
    a3s = []
    for band in enumerate_bands(a_r, 2 * len(a_r.arrows)):
        r = reduce(a_r, band)
        if {x.name for x in r.arrows} != {x.name for x in a_r.arrows}:
            a3s.append(r)
    assert len(a3s) == 2
    assert not quivers_isomorphic(a3s[0], a3s[1])
    for a3 in a3s:
        assert any(quivers_isomorphic(a3, q) for q in outs)

    middle = {str(i) for i in range(8, 18)}
    band = next(
        b
        for b in enumerate_bands(a_m, 2 * len(a_m.arrows))
        if set(b.representative.walk_vertices()) == middle
    )
    serial = weak_reduce(a_m, band)
    label = classify_node_free(serial)
    assert label.value == "Barbell" and label.detail["bar_serial"]
    assert not is_monomial_minimal_rep_infinite(serial)
    _passed(8, "gentle pipeline")


def test_criterion_09_zero_bar_generalized_barbell(corpus):
    q = corpus["zero_bar_gb"]
    w = word_from_text(q, "beta gamma alpha mu-")
    for m in (1, 2, 3):
        assert is_brick(w.power(m))
    assert tau_finiteness(q).value == "Infinite"
    _passed(9, "zero-bar generalized barbell")


def test_criterion_10_bongartz_fixtures(corpus):
    assert classify_mri_sb(corpus["bongartz_a_1_1"]).value == "HereditaryAn"
    assert classify_mri_sb(corpus["bongartz_ag_1_1"]).value == "Nody"
    assert tau_finiteness(corpus["bongartz_ag_1_1"]).value == "Finite"
    assert classify_mri_sb(corpus["bongartz_e_1_1_1"]).value == "WindWheel"
    assert tau_finiteness(corpus["bongartz_e_1_1_1"]).value == "Finite"
    _passed(10, "Bongartz fixtures")


def test_criterion_11_geiss_reiten_report(loops_barbell, corpus):
    r = gentle_hom_report(loops_barbell)
    assert r.n_of_a == 1
    assert r.injective_dim == 1 and not r.injective_dim_is_bound
    assert r.gldim_le_2 is False
    r = gentle_hom_report(corpus["gb22"])
    assert r.n_of_a == 2
    assert r.gldim_le_2 is True
    _passed(11, "Geiss-Reiten report")


def test_criterion_12a_quotient_closedness(corpus):
    rng = random.Random(SEED)
    sb_names = [n for n in fixture_names() if validate_special_biserial(corpus[n]).holds]
    done = 0
    while done < 200:
        q = corpus[rng.choice(sb_names)]
        kind = rng.choice(("arrow", "vertex", "path", "parallel"))
        if kind == "arrow" and q.arrows:
            out = quotient_by_arrow(q, rng.choice(q.arrows).name)
        elif kind == "vertex":
            out = quotient_by_vertex(q, rng.choice(q.vertices))
        elif kind == "path":
            paths = [p for p in nonzero_paths(q) if len(p) >= 2]
            if not paths:
                continue
            out = quotient_by_path(q, rng.choice(paths))
        else:
            pairs = parallel_pair_candidates(q)
            if not pairs:
                continue
            out = quotient_by_parallel_pair(q, *rng.choice(pairs))
        assert validate_special_biserial(out).holds, (q.name, kind)
        done += 1
    _passed(12, "property: quotient closedness (200 samples)")


def test_criterion_12b_band_canonical_forms(corpus):
    for name in ("lambda3", "lambda4", "loops_barbell", "barbell_a9", "windwheel_a12", "double_a2"):
        q = corpus[name]
        for b in enumerate_bands(q, 2 * len(q.arrows)):
            rep = b.representative
            assert canonical_band(rep) == b
            for k in range(len(rep)):
                assert canonical_band(rep.rotate(k)) == b
                assert canonical_band(rep.rotate(k).inverse()) == b
    _passed(12, "property: band canonical forms")


def test_criterion_12c_parity_and_node_degree(corpus):
    for name in MINIMAL_FIXTURES:
        q = corpus[name]
        assert nodes(q) == {v for v in q.vertices if q.degree(v) == 4}, name
        assert sum(1 for v in q.vertices if q.degree(v) == 3) % 2 == 0, name
    _passed(12, "property: parity and node degrees")


def test_criterion_12d_band_bound_agreement(corpus):
    for name in fixture_names():
        q = corpus[name]
        if not validate_string_algebra(q).holds:
            continue
        assert band_exists(q) == bool(enumerate_bands(q)), name
    _passed(12, "property: band existence bound agreement")

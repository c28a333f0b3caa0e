import json

import pytest
from hypothesis import given, settings, strategies as st

from stringalg.census import brick_census, unique_brick_band_scan
from stringalg.classify import (
    BRICK_POWERS,
    barbell_brick_family,
    brick_rotation,
    classify_node_free,
    tau_finiteness,
)
from stringalg.fixtures import bongartz_e, bongartz_glued, double_cycle, load_fixture
from stringalg.graphmaps import _key_function, _splits, is_band_brick, is_brick
from stringalg.oracle import end_dim_linear
from stringalg.quiver import BoundQuiver, QuiverError, _step_ok, _steps, parse_quiver, validate_string_algebra
from stringalg.words import (
    StringWord,
    canonical_band,
    enumerate_bands,
    enumerate_strings,
    string_module,
    word_from_text,
)

from test_graphmaps import fixture_bands, seeded_bands
from test_step_table import special_quivers


def test_one_vertex_census():
    q = parse_quiver("quiver one\nvertices: x\n")
    report = brick_census(q, 5)
    assert report.per_length[0] == (1, 1)
    assert all(report.per_length[l] == (0, 0) for l in range(1, 6))
    # no string of positive length: the walk runs out at once
    assert report.exhausted_at == 1
    # a walk to length 1 shows nothing beyond it
    assert brick_census(q, 1).exhausted_at is None


def test_double_cycle_census_stabilizes():
    q = load_fixture("double_a2")
    report = brick_census(q, 8)
    assert [b.length() for b in report.bands] == [6]
    assert all(report.per_length[l][1] == 0 for l in range(3, 9))
    assert report.exhausted_at == 4
    # there are bricks at small lengths, so the census is not vacuous
    assert report.per_length[0][1] > 0


def test_census_counts_are_consistent(lambda3):
    report = brick_census(lambda3, 6)
    assert sum(s for s, _ in report.per_length.values()) == 67
    assert all(b <= s for s, b in report.per_length.values())


def test_census_report_is_deterministic(lambda4):
    a = json.dumps(brick_census(lambda4, 6).to_json(), sort_keys=True)
    b = json.dumps(brick_census(lambda4, 6).to_json(), sort_keys=True)
    assert a == b


def _fourth_power_is_a_brick(w: StringWord) -> bool:
    # the families verify the powers 1 to 3; one more, by both brick tests
    w4 = w.power(4)
    return is_brick(w4) and end_dim_linear(string_module(w4)) == 1


def test_barbell_family_all_powers(loops_barbell):
    label = classify_node_free(load_fixture("barbell_a9"))
    fam = barbell_brick_family(label)
    assert fam.verified_exponents == (1, 2, 3)
    assert fam.construction == "BarbellStandard"
    assert _fourth_power_is_a_brick(fam.word)

    label54 = classify_node_free(loops_barbell)
    fam54 = barbell_brick_family(label54)
    expected = canonical_band(word_from_text(loops_barbell, "theta gamma- theta- alpha-"))
    assert fam54.band == expected
    assert _fourth_power_is_a_brick(fam54.word)


def test_zero_bar_family_word(corpus):
    q = corpus["zero_bar_gb"]
    label = classify_node_free(q)
    fam = barbell_brick_family(label)
    assert fam.construction == "ZeroBarStandard"
    assert fam.word.render() == "beta gamma alpha mu-"


def test_zero_bar_family_word_when_the_serial_cycle_comes_first(corpus):
    # listing the relations the other way round makes the loop gamma c_l:
    # the construction swaps the cycles back and builds the same word
    q = corpus["zero_bar_gb"]
    swapped = BoundQuiver(q.name, q.vertices, q.arrows, q.relations[::-1])
    label = classify_node_free(swapped)
    assert label.detail["c_l"].render() == "gamma"
    fam = barbell_brick_family(label)
    assert fam.construction == "ZeroBarStandard"
    assert fam.word.render() == "beta gamma alpha mu-"
    assert fam.band.render() == barbell_brick_family(classify_node_free(q)).band.render()


def test_barbell_family_when_the_bar_starts_direct(corpus):
    # gb22's bar theta starts with a direct letter: the family word runs
    # along both cycles forwards
    label = classify_node_free(corpus["gb22"])
    assert label.value == "Barbell" and label.detail["bar"].render() == "theta"
    fam = barbell_brick_family(label)
    assert fam.construction == "BarbellStandard"
    assert fam.word.render() == "theta- gamma delta theta alpha beta"
    assert fam.verified_exponents == (1, 2, 3)
    assert _fourth_power_is_a_brick(fam.word)


def test_hereditary_family(corpus):
    q = corpus["atilde5"]
    fam = barbell_brick_family(classify_node_free(q))
    assert fam.construction == "HereditaryAn"
    assert fam.verified_exponents == (1, 2, 3)
    assert fam.band.length() == 6
    assert _fourth_power_is_a_brick(fam.word)


def test_family_requires_recognized_label():
    from stringalg.classify import ClassLabel

    with pytest.raises(QuiverError):
        barbell_brick_family(ClassLabel("Other"))


def test_unique_brick_band_scan(loops_barbell, windwheel):
    scan = unique_brick_band_scan(loops_barbell, 8)
    expected = canonical_band(word_from_text(loops_barbell, "theta gamma- theta- alpha-"))
    assert scan == [expected]
    assert unique_brick_band_scan(windwheel, 2 * len(windwheel.arrows)) == []


@pytest.mark.parametrize("m_max", [0, -1])
def test_brick_scans_reject_an_empty_range_of_exponents(m_max):
    # an empty range would make all() pass every band, so the certificate's
    # powers are fixed, start at 1 and take no bound; this band has no brick
    # rotation even at power 1
    assert BRICK_POWERS[0] == 1 and m_max not in BRICK_POWERS
    q = load_fixture("bongartz_ag_1_1")
    (band,) = enumerate_bands(q, 8)
    rep = band.representative
    assert not any(is_brick(base.rotate(k)) for base in (rep, rep.inverse()) for k in range(len(rep)))
    assert brick_rotation(band) is None
    assert unique_brick_band_scan(q, 8) == []
    with pytest.raises(TypeError):
        brick_rotation(band, m_max)


def long_bar_family_bands():
    """The minimal bands of the family shapes with long bars:
    ``bongartz_e(p, q, r)`` for p <= 3, q <= 2 and r = 3..6,
    ``bongartz_glued(p, q)`` for p, q <= 3 and ``double_cycle(n)`` for n <= 7."""
    shapes = [bongartz_e(p, q, r) for p in range(1, 4) for q in range(1, 3) for r in range(3, 7)]
    shapes += [bongartz_glued(p, q) for p in range(1, 4) for q in range(1, 4)]
    shapes += [double_cycle(n) for n in range(1, 8)]
    return [b for q in shapes for b in enumerate_bands(q)]


def test_band_brick_test_agrees_with_the_power_proxy(corpus):
    # tau's Infinite witness is brick_rotation(b) of the first band that
    # is_band_brick accepts: the proxy must find a rotation exactly then.
    # A rotation proves a band brick (brick_rotation's docstring); the other
    # direction is lemma (S), sampled here, with three powers beyond the
    # checked ones
    old = fixture_bands(corpus) + seeded_bands(seed=12)
    bands = old + long_bar_family_bands()
    flags = [is_band_brick(b) for b in bands]
    rotations = [brick_rotation(b) for b in bands]
    assert flags == [r is not None for r in rotations]
    assert all(is_brick(r.power(m)) for r in rotations if r is not None for m in (4, 5, 6))
    assert (len(old), sum(flags[: len(old)])) == (353, 150)
    assert (len(bands), sum(flags)) == (397, 158)


def test_full_cycle_band_qualifies_on_small_cycle():
    kron = load_fixture("bongartz_a_1_1")
    scan = unique_brick_band_scan(kron, 8)
    assert len(scan) == 1
    rot = brick_rotation(scan[0])
    assert rot is not None and len(rot) == 2


def test_brick_flags_agree_with_oracle_on_more_fixtures(corpus):
    checked = 0
    for name, q in corpus.items():
        if not validate_string_algebra(q).holds:
            continue
        for w in enumerate_strings(q, 6):
            checked += 1
            assert is_brick(w) == (end_dim_linear(string_module(w)) == 1), (name, w.render())
    assert checked == 1795


def test_census_sees_the_witness_family(corpus):
    q = corpus["zero_bar_gb"]
    report = brick_census(q, 12)
    for m in (1, 2, 3):
        assert report.per_length[4 * m][1] >= 1


def test_census_brick_counts_agree_with_public_is_brick(corpus):
    from stringalg.graphmaps import is_brick
    from stringalg.words import enumerate_strings

    checked = 0
    for name, q in corpus.items():
        if not validate_string_algebra(q).holds:
            continue
        expected = {l: [0, 0] for l in range(9)}
        for w in enumerate_strings(q, 8):
            expected[len(w)][0] += 1
            expected[len(w)][1] += is_brick(w)
        got = brick_census(q, 8).per_length
        assert {l: list(v) for l, v in got.items()} == expected, name
        checked += 1
    assert checked == 25


def _public_counts(q, max_len):
    from stringalg.graphmaps import is_brick
    from stringalg.words import enumerate_strings

    counts = {l: [0, 0] for l in range(max_len + 1)}
    for w in enumerate_strings(q, max_len):
        counts[len(w)][0] += 1
        counts[len(w)][1] += is_brick(w)
    return counts


def test_census_kernel_agrees_with_public_is_brick_to_length_9(corpus):
    checked = 0
    for name, q in corpus.items():
        if not validate_string_algebra(q).holds:
            continue
        got = {l: list(v) for l, v in brick_census(q, 9).per_length.items()}
        assert got == _public_counts(q, 9), name
        checked += 1
    assert checked == 25


@pytest.mark.parametrize(
    "build, max_len",
    [
        (lambda: bongartz_e(2, 1, 2), 21),
        (lambda: bongartz_e(1, 1, 1), 12),
        (lambda: load_fixture("double_a4"), 30),
        (lambda: load_fixture("windwheel_a12"), 39),
    ],
    ids=["bongartz_e_2_1_2", "bongartz_e_1_1_1", "double_a4", "windwheel_a12"],
)
def test_census_kernel_agrees_with_public_is_brick_on_tau_windows(build, max_len):
    # three times the longest band length of each input, well past where
    # its brick walk runs out
    q = build()
    got = {l: list(v) for l, v in brick_census(q, max_len).per_length.items()}
    expected = _public_counts(q, max_len)
    assert got == expected
    assert sum(b for _, b in expected.values()) > len(q.vertices)  # not only lazy bricks


@settings(max_examples=150, derandomize=True, deadline=None)
@given(special_quivers(), st.integers(min_value=0, max_value=8))
def test_census_kernel_agrees_with_public_is_brick_on_random_quivers(q, max_len):
    # infinite-dimensional algebras, which the corpus lacks, and random mixes
    # of loops and length-3 relations: they exercise the window counts and
    # the twin pointers
    got = {l: list(v) for l, v in brick_census(q, max_len).per_length.items()}
    assert got == _public_counts(q, max_len), q.to_text()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(special_quivers(), st.integers(min_value=0, max_value=8))
def test_no_brick_from_where_the_walk_runs_out_on_random_quivers(q, max_len):
    exhausted_at = brick_census(q, max_len).exhausted_at
    assert exhausted_at == _reference_exhausted_at(q, max_len), q.to_text()
    if exhausted_at is None:
        return
    longer = [w for w in enumerate_strings(q, max_len + 4) if len(w) >= exhausted_at]
    assert not any(is_brick(w) for w in longer), q.to_text()


def _reference_exhausted_at(q, max_len):
    """Where the brick walk runs out, recomputed per prefix: a prefix passes when no
    quotient middle with a right neighbour inside it has the key of such a
    submodule middle.  With L the longest code walk of length at most
    ``max_len - 1`` whose prefixes all pass, the walk runs out at L + 1
    when that is below ``max_len``."""
    steps = _steps(q)
    width = 2 * len(q.arrows)

    def passes(c):
        key = _key_function(c, StringWord(q, c).walk_vertices())
        quotient = {key(i, j) for i, j in _splits(c, 1) if j < len(c)}
        return quotient.isdisjoint(key(i, j) for i, j in _splits(c, 0) if j < len(c))

    longest = 0
    stack = [(x,) for x in range(width)] if max_len > 1 else []
    while stack:
        c = stack.pop()
        if not passes(c):
            continue
        longest = max(longest, len(c))
        if len(c) < max_len - 1:
            grown = (c + (y,) for y in range(width))
            stack.extend(e for e in grown if _step_ok(steps, e, len(c)))
    return longest + 1 if longest + 1 < max_len else None


def test_exhausted_at_agrees_with_a_reference_on_the_corpus(corpus):
    # tau's walk of 2 |Q1| + 2, up to 20: far enough for windwheel_a12 (18)
    found = {}
    for name, q in corpus.items():
        if not validate_string_algebra(q).holds:
            continue
        max_len = min(2 * len(q.arrows) + 2, 20)
        found[name] = brick_census(q, max_len).exhausted_at
        assert found[name] == _reference_exhausted_at(q, max_len), name
    assert len(found) == 25
    assert sorted(v for v in found.values() if v is not None) == [2, 3, 4, 5, 6, 6, 11, 18]


@pytest.mark.parametrize("r", [3, 4])
def test_exhausted_at_agrees_with_a_reference_on_long_bars(r):
    # bongartz_e(1, 1, r) runs out at 3r + 3 = 3 |Q1| - 3, deeper than the corpus walks
    q = bongartz_e(1, 1, r)
    expected = _reference_exhausted_at(q, 3 * r + 6)
    assert expected == 3 * r + 3
    assert brick_census(q, 3 * r + 6).exhausted_at == expected


def test_deep_walk_to_the_census_bound():
    # the brick walk is iterative: a walk to length 1000 needs no recursion
    q = load_fixture("a9")
    report = brick_census(q, 1000)
    assert report.exhausted_at is None
    got = {l: list(report.per_length[l]) for l in range(61)}
    assert got == _public_counts(q, 60)


_INFINITE_FIXTURES = (
    "a9 atilde5 atilde5_pendant barbell_a9 barbell_a9b bongartz_a_1_1 bongartz_a_2_1 disjoint_bands"
    " double_a1 double_a3 gb22 lambda2 lambda3 lambda4 loops_barbell zero_bar_gb"
).split()


@pytest.mark.parametrize("name", _INFINITE_FIXTURES)
def test_infinite_fixtures_do_not_run_out(name):
    q = load_fixture(name)
    assert tau_finiteness(q).value == "Infinite"
    assert brick_census(q, 2 * len(q.arrows) + 2).exhausted_at is None


def test_big_gentle_does_not_run_out_at_length_16(big_gentle):
    # the seventeenth Infinite fixture; a walk to its 2 |Q1| + 2 = 82 costs seconds
    assert tau_finiteness(big_gentle).value == "Infinite"
    assert brick_census(big_gentle, 16).exhausted_at is None


# the brick-finite shapes of double_cycle, bongartz_glued and bongartz_e in
# the benchmark's family list, with their two orientations
_FINITE_FAMILY_SHAPES = (
    [double_cycle(n) for n in (2, 4)]
    + [bongartz_glued(p, q) for p, q in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (4, 4))]
    + [bongartz_glued(q, p) for p, q in ((2, 1), (3, 2), (4, 2), (4, 3))]
    + [
        bongartz_e(*p)
        for p in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2))
    ]
)


@pytest.mark.parametrize("q", _FINITE_FAMILY_SHAPES, ids=lambda q: q.name)
def test_finite_family_shapes_run_out_by_twice_the_arrows(q):
    exhausted_at = brick_census(q, 2 * len(q.arrows) + 2).exhausted_at
    assert exhausted_at is not None and exhausted_at <= 2 * len(q.arrows) + 1


# the shapes with long bars; on 22 of these 36 the walk has not run out
# below 2 |Q1| + 2
_LONG_BAR_SHAPES = (
    [bongartz_e(p, q, r) for p in range(1, 4) for q in range(1, 3) for r in range(3, 7)]
    + [bongartz_glued(p, q) for p in range(1, 4) for q in range(1, 4)]
    + [double_cycle(n) for n in (2, 4, 6)]
)


def test_finite_witness_runs_out_on_long_bar_shapes():
    # tau walks until no entry passes, so its Finite witness is a length
    runs_out = {}
    for q in _LONG_BAR_SHAPES:
        w = tau_finiteness(q).witness
        assert w["kind"] == "brick-walk", q.name
        e = runs_out[q.name] = w["exhausted_at"]
        assert isinstance(e, int), q.name
        assert brick_census(q, e + 3).exhausted_at == e, q.name
    assert [runs_out[f"bongartz_e_1_1_{r}"] for r in range(3, 7)] == [12, 15, 18, 21]  # 3r + 3
    # and no string brick of the lengths e to e + 2, by the public brick test
    for q in (bongartz_e(1, 1, 3), bongartz_e(2, 1, 3), bongartz_e(1, 2, 4)):
        e = runs_out[q.name]
        longer = [w for w in enumerate_strings(q, e + 2) if len(w) >= e]
        assert longer and not any(is_brick(w) for w in longer), q.name

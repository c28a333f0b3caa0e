import pytest
from hypothesis import given, settings, strategies as st

from stringalg.fixtures import load_fixture
from stringalg.quiver import MONOMIAL, QuiverError, monomialize, parse_quiver
from stringalg.words import (
    Letter,
    StringWord,
    WordError,
    band_exists,
    _is_canonical,
    canonical_band,
    enumerate_bands,
    enumerate_strings,
    is_band,
    is_string,
    lazy_word,
    string_module,
    word_from_text,
)
from test_step_table import special_quivers


def _word(q, letters):
    """The word of a walk given in letters, built from its letter codes."""
    return StringWord(q, tuple(2 * q.arrow_index[l.arrow] + l.inverse for l in letters))


def test_seven_vertex_walk_is_a_string(lambda2):
    w = word_from_text(lambda2, "alpha- eps delta- gamma- beta eps")
    assert is_string(w)


def test_backtrack_is_not_a_string(lambda2):
    w = word_from_text(lambda2, "gamma- gamma")
    assert not is_string(w)


def test_relation_factor_is_not_a_string(lambda3):
    w = word_from_text(lambda3, "beta alpha")
    assert not is_string(w)


def canonical_string(w):
    """The smaller of ``w`` and its inverse, the orientation ``_is_canonical`` keeps."""
    return w if not w.codes or _is_canonical(w.codes) else w.inverse()


def test_canonical_string_identifies_inverses(lambda2):
    u = word_from_text(lambda2, "delta- gamma- beta eps")
    assert canonical_string(u) == canonical_string(u.inverse())
    assert canonical_string(canonical_string(u)) == canonical_string(u)
    e = lazy_word(lambda2, "4")
    assert canonical_string(e) == e


def test_render_parse_round_trip(lambda2):
    for text in ("alpha- eps delta- gamma- beta eps", "delta- gamma- beta eps", "e(5)"):
        w = word_from_text(lambda2, text)
        assert word_from_text(lambda2, w.render()).letters == w.letters


def test_enumerate_strings_smallest_cases():
    one = parse_quiver("quiver one\nvertices: x\n")
    assert [w.render() for w in enumerate_strings(one, 3)] == ["e(x)"]
    kron = load_fixture("bongartz_a_1_1")
    assert len(enumerate_strings(kron, 1)) == 4  # two lazy words, two arrows


def test_enumerate_strings_lambda3_against_recursive_oracle(lambda3):
    got = enumerate_strings(lambda3, 6)
    assert len(got) == 67

    # independent generator: grow words on both ends recursively
    def all_letters(q):
        from stringalg.words import Letter

        return [Letter(a.name, inv) for a in q.arrows for inv in (False, True)]

    seen = set()

    def composable(a, b):
        ae = lambda3.arrow_by_name[a.arrow]
        be = lambda3.arrow_by_name[b.arrow]
        return (ae.src if a.inverse else ae.tgt) == (be.tgt if b.inverse else be.src)

    def grow(letters):
        if len(letters) > 6:
            return
        from stringalg.words import StringWord

        if letters:
            w = _word(lambda3, letters)
            if not is_string(w):
                return
            seen.add(canonical_string(w).sort_key())
        for l in all_letters(lambda3):
            if letters and not composable(letters[-1], l):
                continue
            grow(list(letters) + [l])

    grow([])
    lazies = len(lambda3.vertices)
    assert len(got) == len(seen) + lazies


def test_band_recognition(lambda3):
    u = word_from_text(lambda3, "eps delta- gamma- beta")
    assert is_band(u)
    assert not is_band(u.power(2))
    assert not is_band(lazy_word(lambda3, "1"))


def test_band_counts_examples(lambda3, lambda4):
    assert len(enumerate_bands(lambda3, 12)) == 1
    assert len(enumerate_bands(lambda4, 12)) == 2
    d2 = load_fixture("double_a2")
    bands = enumerate_bands(d2, 12)
    assert len(bands) == 1 and bands[0].length() == 6


def test_band_existence(corpus, windwheel):
    assert band_exists(corpus["atilde5"])
    assert not band_exists(corpus["linear_a5"])
    assert len(enumerate_bands(windwheel, 2 * len(windwheel.arrows))) == 1


def test_bands_past_twice_the_arrows_are_the_default_list(corpus):
    for name, q in corpus.items():
        q = monomialize(q)  # bands need monomial relations
        default = enumerate_bands(q)
        for max_len in range(2 * len(q.arrows), 2 * len(q.arrows) + 4):
            assert enumerate_bands(q, max_len) == default, (name, max_len)


def test_enumerate_bands_respects_its_bound():
    q = parse_quiver("quiver loop\nvertices: x\narrow a: x -> x\n")
    with pytest.raises(QuiverError, match="max_len must be at least 0"):
        enumerate_bands(q, -3)
    assert enumerate_bands(q, 0) == []
    assert [b.render() for b in enumerate_bands(q, 1)] == ["a"]


def _bands_by_unused_codes(q, max_len):
    """The codes of the band classes up to ``max_len`` that support each
    letter at most once, found the long way: every code is a root, any
    unused code that composes is a next step, and ``is_band`` judges each
    string met."""
    ends = [e for a in q.arrows for e in ((a.src, a.tgt), (a.tgt, a.src))]
    classes = set()
    frontier = [(x,) for x in range(len(ends))]
    while frontier:
        c = frontier.pop()
        if len(c) > max_len:
            continue
        w = StringWord(q, c)
        if not is_string(w):
            continue
        if is_band(w):
            classes.add(canonical_band(w).representative.codes)
        after = ends[c[-1]][1]
        frontier.extend(c + (y,) for y in range(len(ends)) if y not in c and ends[y][0] == after)
    return sorted(classes, key=lambda c: (len(c), c))


def _check_bands_against_unused_codes(q):
    # the reference at a bound meets exactly the walks of the reference at
    # a higher bound that are that short: one run serves every bound
    top = 2 * len(q.arrows) + 1
    reference = _bands_by_unused_codes(q, top)
    for max_len in range(top + 1):
        got = [b.representative.codes for b in enumerate_bands(q, max_len)]
        assert got == [c for c in reference if len(c) <= max_len], (q.to_text(), max_len)


def test_bands_against_a_search_from_every_code(corpus):
    for q in map(monomialize, corpus.values()):  # bands need monomial relations
        _check_bands_against_unused_codes(q)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(special_quivers())
def test_bands_against_a_search_from_every_code_on_random_quivers(q):
    _check_bands_against_unused_codes(q)


def test_string_module_shapes(lambda2):
    e = string_module(lazy_word(lambda2, "3"))
    assert e.dims == {"1": 0, "2": 0, "3": 1, "4": 0, "5": 0}
    assert all(all(x == 0 for row in m for x in row) for m in e.mats.values())
    w = word_from_text(lambda2, "alpha- eps delta- gamma- beta eps")
    m = string_module(w)
    assert m.total_dim() == 7
    assert m.dims["5"] == 2 and m.dims["2"] == 2
    mi = string_module(w.inverse())
    assert mi.dims == m.dims


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_band_normal_form_under_rotation_and_inversion(data):
    name = data.draw(st.sampled_from(["lambda3", "lambda4", "loops_barbell", "windwheel_a12", "barbell_a9"]))
    q = load_fixture(name)
    bands = enumerate_bands(q, 2 * len(q.arrows))
    b = data.draw(st.sampled_from(bands))
    k = data.draw(st.integers(min_value=0, max_value=b.length() - 1))
    rotated = b.representative.rotate(k)
    assert canonical_band(rotated) == b
    assert canonical_band(rotated.inverse()) == b


@pytest.mark.parametrize("name", ["lambda3", "lambda4", "loops_barbell", "barbell_a9", "windwheel_a12"])
def test_band_power_closure(name):
    q = load_fixture(name)
    for b in enumerate_bands(q, 2 * len(q.arrows)):
        for m in (2, 3, 4):
            assert is_string(b.representative.power(m))
        codes = b.representative.codes
        assert len(set(codes)) == len(codes)  # each arrow once per direction


@pytest.mark.parametrize("name", ["lambda3", "lambda4", "loops_barbell", "barbell_a9", "windwheel_a12"])
def test_band_existence_bound_agreement(name):
    q = load_fixture(name)
    assert band_exists(q) == bool(enumerate_bands(q))


def test_enumerated_strings_are_canonical(lambda4):
    for w in enumerate_strings(lambda4, 5):
        assert is_string(w)
        assert canonical_string(w) == w


def _path_matrix(rep, path):
    """The matrix of a path (traversal order) on ``rep``: the product of
    its arrows' matrices, the first applied arrow rightmost."""
    m = rep.mats[path[0]]
    for name in path[1:]:
        cols = len(m[0]) if m else 0
        m = [[sum(r[k] * m[k][j] for k in range(len(m))) for j in range(cols)] for r in rep.mats[name]]
    return m


def test_relation_matrices_vanish_on_fixture_strings(corpus):
    # string_module trusts is_string for (S2); check it with matrix products
    for name in ("lambda2", "lambda3", "lambda4", "loops_barbell"):
        q = corpus[name]
        assert q.monomials
        for w in enumerate_strings(q, 8):
            rep = string_module(w)
            for path in q.monomials:
                assert not any(x for row in _path_matrix(rep, path) for x in row), (name, w.render(), path)


def test_string_module_rejects_a_commutativity_relation(corpus):
    q = corpus["lambda1"]
    w = StringWord(q, (0,))  # the first arrow
    with pytest.raises(QuiverError, match="commutativity relation"):
        string_module(w)


def test_non_composable_word_rejected(lambda2):
    with pytest.raises(WordError):
        word_from_text(lambda2, "beta alpha-")


def _ends(q, l):
    a = q.arrow_by_name[l.arrow]
    return (a.tgt, a.src) if l.inverse else (a.src, a.tgt)


def _composable_walks(q, max_len):
    """Every composable letter walk of length 1..max_len, backtracks included."""
    letters = [Letter(a.name, inv) for a in q.arrows for inv in (False, True)]
    level = [(l,) for l in letters]
    for _ in range(max_len):
        yield from level
        level = [w + (l,) for w in level for l in letters if _ends(q, w[-1])[1] == _ends(q, l)[0]]


def _string_by_runs(q, letters):
    """(S1) on neighbours; (S2) by searching each maximal run's path for a
    relation factor."""
    if any(a.arrow == b.arrow and a.inverse != b.inverse for a, b in zip(letters, letters[1:])):
        return False
    runs = []
    for l in letters:
        if runs and runs[-1][0] == l.inverse:
            runs[-1][1].append(l.arrow)
        else:
            runs.append((l.inverse, [l.arrow]))
    rels = [r.path1 for r in q.relations if r.kind == MONOMIAL]
    for inverse, arrows in runs:
        path = tuple(reversed(arrows)) if inverse else tuple(arrows)
        for rel in rels:
            if any(path[i : i + len(rel)] == rel for i in range(len(path) - len(rel) + 1)):
                return False
    return True


def _band_by_powers(q, letters):
    n = len(letters)
    closed = _ends(q, letters[0])[0] == _ends(q, letters[-1])[1]
    primitive = not any(n % d == 0 and letters == letters[:d] * (n // d) for d in range(1, n))
    return closed and primitive and all(_string_by_runs(q, letters * k) for k in range(1, 5))


@pytest.mark.parametrize("name", ["lambda3", "windwheel_a12", "bongartz_e_2_1_2"])
def test_string_axioms_against_run_search(name):
    q = load_fixture(name)
    walks = strings = 0
    for letters in _composable_walks(q, 7):
        w = _word(q, letters)
        expected = _string_by_runs(q, letters)
        assert is_string(w) == expected, w
        assert is_band(w) == _band_by_powers(q, letters), w
        walks += 1
        strings += expected
    assert 0 < strings < walks


def _pair_form(q, letters):
    return tuple((q.arrow_index[l.arrow], l.inverse) for l in letters)


def _reversed_inverse(letters):
    return tuple(Letter(l.arrow, not l.inverse) for l in reversed(letters))


def _least_rotation(q, letters):
    """The band class of a closed walk: its least rotation over the walk and
    its inverse, in the (arrow index, inverse) order."""
    rotations = [x[k:] + x[:k] for x in (letters, _reversed_inverse(letters)) for k in range(len(letters))]
    return min(rotations, key=lambda r: _pair_form(q, r))


@pytest.mark.parametrize("name", ["lambda3", "windwheel_a12", "bongartz_e_2_1_2"])
def test_enumerators_against_run_search(name):
    q = load_fixture(name)
    strings, bands = set(), set()
    for letters in _composable_walks(q, 7):
        if _string_by_runs(q, letters):
            strings.add(min(letters, _reversed_inverse(letters), key=lambda x: _pair_form(q, x)))
        if _band_by_powers(q, letters):
            bands.add(_least_rotation(q, letters))
    got = enumerate_strings(q, 7)
    assert [w.basepoint for w in got if not w.letters] == list(q.vertices)
    assert [w.letters for w in got if w.letters] == sorted(strings, key=lambda x: (len(x), _pair_form(q, x)))
    once = [b for b in bands if len(set(b)) == len(b)]
    assert sorted(b.representative.letters for b in enumerate_bands(q, 7)) == sorted(once)


# -- word operations against a reference built from letters ---------------------


def _ref_walk(q, letters):
    return [_ends(q, letters[0])[0]] + [_ends(q, l)[1] for l in letters]


def _ref_render(letters):
    return " ".join(l.arrow + ("-" if l.inverse else "") for l in reversed(letters))


def _ref_parse(text):
    return tuple(Letter(t.rstrip("-"), t.endswith("-")) for t in reversed(text.split()))


def _ref_sort_key(q, letters):
    return (len(letters), tuple(2 * q.arrow_index[l.arrow] + l.inverse for l in letters), -1)


def _check_word(q, w, steps):
    """Every walk operation of ``w`` against the same operation on letters;
    ``steps`` pairs each letter with its one-letter word."""
    letters = _ref_parse(w.render())
    assert w.letters == letters
    assert _ref_render(letters) == w.render()
    assert word_from_text(q, w.render()) == w
    n = len(letters)
    walk = _ref_walk(q, letters)
    assert w.walk_vertices() == walk
    assert (w.source, w.target) == (walk[0], walk[-1])
    assert w.supported_arrows() == {l.arrow for l in letters}
    direct = {l.arrow for l in letters if not l.inverse}
    assert w.double_supported_arrows() == direct & {l.arrow for l in letters if l.inverse}
    assert w.sort_key() == _ref_sort_key(q, letters)
    inv = w.inverse()
    assert inv.letters == _reversed_inverse(letters)
    assert (inv.source, inv.target) == (walk[-1], walk[0])
    for m in (1, 2, 3):
        assert w.power(m).letters == letters * m
    for k in range(-1, n + 1):
        assert w.rotate(k).letters == letters[k % n :] + letters[: k % n]
    for i in range(n + 1):
        lazy = w.slice(i, i)
        assert (lazy.letters, lazy.basepoint, lazy.sort_key()) == ((), walk[i], (0, (), q.vertex_index[walk[i]]))
        assert lazy.walk_vertices() == [walk[i]]
        for j in range(i + 1, n + 1):
            assert w.slice(i, j).letters == letters[i:j]
        head, tail = w.slice(0, i), w.slice(i, n)
        assert (head.walk_vertices(), tail.walk_vertices()) == (walk[: i + 1], walk[i:])
        assert head.concat(tail) == w
    assert w.concat(lazy_word(q, walk[-1])) == w
    for l, step in steps:
        try:
            assert w.concat(step).letters == letters + (l,)
        except WordError:
            assert _ends(q, l)[0] != walk[-1]
        else:
            assert _ends(q, l)[0] == walk[-1]


@pytest.mark.parametrize("name", ["lambda2", "loops_barbell", "windwheel_a12", "big_gentle"])
def test_word_operations_against_letter_reference(name, corpus):
    q = corpus[name]
    letters = [Letter(a.name, inv) for a in q.arrows for inv in (False, True)]
    steps = [(l, word_from_text(q, _ref_render((l,)))) for l in letters]
    checked = 0
    for w in enumerate_strings(q, 6):
        if not len(w):
            assert (w.letters, w.walk_vertices(), w.render()) == ((), [w.basepoint], f"e({w.basepoint})")
            assert (w.inverse(), w.power(2), w.rotate(1)) == (w, w, w)
            assert word_from_text(q, w.render()) == w
            continue
        _check_word(q, w, steps)
        _check_word(q, w.inverse(), steps)
        checked += 1
    for band in enumerate_bands(q):
        rep = band.representative
        for base in (rep, rep.inverse()):
            for k in range(len(rep)):
                _check_word(q, base.rotate(k), steps)
                checked += 1
    assert checked > len(q.arrows)

import itertools
import random

import pytest

from stringalg.fixtures import load_fixture
from stringalg.oracle import end_dim_linear
from stringalg.quiver import is_finite_dimensional, monomialize, validate_string_algebra
from stringalg.graphmaps import (
    _key_function,
    _splits,
    admissible_pairs,
    hom_dim,
    is_band_brick,
    is_brick,
)
from stringalg.words import (
    Letter,
    Representation,
    StringWord,
    canonical_band,
    enumerate_bands,
    enumerate_strings,
    is_band,
    lazy_word,
    word_from_text,
)

from test_step_table import random_string_quiver


def test_lazy_word_has_one_factorization_each_way(lambda3):
    e = lazy_word(lambda3, "2")
    assert len(_splits(e.codes, 1)) == 1
    assert len(_splits(e.codes, 0)) == 1


def test_single_direct_letter_splits(lambda3):
    g = word_from_text(lambda3, "gamma")
    # all three splits checked directly against the side conditions
    assert set(_splits(g.codes, 1)) == {(0, 0), (0, 1)}
    assert set(_splits(g.codes, 0)) == {(0, 1), (1, 1)}
    gi = word_from_text(lambda3, "gamma-")
    assert set(_splits(gi.codes, 1)) == {(0, 1), (1, 1)}
    assert set(_splits(gi.codes, 0)) == {(0, 0), (0, 1)}


def test_factorization_counts_invariant_under_inversion(lambda2):
    # inverting a factorization triple gives a factorization of the inverse
    # word of the same kind, so the counts match
    for w in enumerate_strings(lambda2, 5):
        wi = w.inverse()
        assert len(_splits(w.codes, 1)) == len(_splits(wi.codes, 1))
        assert len(_splits(w.codes, 0)) == len(_splits(wi.codes, 0))


def test_quotient_factorization_strips_the_correct_side(lambda2):
    w = word_from_text(lambda2, "alpha- eps delta- gamma- beta eps")
    u2 = word_from_text(lambda2, "delta- gamma- beta eps")
    assert (0, 4) in _splits(w.codes, 1)  # strip alpha- eps on the correct side
    assert w.slice(0, 4).letters == u2.letters


def test_hom_dimensions_example(lambda2):
    w = word_from_text(lambda2, "alpha- eps delta- gamma- beta eps")
    u = word_from_text(lambda2, "delta- gamma- beta eps")
    v = word_from_text(lambda2, "eps delta- gamma- beta")
    assert hom_dim(w, u) == 1
    assert hom_dim(u, w) == 0
    assert hom_dim(v, w) >= 1


def test_identity_is_the_only_lazy_endomorphism(lambda2):
    e = lazy_word(lambda2, "1")
    assert hom_dim(e, e) == 1
    assert is_brick(e)


def test_trivial_pair_always_present(lambda4):
    for w in enumerate_strings(lambda4, 5):
        basis = admissible_pairs(w, w)
        assert basis.dim >= 1
        assert basis.pairs.count((0, len(w), 0, len(w))) == 1


def test_brick_inversion_symmetry(lambda4):
    for w in enumerate_strings(lambda4, 6):
        assert is_brick(w) == is_brick(w.inverse())


def test_hom_invariant_under_simultaneous_inversion(lambda2):
    words = enumerate_strings(lambda2, 4)
    for u, v in itertools.islice(itertools.product(words, repeat=2), 400):
        assert hom_dim(u, v) == hom_dim(u.inverse(), v.inverse())


def test_barbell_powers_are_bricks():
    q = load_fixture("barbell_a9")
    w = word_from_text(
        q,
        "alpha1~beta1 alpha2~beta2- delta- mu gamma- alpha2~beta2 alpha1~beta1- beta- eps alpha-",
    )
    assert is_brick(w)
    assert is_brick(w.power(2))


def test_loops_barbell_band_with_wrong_start_is_never_a_brick(loops_barbell):
    # the simple at the left loop vertex sits in both top and socle
    v = word_from_text(loops_barbell, "theta gamma theta- alpha")
    assert not is_brick(v)
    assert not is_brick(v.power(2))


def test_substring_reduction_of_endomorphism_pairs(lambda2, lambda4, loops_barbell):
    # any nontrivial pair survives stripping the side words to the single
    # letters adjacent to the middle, as a pair between the substrings
    for q in (lambda2, lambda4, loops_barbell):
        for w in enumerate_strings(q, 7):
            basis = admissible_pairs(w, w)
            for pair in basis.pairs:
                n = len(w)
                if pair == (0, n, 0, n):
                    continue
                i, j, i2, j2 = pair
                u1, u3 = (1 if i else 0), (1 if j < n else 0)
                v1, v3 = (1 if i2 else 0), (1 if j2 < n else 0)
                up = w.slice(i - u1, j + u3)
                vp = w.slice(i2 - v1, j2 + v3)
                stripped = admissible_pairs(up, vp)
                assert (u1, u1 + j - i, v1, v1 + j2 - i2) in stripped.pairs


# -- the middle keys against a reference built from letters ---------------------


def _pair_key(q, letters):
    return tuple((q.arrow_index[l.arrow], int(l.inverse)) for l in letters)


def _reversed_inverse(letters):
    return tuple(Letter(l.arrow, not l.inverse) for l in reversed(letters))


def _reference_middle(w, i, j):
    """The middle ``w[i:j]`` up to inversion: the smaller of its letters and
    their reversed inverses in the (arrow index, inverse) order."""
    if i == j:
        return ("lazy", w.walk_vertices()[i])
    part = w.letters[i:j]
    return ("word", min(_pair_key(w.quiver, part), _pair_key(w.quiver, _reversed_inverse(part))))


KEY_FIXTURES = ["lambda2", "loops_barbell", "windwheel_a12", "big_gentle"]


@pytest.mark.parametrize("name", KEY_FIXTURES)
def test_middle_keys_agree_with_reference_forms(name, corpus):
    q = corpus[name]
    ref_of_key, key_of_ref = {}, {}
    for w in enumerate_strings(q, 6):
        key = _key_function(w.codes, w.walk_vertices())
        n = len(w)
        refs = {}
        for i in range(n + 1):
            for j in range(i, n + 1):
                k, ref = key(i, j), _reference_middle(w, i, j)
                # equal keys exactly when equal reference forms, across words
                assert ref_of_key.setdefault(k, ref) == ref, (w.render(), i, j)
                assert key_of_ref.setdefault(ref, k) == k, (w.render(), i, j)
                refs[(i, j)] = ref
        matches = [
            (f, g)
            for f in _splits(w.codes, 1)
            for g in _splits(w.codes, 0)
            if refs[f] == refs[g]
        ]
        assert admissible_pairs(w, w).dim == len(matches), w.render()
        assert is_brick(w) == (len(matches) == 1), w.render()


@pytest.mark.parametrize("name", KEY_FIXTURES)
def test_sort_key_is_the_letter_pair_order(name, corpus):
    q = corpus[name]

    def pair_sort_key(w):
        if not w.letters:
            return (0, (), q.vertex_index[w.basepoint])
        return (len(w), _pair_key(q, w.letters), -1)

    words = enumerate_strings(q, 6)
    assert words == sorted(words, key=pair_sort_key)
    pool = words + [w.inverse() for w in words if w.letters]
    assert sorted(pool, key=StringWord.sort_key) == sorted(pool, key=pair_sort_key)


def test_canonical_band_is_the_least_rotation(corpus):
    for q in map(monomialize, corpus.values()):  # bands need monomial relations
        for band in enumerate_bands(q):
            rep = band.representative
            for base in (rep, rep.inverse()):
                for k in range(len(rep)):
                    w = base.rotate(k)
                    rotations = [
                        x[t:] + x[:t]
                        for x in (w.letters, _reversed_inverse(w.letters))
                        for t in range(len(w))
                    ]
                    least = min(rotations, key=lambda r: _pair_key(q, r))
                    assert canonical_band(w).representative.letters == least, (q.name, w.render())


def test_admissible_pairs_come_out_in_split_order(corpus):
    # admissible_pairs does not sort: the quotient and submodule splits are
    # generated in ascending order, so the pairs' splits strictly increase
    count = 0
    for name in ("lambda2", "loops_barbell", "windwheel_a12", "lambda4"):
        ws = enumerate_strings(corpus[name], 5)
        for u, v in itertools.product(ws, ws):
            splits = admissible_pairs(u, v).pairs
            assert all(a < b for a, b in zip(splits, splits[1:])), (u, v)
            count += 1
    assert count == 12113


def test_brick_flags_agree_with_oracle_on_band_rotations(corpus):
    # long words the string enumerations never reach: every rotation of both
    # orientations of each band and of its square, up to length 16
    from stringalg.oracle import end_dim_linear
    from stringalg.quiver import validate_string_algebra
    from stringalg.words import string_module

    checked = bricks = 0
    for name, q in corpus.items():
        if not validate_string_algebra(q).holds:
            continue
        for band in enumerate_bands(q):
            rep = band.representative
            for base in (rep, rep.inverse()):
                for k in range(len(rep)):
                    r = base.rotate(k)
                    for w in (r, r.power(2)):
                        if len(w) > 16:
                            continue
                        flag = is_brick(w)
                        assert flag == (end_dim_linear(string_module(w)) == 1), (name, w.render())
                        checked += 1
                        bricks += flag
    assert (checked, bricks) == (938, 286)


def band_module(band, lam: int) -> Representation:
    """M(b, lam, 1): the closed walk of the representative with its last
    vertex glued to its first, one basis vector per visit, identity maps
    along the letters and ``lam`` on the last one."""
    w = band.representative
    q, n = w.quiver, len(w)
    dims = {v: 0 for v in q.vertices}
    slot = []
    for v in w.walk_vertices()[:-1]:
        slot.append(dims[v])
        dims[v] += 1
    mats = {a.name: [[0] * dims[a.src] for _ in range(dims[a.tgt])] for a in q.arrows}
    for i, x in enumerate(w.codes):
        here, there = slot[i], slot[(i + 1) % n]
        value = lam if i == n - 1 else 1
        if x & 1:  # the walk runs against the arrow
            mats[q.arrows[x >> 1].name][here][there] = value
        else:
            mats[q.arrows[x >> 1].name][there][here] = value
    return Representation(q, dims, mats)


def fixture_bands(corpus):
    """The minimal bands of every string algebra of the corpus."""
    algebras = [q for q in corpus.values() if validate_string_algebra(q).holds]
    return [b for q in algebras for b in enumerate_bands(q)]


def seeded_bands(seed: int = 11, count: int = 300, max_len: int = 8):
    """At least ``count`` band classes of random finite-dimensional string
    algebras (up to 6 vertices), non-minimal ones included: every band among
    the strings up to ``max_len``, in its least rotation."""
    rng = random.Random(seed)
    bands = []
    while len(bands) < count:
        q = random_string_quiver(rng, 6)
        if q.arrows and is_finite_dimensional(q):
            found = {canonical_band(w) for w in enumerate_strings(q, max_len) if is_band(w)}
            bands += sorted(found, key=lambda b: b.representative.codes)
    return bands


def test_band_brick_test_agrees_with_the_band_module(corpus):
    # End M(b, 2, 1) over Q by the oracle, on the band module built here
    bands = fixture_bands(corpus) + seeded_bands()
    flags = [is_band_brick(b) for b in bands]
    for b, flag in zip(bands, flags):
        linear = end_dim_linear(band_module(b, 2)) == 1
        assert flag == linear, (b.representative.quiver.to_text(), b.render())
    non_minimal = [f for b, f in zip(bands, flags) if len(set(b.representative.codes)) < b.length()]
    assert (len(bands), sum(flags)) == (354, 136)
    assert (len(non_minimal), sum(non_minimal)) == (117, 8)

import itertools
import random
from fractions import Fraction

import pytest

from stringalg.classify import brick_rotation
from stringalg.graphmaps import hom_dim
from stringalg.oracle import (
    SANITY_PRIME,
    _intertwiner_matrix,
    _rank_bareiss,
    end_dim_linear,
    hom_dim_linear,
)
from stringalg.quiver import QuiverError, parse_quiver, validate_string_algebra
from stringalg.words import (
    Representation,
    enumerate_bands,
    enumerate_strings,
    lazy_word,
    string_module,
    word_from_text,
)


def test_bareiss_rank_small_cases():
    assert _rank_bareiss([]) == 0
    assert _rank_bareiss([[0, 0], [0, 0]]) == 0
    assert _rank_bareiss([[1, 2], [2, 4]]) == 1
    assert _rank_bareiss([[1, 0, 1], [0, 1, 1], [1, 1, 0]]) == 3


def _rank_fraction(rows):
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_bareiss_rank_of_the_skip_witness():
    # a zero entry below the pivot once left its row unscaled while the
    # previous pivot was 1 and the new one was not; the next exact division
    # then floored, and the rank came out as 5
    rows = [
        [-1, 1, 0, 0, -1, 0, 0],
        [-1, 0, 1, -1, -1, 1, 0],
        [-1, 0, 1, 0, -1, 0, 0],
        [1, -1, 0, 0, 1, 1, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 0, -1],
        [-1, 0, -1, 0, -1, 0, 0],
    ]
    assert _rank_fraction(rows) == 6
    assert _rank_bareiss(rows) == 6


def _rank_mod(rows, p):
    """Rank over GF(p) by Gauss-Jordan elimination with modular inverses."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_bareiss_rank_against_fraction_elimination():
    rng = random.Random(20261018)
    for _ in range(3000):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        assert _rank_bareiss(rows) == _rank_fraction(rows), rows
        for p in (5, 32003):
            assert _rank_bareiss(rows, p) == _rank_mod(rows, p), (rows, p)


def _corank_2_sparse(rows, nvars):
    """The corank of a system with at most two nonzero entries per row, by
    union-find: each variable is tracked as x_i = r * x_root with a rational
    ratio r.  A row with one entry, or a row that closes a cycle whose ratios
    do not agree, forces its component to 0; every other component is a
    free line."""
    parent, ratio, zero = list(range(nvars)), [Fraction(1)] * nvars, [False] * nvars

    def find(i):
        if parent[i] == i:
            return i, Fraction(1)
        root, r = find(parent[i])
        parent[i], ratio[i] = root, ratio[i] * r
        return root, ratio[i]

    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x]
        assert len(entries) <= 2, row
        if not entries:
            continue
        (i, a), (j, b) = entries[0], entries[-1]
        (ri, si), (rj, sj) = find(i), find(j)
        if len(entries) == 1:
            zero[ri] = True
        elif ri != rj:
            # a si X_ri + b sj X_rj = 0
            parent[ri], ratio[ri] = rj, -b * sj / (a * si)
            zero[rj] = zero[rj] or zero[ri]
        elif a * si + b * sj:
            zero[ri] = True
    return sum(1 for i in range(nvars) if parent[i] == i and not zero[i])


def test_bareiss_corank_against_a_2_sparse_union_find(corpus):
    # string-pair intertwiner systems have at most two entries per row
    rng = random.Random(20261020)
    pools = [
        enumerate_strings(corpus[name], 8)
        for name in ("loops_barbell", "big_gentle", "windwheel_a12", "lambda2", "lambda3", "lambda4")
    ]
    for _ in range(2000):
        words = rng.choice(pools)
        rows, nvars = _intertwiner_matrix(string_module(rng.choice(words)), string_module(rng.choice(words)))
        assert nvars - _rank_bareiss(rows) == _corank_2_sparse(rows, nvars), rows
    for _ in range(5000):
        nvars = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 10)):
            row = [0] * nvars
            for j in rng.sample(range(nvars), rng.randint(1, min(2, nvars))):
                row[j] = rng.choice((1, -1, 2, -3))
            rows.append(row)
        assert nvars - _rank_bareiss(rows) == _corank_2_sparse(rows, nvars), rows


def test_bareiss_rank_mod_p_small_cases():
    assert _rank_bareiss([], 5) == 0
    assert _rank_bareiss([[5, 10], [0, 0]], 5) == 0
    assert _rank_bareiss([[1, 2], [3, 1]], 5) == 1  # det -5
    assert _rank_bareiss([[1, 2], [3, 1]]) == 2


def test_simple_module_endomorphisms(lambda3):
    s = string_module(lazy_word(lambda3, "2"))
    assert hom_dim_linear(s, s) == 1
    assert end_dim_linear(s) == 1


def test_hom_values_of_the_seven_dim_string(lambda2):
    w = string_module(word_from_text(lambda2, "alpha- eps delta- gamma- beta eps"))
    u = string_module(word_from_text(lambda2, "delta- gamma- beta eps"))
    assert hom_dim_linear(w, u, sanity=True) == 1
    assert hom_dim_linear(u, w, sanity=True) == 0


def test_non_brick_has_larger_endomorphism_ring(loops_barbell):
    bad = string_module(word_from_text(loops_barbell, "theta gamma theta- alpha"))
    assert end_dim_linear(bad) >= 2
    good = string_module(word_from_text(loops_barbell, "theta gamma- theta- alpha-"))
    assert end_dim_linear(good) == 1


def test_agreement_with_graph_maps_on_random_pairs(lambda4):
    words = enumerate_strings(lambda4, 5)
    mods = {w: string_module(w) for w in words}
    for u, v in itertools.islice(itertools.product(words, repeat=2), 600):
        assert hom_dim(u, v) == hom_dim_linear(mods[u], mods[v])


def test_sum_invariant_under_simultaneous_inversion(lambda2):
    words = enumerate_strings(lambda2, 4)[:12]
    for u, v in itertools.product(words, repeat=2):
        a = hom_dim_linear(string_module(u), string_module(v))
        b = hom_dim_linear(string_module(v), string_module(u))
        ai = hom_dim_linear(string_module(u.inverse()), string_module(v.inverse()))
        bi = hom_dim_linear(string_module(v.inverse()), string_module(u.inverse()))
        assert a + b == ai + bi


def test_characteristic_32003_sanity_mode(lambda3, loops_barbell):
    for q in (lambda3, loops_barbell):
        words = enumerate_strings(q, 5)
        mods = [string_module(w) for w in words]
        for u, v in itertools.islice(itertools.product(mods, repeat=2), 200):
            hom_dim_linear(u, v, sanity=True)  # raises on disagreement


def test_shape_mismatch_is_rejected(lambda2, lambda3):
    u = string_module(lazy_word(lambda2, "1"))
    # same vertex names, different bound quiver
    v = string_module(lazy_word(lambda3, "1"))
    with pytest.raises(QuiverError):
        hom_dim_linear(u, v)


def test_end_dimension_agrees_with_the_rational_rank(corpus):
    # End(M) is decided mod 32003 first when the corank there is 1; the
    # rational rank and the sanity mode must give the same dimension
    seen = set()
    for q in corpus.values():
        if not validate_string_algebra(q).holds:
            continue
        words = list(enumerate_strings(q, 6))
        for b in enumerate_bands(q):
            w = brick_rotation(b)
            if w is not None:
                words += [w.power(m) for m in (1, 2, 3)]
        for w in words:
            M = string_module(w)
            rows, nvars = _intertwiner_matrix(M, M)
            dim = end_dim_linear(M)
            assert dim == nvars - _rank_bareiss(rows), w.render()
            assert dim == hom_dim_linear(M, M, sanity=True), w.render()
            seen.add(dim == 1)
    assert seen == {True, False}  # both the shortcut and the fall-through ran


def test_end_shortcut_when_the_prime_divides_an_entry():
    q = parse_quiver("quiver one_arrow\nvertices: x y\narrow a: x -> y\n")
    # End(U) is 1-dimensional over Q, but every equation vanishes mod p
    U = Representation(q, {"x": 1, "y": 1}, {"a": [[SANITY_PRIME]]})
    rows, nvars = _intertwiner_matrix(U, U)
    assert nvars - _rank_bareiss(rows, SANITY_PRIME) == 2
    assert end_dim_linear(U) == 1
    with pytest.raises(ArithmeticError):
        hom_dim_linear(U, U, sanity=True)
    # Hom(A, B) = 0 over Q, while the modular corank is 1: applying the
    # End shortcut to distinct modules would answer 1
    A = Representation(q, {"x": 1, "y": 0}, {"a": []})
    B = Representation(q, {"x": 1, "y": 1}, {"a": [[SANITY_PRIME]]})
    rows, nvars = _intertwiner_matrix(A, B)
    assert nvars - _rank_bareiss(rows, SANITY_PRIME) == 1
    assert hom_dim_linear(A, B) == 0

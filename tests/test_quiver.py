import pytest
from hypothesis import example, given, settings, strategies as st

from stringalg.quiver import (
    Arrow,
    BoundQuiver,
    ParseError,
    QuiverError,
    Relation,
    is_finite_dimensional,
    monomialize,
    nodes,
    nonzero_paths,
    parse_quiver,
    quotient_by_arrow,
    quotient_by_parallel_pair,
    quotient_by_path,
    quotient_by_vertex,
    validate_gentle,
    validate_special_biserial,
    validate_string_algebra,
)
from stringalg.fixtures import load_fixture
from stringalg.words import band_exists


def test_parse_five_vertex_fixture(lambda3):
    assert len(lambda3.vertices) == 5
    assert len(lambda3.arrows) == 6
    assert len(lambda3.relations) == 3
    assert all(r.kind == "monomial" for r in lambda3.relations)


def test_parse_one_vertex_quiver():
    q = parse_quiver("quiver tiny\nvertices: x\n")
    assert q.vertices == ("x",)
    assert not q.arrows


def test_parse_rejects_non_composable_relation():
    text = "quiver bad\nvertices: 1 2\narrow a: 1 -> 2\nrel a a\n"
    with pytest.raises(ParseError):
        parse_quiver(text)


def test_parse_rejects_duplicates_and_dangling():
    with pytest.raises(ParseError):
        parse_quiver("quiver d\nvertices: 1 1\n")
    with pytest.raises(ParseError):
        parse_quiver("quiver d\nvertices: 1\narrow a: 1 -> 2\n")


@pytest.mark.parametrize(
    "vertices, arrows, message",
    [
        # vertex names the parser cannot produce, but the library can
        (["a\tb"], [], "empty or contains whitespace"),
        ([""], [], "empty or contains whitespace"),
        # "x x-" would read back as x followed by the inverse of x
        (["a", "b"], [Arrow("x-", "a", "b"), Arrow("x", "b", "a")], "ends in '-'"),
        # "e(a)" would read back as the lazy word at a
        (["a", "b"], [Arrow("e(a)", "a", "b")], "starts with 'e\\('"),
    ],
    ids=["tab-in-vertex", "empty-vertex", "arrow-ends-in-minus", "arrow-starts-with-e-paren"],
)
def test_names_the_word_syntax_cannot_read_back_are_rejected(vertices, arrows, message):
    with pytest.raises(QuiverError, match=message):
        BoundQuiver("bad", vertices, arrows)


def test_parse_rejects_colon_after_arrow():
    text = "quiver bad\nvertices: a b\narrow a -> b: x\n"
    with pytest.raises(ParseError, match="^line 3: expected 'arrow"):
        parse_quiver(text)


_DIRECTIVES = ("quiver ", "vertices:", "arrow ", "rel ", "comrel ", "")
_TOKENS = ("quiver", "vertices:", "arrow", "rel", "a", "b", "x", ":", "->", "=", "#", "")
_LINE = st.tuples(
    st.sampled_from(_DIRECTIVES),
    st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(("", " "))), max_size=6),
).map(lambda line: line[0] + "".join(token + gap for token, gap in line[1]))


@settings(max_examples=300, derandomize=True)
@given(st.lists(_LINE, max_size=8).map("\n".join))
@example("quiver q\nvertices: a b\narrow a -> b: x\n")
def test_any_token_text_parses_or_raises_parse_error(text):
    try:
        parse_quiver(text)
    except ParseError:
        pass


def test_parse_serialize_round_trip(corpus):
    for q in corpus.values():
        again = parse_quiver(q.to_text())
        assert again == q
        assert again.to_text() == q.to_text()


def test_validation_matrix(lambda1, lambda2, lambda3, lambda4):
    assert validate_special_biserial(lambda1).holds
    assert not validate_string_algebra(lambda1).holds
    assert validate_string_algebra(lambda2).holds
    assert not validate_gentle(lambda2).holds
    assert validate_gentle(lambda3).holds
    assert validate_gentle(lambda4).holds


def test_three_parallel_arrows_fail_degree_bound():
    q = BoundQuiver(
        "kron3",
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2")],
    )
    v = validate_special_biserial(q)
    assert not v.holds
    assert v.witnesses


def test_long_relation_breaks_gentleness():
    e = load_fixture("bongartz_e_1_1_1")
    assert validate_string_algebra(e).holds
    v = validate_gentle(e)
    assert not v.holds
    assert any("not quadratic" in w for w in v.witnesses)


def test_nodes_examples(big_gentle, corpus):
    assert nodes(corpus["double_a2"]) == {"0", "1", "2"}
    assert nodes(corpus["atilde5"]) == set()
    assert nodes(big_gentle) == {"b", "d", "e"}


def test_finite_dimensionality():
    loop = BoundQuiver("loop", ["x"], [Arrow("a", "x", "x")])
    assert not is_finite_dimensional(loop)
    loop2 = BoundQuiver("loop2", ["x"], [Arrow("a", "x", "x")], [Relation("monomial", ("a", "a"))])
    assert is_finite_dimensional(loop2)
    # a cubic relation still cuts the powers down to finitely many paths
    loop3 = BoundQuiver(
        "loop3", ["x"], [Arrow("a", "x", "x")], [Relation("monomial", ("a", "a", "a"))]
    )
    assert is_finite_dimensional(loop3)
    assert nonzero_paths(loop3) == [("a",), ("a", "a")]


def test_serial_zero_bar_is_infinite_dimensional():
    # two serial cycles at one vertex with only the two boundary relations
    q = BoundQuiver(
        "serial0",
        ["x"],
        [Arrow("a", "x", "x"), Arrow("b", "x", "x")],
        [Relation("monomial", ("a", "b")), Relation("monomial", ("b", "a"))],
    )
    assert not is_finite_dimensional(q)


def test_nonzero_paths_lambda3(lambda3):
    paths = nonzero_paths(lambda3)
    # independent oracle: exhaustive walk over composable arrow sequences,
    # dropping those with a relation as a factor
    rels = [r.path1 for r in lambda3.relations]

    def walk():
        out = []
        frontier = [(a.name,) for a in lambda3.arrows]
        while frontier:
            p = frontier.pop()
            if any(p[i : i + len(r)] == r for r in rels for i in range(len(p))):
                continue
            out.append(p)
            last = lambda3.arrow_by_name[p[-1]]
            frontier.extend(p + (b.name,) for b in lambda3.outgoing(last.tgt))
        return sorted(out)

    assert sorted(paths) == walk()
    assert len(paths) == 13


def test_quotient_by_vertex_and_arrow_reach_hereditary(lambda4):
    q = quotient_by_vertex(lambda4, "1")
    q = quotient_by_arrow(q, "theta")
    assert not q.relations
    assert band_exists(q)
    assert validate_gentle(q).holds


def test_quotient_off_the_band_preserves_it(corpus):
    q = corpus["atilde5_pendant"]
    assert band_exists(q)
    assert band_exists(quotient_by_vertex(q, "p"))


def test_parallel_pair_quotient_leaves_string_class(lambda4):
    q = quotient_by_parallel_pair(lambda4, ("eps", "beta"), ("delta", "gamma"))
    assert validate_special_biserial(q).holds
    assert not validate_string_algebra(q).holds
    mono = monomialize(q)
    assert validate_string_algebra(mono).holds


def test_quotient_by_dead_path_is_rejected(lambda3):
    with pytest.raises(QuiverError):
        quotient_by_path(lambda3, ("alpha", "beta"))
    with pytest.raises(QuiverError):
        quotient_by_arrow(lambda3, "nope")

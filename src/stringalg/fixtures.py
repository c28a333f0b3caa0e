"""Built-in fixture corpus: the worked example algebras plus parametric
families (doubled cycles, one-cycle/glued/bar quivers)."""

from __future__ import annotations

from importlib import resources

from .quiver import MONOMIAL, Arrow, BoundQuiver, QuiverError, Relation, parse_quiver
from .transforms import barify, glue
from .words import word_from_text


class UnknownFixtureError(QuiverError):
    """Raised when a fixture name is not in the corpus."""


def _file_fixture_names() -> list[str]:
    """The names of the ``.quiver`` files shipped in ``stringalg.data``."""
    files = resources.files("stringalg.data").iterdir()
    return [f.name[: -len(".quiver")] for f in files if f.name.endswith(".quiver")]


def load_file_fixture(name: str) -> BoundQuiver:
    text = resources.files("stringalg.data").joinpath(f"{name}.quiver").read_text()
    return parse_quiver(text)


def double_cycle(n: int) -> BoundQuiver:
    """Radical-square-zero double of an acyclic (n+1)-cycle: every length-2
    path vanishes and every vertex is a node."""
    verts = [str(i) for i in range(n + 1)]
    arrows = []
    for i in range(n):
        arrows.append(Arrow(f"g{i}", str(i), str(i + 1)))
        arrows.append(Arrow(f"g{i}s", str(i + 1), str(i)))
    arrows.append(Arrow(f"g{n}", "0", str(n)))
    arrows.append(Arrow(f"g{n}s", str(n), "0"))
    by_src: dict[str, list[str]] = {v: [] for v in verts}
    for a in arrows:
        by_src[a.src].append(a.name)
    rels = []
    for a in arrows:
        for b in by_src[a.tgt]:
            rels.append(Relation(MONOMIAL, (a.name, b)))
    return BoundQuiver(f"double_a{n}", verts, arrows, rels)


def bongartz_cycle(p: int, q: int) -> BoundQuiver:
    """Two directed paths of lengths p and q from a source to a sink."""
    verts = ["x"] + [f"l{i}" for i in range(1, p)] + [f"r{i}" for i in range(1, q)] + ["y"]
    arrows = []
    left = ["x"] + [f"l{i}" for i in range(1, p)] + ["y"]
    right = ["x"] + [f"r{i}" for i in range(1, q)] + ["y"]
    for i in range(p):
        arrows.append(Arrow(f"alpha{i + 1}", left[i], left[i + 1]))
    for i in range(q):
        arrows.append(Arrow(f"beta{i + 1}", right[i], right[i + 1]))
    return BoundQuiver(f"bongartz_a_{p}_{q}", verts, arrows)


def bongartz_glued(p: int, q: int) -> BoundQuiver:
    """The previous quiver with sink glued onto source (a nody algebra)."""
    return glue(bongartz_cycle(p, q), "y", "x").rename(f"bongartz_ag_{p}_{q}")


def bongartz_e(p: int, q: int, r: int) -> BoundQuiver:
    """One serial bar between two cycles, with the two quadratic relations
    at the bar ends and the long relation along the bar (a wind wheel)."""
    verts = ["x"] + [f"l{i}" for i in range(1, p)]
    verts += [f"m{i}" for i in range(1, r)] + ["y"] + [f"r{i}" for i in range(1, q)]
    arrows = []
    left = ["x"] + [f"l{i}" for i in range(1, p)] + ["x"]
    for i in range(p):
        arrows.append(Arrow(f"alpha{i + 1}", left[i], left[i + 1]))
    bar = ["x"] + [f"m{i}" for i in range(1, r)] + ["y"]
    for i in range(r):
        arrows.append(Arrow(f"theta{i + 1}", bar[i], bar[i + 1]))
    right = ["y"] + [f"r{i}" for i in range(1, q)] + ["y"]
    for i in range(q):
        arrows.append(Arrow(f"gamma{i + 1}", right[i], right[i + 1]))
    rels = [
        Relation(MONOMIAL, (f"alpha{p}", "alpha1")),
        Relation(MONOMIAL, (f"gamma{q}", "gamma1")),
        Relation(MONOMIAL, (f"alpha{p}",) + tuple(f"theta{i + 1}" for i in range(r)) + ("gamma1",)),
    ]
    return BoundQuiver(f"bongartz_e_{p}_{q}_{r}", verts, arrows, rels)


def barbell_a9() -> BoundQuiver:
    """First barification stage of the a9 fixture: the seven-vertex barbell
    with a non-serial bar of length two."""
    q = load_file_fixture("a9")
    v1 = word_from_text(q, "delta alpha2 alpha1- alpha")
    v2 = word_from_text(q, "gamma- beta2 beta1- beta-")
    return barify(q, v1, v2).rename("barbell_a9")


def barbell_a9_stage2() -> BoundQuiver:
    """Second barification stage: bar of length zero at the merged vertex."""
    q = barbell_a9()
    w1 = word_from_text(q, "alpha eps-")
    w2 = word_from_text(q, "mu- delta")
    return barify(q, w1, w2).rename("barbell_a9b")


_BUILDERS = {
    "double_a1": lambda: double_cycle(1),
    "double_a2": lambda: double_cycle(2),
    "double_a3": lambda: double_cycle(3),
    "double_a4": lambda: double_cycle(4),
    "bongartz_a_1_1": lambda: bongartz_cycle(1, 1),
    "bongartz_a_2_1": lambda: bongartz_cycle(2, 1),
    "bongartz_ag_1_1": lambda: bongartz_glued(1, 1),
    "bongartz_ag_2_1": lambda: bongartz_glued(2, 1),
    "bongartz_e_1_1_1": lambda: bongartz_e(1, 1, 1),
    "bongartz_e_2_1_2": lambda: bongartz_e(2, 1, 2),
    "barbell_a9": barbell_a9,
    "barbell_a9b": barbell_a9_stage2,
}


def fixture_names() -> list[str]:
    return sorted(set(_file_fixture_names()) | set(_BUILDERS))


def load_fixture(name: str) -> BoundQuiver:
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name in _file_fixture_names():  # never open a path built from an unknown name
        return load_file_fixture(name)
    raise UnknownFixtureError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")

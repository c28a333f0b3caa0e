"""Bound quivers: the data model, axiom validators and path machinery.

A bound quiver is a finite directed graph together with a list of zero
relations.  Relations are either monomial (a path that vanishes) or
commutativity relations (two parallel paths are identified, coefficient
fixed to 1).  Relation paths are stored in traversal order: the first
applied arrow comes first, so the classical composition ``beta . alpha``
is the tuple ``(alpha, beta)``.

One per-quiver step table on letter codes ``2*arrow_index + inverse``
(``_steps``) decides which walks survive the monomial relations: vanishing
paths, finite dimension, strings and band existence all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import NamedTuple, Sequence

MONOMIAL = "monomial"
COMMUTATIVITY = "commutativity"


class QuiverError(ValueError):
    """Raised on malformed quiver data or invalid operations."""


class ParseError(QuiverError):
    """Raised on malformed quiver files; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Relation:
    """A zero relation, stored as arrow-name tuples in traversal order."""

    kind: str
    path1: tuple[str, ...]
    path2: tuple[str, ...] = ()

    def arrows(self) -> tuple[str, ...]:
        return self.path1 + self.path2

    def key(self) -> tuple:
        """Equal for both orientations of a commutativity relation."""
        if self.kind == COMMUTATIVITY:
            return (self.kind, *sorted((self.path1, self.path2)))
        return (self.kind, self.path1, self.path2)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom check; ``holds`` iff ``witnesses`` is empty."""

    holds: bool
    witnesses: tuple[str, ...] = ()

    @staticmethod
    def from_witnesses(witnesses: Sequence[str]) -> "Verdict":
        return Verdict(not witnesses, tuple(witnesses))


class BoundQuiver:
    """Immutable bound quiver.

    Vertex and arrow declaration order is significant: it fixes the letter
    ordering used by every canonical form downstream.
    """

    def __init__(
        self,
        name: str,
        vertices: Sequence[str],
        arrows: Sequence[Arrow],
        relations: Sequence[Relation] = (),
    ):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.relations = tuple(relations)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._validate()
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self._outgoing: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        self._incoming: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._outgoing[a.src].append(a)
            self._incoming[a.tgt].append(a)
        self.monomials = tuple(r.path1 for r in self.relations if r.kind == MONOMIAL)
        self._derived: dict = {}

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError(f"duplicate vertex name in quiver {self.name!r}")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError(f"duplicate arrow name in quiver {self.name!r}")
        for n in (*self.vertices, *names):
            if n.split() != [n]:
                raise QuiverError(f"name {n!r} is empty or contains whitespace")
        for n in names:
            if n.endswith("-"):
                raise QuiverError(f"arrow name {n!r} ends in '-', which marks an inverse letter")
            if n.startswith("e("):
                raise QuiverError(f"arrow name {n!r} starts with 'e(', which marks a lazy word")
        vs = set(self.vertices)
        if vs & set(names):
            raise QuiverError("vertex and arrow names must be disjoint")
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise QuiverError(f"arrow {a.name!r} references a missing vertex")
        by_name = self.arrow_by_name
        for r in self.relations:
            for path in (r.path1,) + ((r.path2,) if r.kind == COMMUTATIVITY else ()):
                if len(path) < 2:
                    raise QuiverError(f"relation path {path} shorter than 2")
                for x, y in zip(path, path[1:]):
                    if x not in by_name or y not in by_name:
                        raise QuiverError(f"relation references unknown arrow in {path}")
                    if by_name[x].tgt != by_name[y].src:
                        raise QuiverError(
                            f"non-composable relation path {path}: "
                            f"{x} ends at {by_name[x].tgt}, {y} starts at {by_name[y].src}"
                        )
            if r.kind == COMMUTATIVITY:
                p1, p2 = r.path1, r.path2
                if not p2:
                    raise QuiverError("commutativity relation needs two paths")
                s1, e1 = by_name[p1[0]].src, by_name[p1[-1]].tgt
                s2, e2 = by_name[p2[0]].src, by_name[p2[-1]].tgt
                if (s1, e1) != (s2, e2):
                    raise QuiverError("parallel paths must share start and end")
                i1 = {by_name[x].tgt for x in p1[:-1]}
                i2 = {by_name[x].tgt for x in p2[:-1]}
                if i1 & i2:
                    raise QuiverError("parallel paths must not share interior vertices")
            elif r.kind != MONOMIAL:
                raise QuiverError(f"unknown relation kind {r.kind!r}")

    # -- basic structure -----------------------------------------------------

    def outgoing(self, v: str) -> list[Arrow]:
        return self._outgoing[v]

    def incoming(self, v: str) -> list[Arrow]:
        return self._incoming[v]

    def degree(self, v: str) -> int:
        return len(self._incoming[v]) + len(self._outgoing[v])

    def is_connected(self) -> bool:
        return len(self.component_vertex_sets()) <= 1

    def component_vertex_sets(self) -> list[set[str]]:
        """Connected components of the underlying undirected graph."""
        seen: set[str] = set()
        comps = []
        neighbours: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            neighbours[a.src].add(a.tgt)
            neighbours[a.tgt].add(a.src)
        for v in self.vertices:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in neighbours[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(comp)
        return comps

    def components(self) -> list["BoundQuiver"]:
        """Split into connected sub-bound-quivers, in vertex order."""
        sets = self.component_vertex_sets()
        if len(sets) <= 1:
            return [self]
        sets.sort(key=lambda s: min(self.vertex_index[v] for v in s))
        out = []
        for i, vs in enumerate(sets):
            out.append(self.restrict(vs, name=f"{self.name}.c{i}"))
        return out

    def restrict(
        self, vertex_set: set[str], name: str, arrow_set: set[str] | None = None
    ) -> "BoundQuiver":
        """Subquiver on ``vertex_set`` with the arrows between its vertices,
        only those in ``arrow_set`` if given; relations with lost arrows drop."""
        vs = [v for v in self.vertices if v in vertex_set]
        ar = [a for a in self.arrows if a.src in vertex_set and a.tgt in vertex_set]
        if arrow_set is not None:
            ar = [a for a in ar if a.name in arrow_set]
        keep = {a.name for a in ar}
        rel = [r for r in self.relations if all(x in keep for x in r.arrows())]
        return BoundQuiver(name, vs, ar, rel)

    # -- the ideal -----------------------------------------------------------

    def path_in_ideal(self, path: Sequence[str]) -> bool:
        """A composable path vanishes iff it contains a monomial generator
        as a factor: iff its direct codes break the step table's rule.

        Commutativity relations never kill a path on their own.
        """
        c = tuple(2 * self.arrow_index[x] for x in path)
        steps = _steps(self)
        return not all(_step_ok(steps, c, k) for k in range(len(c)))

    def is_path(self, path: Sequence[str]) -> bool:
        by = self.arrow_by_name
        if not path or any(x not in by for x in path):
            return False
        return all(by[x].tgt == by[y].src for x, y in zip(path, path[1:]))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"quiver {self.name}"]
        lines.append("vertices: " + " ".join(self.vertices))
        for a in self.arrows:
            lines.append(f"arrow {a.name}: {a.src} -> {a.tgt}")
        for r in self.relations:
            if r.kind == MONOMIAL:
                lines.append("rel " + " ".join(r.path1))
            else:
                lines.append("comrel " + " ".join(r.path1) + " = " + " ".join(r.path2))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        rels = []
        for r in self.relations:
            if r.kind == MONOMIAL:
                rels.append({"kind": MONOMIAL, "path": list(r.path1)})
            else:
                rels.append(
                    {"kind": COMMUTATIVITY, "path1": list(r.path1), "path2": list(r.path2)}
                )
        return {
            "name": self.name,
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "src": a.src, "tgt": a.tgt} for a in self.arrows],
            "relations": rels,
        }

    def rename(self, name: str) -> "BoundQuiver":
        return BoundQuiver(name, self.vertices, self.arrows, self.relations)

    # -- equality is structural ----------------------------------------------

    def structure_key(self) -> tuple:
        return (
            self.vertices,
            self.arrows,
            tuple(sorted(r.key() for r in self.relations)),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundQuiver) and self.structure_key() == other.structure_key()

    def __hash__(self) -> int:
        return hash(self.structure_key())

    def __repr__(self) -> str:
        return (
            f"BoundQuiver({self.name!r}, |Q0|={len(self.vertices)},"
            f" |Q1|={len(self.arrows)}, rels={len(self.relations)})"
        )


def _memo(fn):
    """Compute ``fn(q)`` once per quiver, on first use, and keep it on ``q``.
    Results are shared, so they must not be mutated; concurrent first uses
    at worst compute a value twice."""

    @wraps(fn)
    def derived(q: BoundQuiver):
        if fn not in q._derived:
            q._derived[fn] = fn(q)
        return q._derived[fn]

    return derived


# -- the step table --------------------------------------------------------------


def _inverse_codes(c: tuple[int, ...]) -> tuple[int, ...]:
    """The codes of the inverse word: reversed, each letter's direction flipped."""
    return tuple(x ^ 1 for x in reversed(c))


class _Steps(NamedTuple):
    """The string axioms of one quiver as a rule on letter codes.

    ``succ[x]`` lists the codes that may follow code ``x``: the letters that
    start where ``x`` ends, outgoing arrows direct first, then incoming
    arrows inverse, without ``x ^ 1``, which would undo ``x`` (S1), and
    without the codes that close a relation of length 2 with ``x`` (S2).
    ``forbidden`` holds each other monomial relation twice, as its direct
    codes and as their inverse codes, the way an inverse run spells it
    (S2); ``lengths`` are their lengths, ascending.  ``ends[x]`` is the
    vertex where code ``x`` ends; it starts at ``ends[x ^ 1]``.
    """

    succ: tuple[tuple[int, ...], ...]
    forbidden: frozenset[tuple[int, ...]]
    lengths: tuple[int, ...]
    ends: tuple[str, ...]


@_memo
def _steps(q: BoundQuiver) -> _Steps:
    """The step table of ``q``."""
    index = q.arrow_index
    leave = {
        v: [2 * index[b.name] for b in q.outgoing(v)] + [2 * index[b.name] + 1 for b in q.incoming(v)]
        for v in q.vertices
    }
    forbidden = set()
    for path in q.monomials:
        d = tuple(2 * index[x] for x in path)
        forbidden.update((d, _inverse_codes(d)))
    succ = []
    for i, a in enumerate(q.arrows):
        for x, v in ((2 * i, a.tgt), (2 * i + 1, a.src)):
            succ.append(tuple(y for y in leave[v] if y != x ^ 1 and (x, y) not in forbidden))
    lengths = tuple(sorted({len(p) for p in q.monomials} - {2}))
    ends = tuple(v for a in q.arrows for v in (a.tgt, a.src))
    return _Steps(tuple(succ), frozenset(w for w in forbidden if len(w) != 2), lengths, ends)


def _step_ok(steps: _Steps, c: tuple[int, ...], k: int) -> bool:
    """(S1) and (S2) at code ``k`` of a code walk whose first ``k`` codes
    form a string.

    Code ``k`` must lie in the successors of code ``k-1``, and no suffix of
    ``c[:k+1]`` may be a forbidden window.  A window that mixes directions
    never matches, so runs need no tracking; each relation factor of a run
    ends at exactly one code, so a walk is a string iff every code passes.
    """
    succ, forbidden, lengths, _ = steps
    if k and c[k] not in succ[c[k - 1]]:
        return False
    for g in lengths:
        if g > k + 1:
            break
        if c[k + 1 - g : k + 1] in forbidden:
            return False
    return True


def _extend(steps: _Steps, c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The strings one code longer than the string ``c``, in ``succ`` order."""
    grown = [c + (y,) for y in steps.succ[c[-1]]]
    if not steps.lengths:  # every relation has length 2: ``succ`` is the rule
        return grown
    k = len(c)
    return [e for e in grown if _step_ok(steps, e, k)]


def _step_window(steps: _Steps, s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The windows one code on from the window ``s``, in ``succ`` order.

    The window of a string is its last ``w`` codes (all of them if it is
    shorter), ``w`` one less than the longest relation (at least 1): all
    that ``_step_ok`` reads of the past.  So which codes may follow a string
    depends on its window alone.
    """
    w = max(steps.lengths, default=2) - 1
    return [e[-w:] for e in _extend(steps, s)]


def _has_cycle(steps: _Steps, codes: Sequence[int]) -> bool:
    """Whether a walk that uses only ``codes`` and passes the rule at every
    step can go on for ever.

    A state is a window (see ``_step_window``).  There are finitely many,
    so an endless walk exists iff the states close a cycle, found by one
    iterative colour DFS (1: on the path, 2: done).
    """
    allowed = frozenset(codes)

    def moves(s: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [t for t in _step_window(steps, s) if t[-1] in allowed]

    colour: dict[tuple[int, ...], int] = {}
    for x in codes:
        start = (x,)
        if start in colour:
            continue
        colour[start] = 1
        stack = [(start, iter(moves(start)))]
        while stack:
            s, it = stack[-1]
            for t in it:
                c = colour.get(t)
                if c == 1:
                    return True
                if c is None:
                    colour[t] = 1
                    stack.append((t, iter(moves(t))))
                    break
            else:
                colour[s] = 2
                stack.pop()
    return False


# -- parsing ------------------------------------------------------------------


def parse_quiver(text: str) -> BoundQuiver:
    """Parse the line-oriented quiver format.

    Grammar: a ``quiver <name>`` header, one or more ``vertices:`` lines,
    ``arrow <id>: <src> -> <tgt>`` lines and relation lines
    ``rel a b ...`` / ``comrel a b ... = c d ...`` with paths written in
    traversal order.  ``#`` starts a comment.
    """
    name = None
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[Relation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("quiver "):
                if name is not None:
                    raise ParseError("duplicate quiver header", lineno)
                name = line.split(None, 1)[1].strip()
                if not name:
                    raise ParseError("empty quiver name", lineno)
            elif line.startswith("vertices:"):
                vertices.extend(line[len("vertices:") :].split())
            elif line.startswith("arrow "):
                body = line[len("arrow ") :]
                arrow_name, colon, rest = body.partition(":")
                src, to, tgt = rest.partition("->")
                if not (colon and to):
                    raise ParseError("expected 'arrow <id>: <src> -> <tgt>'", lineno)
                arrows.append(Arrow(arrow_name.strip(), src.strip(), tgt.strip()))
            elif line.startswith("rel "):
                relations.append(Relation(MONOMIAL, tuple(line[4:].split())))
            elif line.startswith("comrel "):
                body = line[len("comrel ") :]
                if "=" not in body:
                    raise ParseError("expected 'comrel <path> = <path>'", lineno)
                left, right = body.split("=", 1)
                relations.append(
                    Relation(COMMUTATIVITY, tuple(left.split()), tuple(right.split()))
                )
            else:
                raise ParseError(f"unrecognised directive: {line!r}", lineno)
        except ParseError:
            raise
        except QuiverError as exc:
            raise ParseError(str(exc), lineno) from exc
    if name is None:
        raise ParseError("missing 'quiver <name>' header")
    if not vertices:
        raise ParseError("quiver declares no vertices")
    try:
        q = BoundQuiver(name, vertices, arrows, relations)
    except QuiverError as exc:
        raise ParseError(str(exc)) from exc
    if not q.is_connected():
        raise ParseError(f"quiver {name!r} is not connected")
    return q


# -- validators ----------------------------------------------------------------


@_memo
def validate_special_biserial(q: BoundQuiver) -> Verdict:
    """Degree bounds plus unique non-vanishing compositions per arrow.

    ``b`` follows ``a`` nonzero iff ``b``'s direct code is a step-table
    successor of ``a``'s: for a direct code, ``succ`` drops exactly the
    codes that close a length-2 relation.
    """
    witnesses: list[str] = []
    for v in q.vertices:
        if len(q.incoming(v)) > 2:
            witnesses.append(f"vertex {v}: in-degree {len(q.incoming(v))} > 2")
        if len(q.outgoing(v)) > 2:
            witnesses.append(f"vertex {v}: out-degree {len(q.outgoing(v))} > 2")
    succ, index = _steps(q).succ, q.arrow_index
    for a in q.arrows:
        x = 2 * index[a.name]
        after = [b.name for b in q.outgoing(a.tgt) if 2 * index[b.name] in succ[x]]
        if len(after) > 1:
            witnesses.append(f"arrow {a.name}: nonzero compositions with {after}")
        pred = [b.name for b in q.incoming(a.src) if x in succ[2 * index[b.name]]]
        if len(pred) > 1:
            witnesses.append(f"arrow {a.name}: nonzero compositions after {pred}")
    return Verdict.from_witnesses(witnesses)


@_memo
def validate_string_algebra(q: BoundQuiver) -> Verdict:
    witnesses = list(validate_special_biserial(q).witnesses)
    for r in q.relations:
        if r.kind != MONOMIAL:
            witnesses.append(f"non-monomial relation {r.path1} = {r.path2}")
    return Verdict.from_witnesses(witnesses)


@_memo
def validate_gentle(q: BoundQuiver) -> Verdict:
    witnesses = list(validate_string_algebra(q).witnesses)
    for r in q.relations:
        if r.kind == MONOMIAL and len(r.path1) != 2:
            witnesses.append(f"relation {r.path1} not quadratic")
    gens = {p for p in q.monomials if len(p) == 2}
    for a in q.arrows:
        killed_after = [b.name for b in q.outgoing(a.tgt) if (a.name, b.name) in gens]
        if len(killed_after) > 1:
            witnesses.append(f"arrow {a.name}: two relations {killed_after} end it")
        killed_before = [b.name for b in q.incoming(a.src) if (b.name, a.name) in gens]
        if len(killed_before) > 1:
            witnesses.append(f"arrow {a.name}: two relations {killed_before} start it")
    return Verdict.from_witnesses(witnesses)


@_memo
def nodes(q: BoundQuiver) -> frozenset[str]:
    """Vertices that are neither sinks nor sources with all through paths
    zero, read off the step table as in ``validate_special_biserial``."""
    succ, index = _steps(q).succ, q.arrow_index
    out = set()
    for v in q.vertices:
        ins, outs = q.incoming(v), q.outgoing(v)
        if not ins or not outs:
            continue
        if not any(2 * index[b.name] in succ[2 * index[a.name]] for a in ins for b in outs):
            out.add(v)
    return frozenset(out)


@_memo
def is_finite_dimensional(q: BoundQuiver) -> bool:
    """True iff only finitely many paths avoid the monomial relations: iff
    no endless walk runs over direct codes."""
    return not _has_cycle(_steps(q), range(0, 2 * len(q.arrows), 2))


def nonzero_paths(q: BoundQuiver) -> list[tuple[str, ...]]:
    """All paths of length >= 1 avoiding the relations, in canonical order.

    Requires ``is_finite_dimensional(q)``.
    """
    if not is_finite_dimensional(q):
        raise QuiverError(f"quiver {q.name!r} is not finite dimensional")
    steps = _steps(q)
    found: list[tuple[int, ...]] = []
    stack = [(x,) for x in range(0, 2 * len(q.arrows), 2)]
    while stack:
        c = stack.pop()
        found.append(c)
        stack.extend(e for e in _extend(steps, c) if not e[-1] & 1)
    found.sort(key=lambda c: (len(c), c))
    return [tuple(q.arrows[x >> 1].name for x in c) for c in found]


# -- quotients -----------------------------------------------------------------


def quotient_by_arrow(q: BoundQuiver, arrow: str) -> BoundQuiver:
    """Kill one arrow; relations mentioning it become implied and drop."""
    if arrow not in q.arrow_by_name:
        raise QuiverError(f"no arrow {arrow!r} in {q.name!r}")
    rest = {a.name for a in q.arrows} - {arrow}
    return q.restrict(set(q.vertices), f"{q.name}/{arrow}", rest)


def quotient_by_vertex(q: BoundQuiver, vertex: str) -> BoundQuiver:
    """Kill one vertex together with all incident arrows."""
    if vertex not in q.vertex_index:
        raise QuiverError(f"no vertex {vertex!r} in {q.name!r}")
    return q.restrict(set(q.vertices) - {vertex}, f"{q.name}/{vertex}")


def quotient_by_path(q: BoundQuiver, path: Sequence[str]) -> BoundQuiver:
    """Impose one extra monomial relation on a currently nonzero path."""
    path = tuple(path)
    if not q.is_path(path):
        raise QuiverError(f"{path} is not a composable path in {q.name!r}")
    if q.path_in_ideal(path):
        raise QuiverError(f"path {path} already vanishes in {q.name!r}")
    rel = list(q.relations) + [Relation(MONOMIAL, path)]
    return BoundQuiver(f"{q.name}/path", q.vertices, q.arrows, rel)


def quotient_by_parallel_pair(q: BoundQuiver, path1: Sequence[str], path2: Sequence[str]) -> BoundQuiver:
    """Impose a coefficient-1 commutativity relation between parallel paths."""
    p1, p2 = tuple(path1), tuple(path2)
    for p in (p1, p2):
        if not q.is_path(p):
            raise QuiverError(f"{p} is not a composable path in {q.name!r}")
        if q.path_in_ideal(p):
            raise QuiverError(f"path {p} already vanishes in {q.name!r}")
    rel = list(q.relations) + [Relation(COMMUTATIVITY, p1, p2)]
    return BoundQuiver(f"{q.name}/comm", q.vertices, q.arrows, rel)


def parallel_pair_candidates(q: BoundQuiver) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All unordered pairs of distinct nonzero parallel paths without common
    interior vertices; the candidate commutativity quotients."""
    if not is_finite_dimensional(q):
        raise QuiverError("parallel pair search needs a finite dimensional quiver")
    by_ends: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for p in nonzero_paths(q):
        if len(p) < 2:
            continue
        a0, a1 = q.arrow_by_name[p[0]], q.arrow_by_name[p[-1]]
        by_ends.setdefault((a0.src, a1.tgt), []).append(p)
    pairs = []
    for paths in by_ends.values():
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                p1, p2 = paths[i], paths[j]
                i1 = {q.arrow_by_name[x].tgt for x in p1[:-1]}
                i2 = {q.arrow_by_name[x].tgt for x in p2[:-1]}
                if not i1 & i2:
                    pairs.append((p1, p2))
    return pairs


def monomialize(q: BoundQuiver) -> BoundQuiver:
    """Replace each commutativity relation by its two monomial paths.

    For a special biserial algebra a commutativity relation forces a
    projective-injective module whose socle generates an ideal that does not
    change the representation type; killing it turns both parallel paths into
    zero relations.  Used to normalise quotients before representation-type
    questions.  In a symmetric (say Brauer graph) algebra that ideal I is
    central and radical, so A/I also keeps the support tau-tilting poset
    (Eisele-Janssens-Raedschelders, "A reduction theorem for tau-rigid
    modules", Math. Z. 2018).
    """
    if all(r.kind == MONOMIAL for r in q.relations):
        return q
    rel: list[Relation] = []
    for r in q.relations:
        if r.kind == MONOMIAL:
            rel.append(r)
        else:
            rel.append(Relation(MONOMIAL, r.path1))
            rel.append(Relation(MONOMIAL, r.path2))
    return BoundQuiver(f"{q.name}.mono", q.vertices, q.arrows, rel)

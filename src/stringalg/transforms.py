"""Quiver surgeries: node resolution, gluing, barification, trimming and
band reductions down to fully reduced gentle algebras."""

from __future__ import annotations

import itertools
from collections import deque

from .quiver import (
    MONOMIAL,
    Arrow,
    BoundQuiver,
    QuiverError,
    Relation,
    nodes,
    validate_gentle,
    validate_string_algebra,
)
from .words import (
    BandClass,
    StringWord,
    WordError,
    band_exists,
    enumerate_bands,
    is_band,
    is_string,
    word_from_text,
)


class TransformError(QuiverError):
    pass


# -- node resolution and gluing --------------------------------------------------


def resolve_nodes(q: BoundQuiver):
    """Split every node into a sink/source pair.

    Returns ``(components, trace)``, like ``trim``; a connected result is a
    one-item list.  Only relation generators whose paths pass through no
    node survive.
    """
    if not validate_string_algebra(q).holds:
        raise TransformError("node resolution expects a string algebra")
    ns = nodes(q)
    if not ns:
        return [q], [{"op": "resolve-nodes", "params": {"nodes": []}, "result": q.name}]
    vertices: list[str] = []
    for v in q.vertices:
        if v in ns:
            vertices.extend((f"{v}+", f"{v}-"))
        else:
            vertices.append(v)
    arrows = [
        Arrow(
            a.name,
            f"{a.src}-" if a.src in ns else a.src,
            f"{a.tgt}+" if a.tgt in ns else a.tgt,
        )
        for a in q.arrows
    ]
    relations = []
    for r in q.relations:
        interior = [q.arrow_by_name[x].tgt for x in r.path1[:-1]]
        if not any(v in ns for v in interior):
            relations.append(r)
    out = BoundQuiver(f"{q.name}.nn", vertices, arrows, relations)
    return out.components(), [{"op": "resolve-nodes", "params": {"nodes": sorted(ns)}, "result": out.name}]


def glue(q: BoundQuiver, sink: str, source: str) -> BoundQuiver:
    """Identify a sink with a source, killing all compositions through the
    merged vertex; inverse to resolving the node it creates."""
    for v in (sink, source):
        if v not in q.vertex_index:
            raise TransformError(f"no vertex {v!r}")
    if sink == source:
        raise TransformError("cannot glue a vertex to itself")
    if q.outgoing(sink):
        raise TransformError(f"{sink!r} is not a sink")
    if q.incoming(source):
        raise TransformError(f"{source!r} is not a source")
    if not q.incoming(sink) or not q.outgoing(source):
        raise TransformError("gluing needs at least one arrow on each side")
    if len(q.incoming(sink)) > 2 or len(q.outgoing(source)) > 2:
        raise TransformError("gluing would violate the degree bound")
    z = f"{sink}~{source}"
    vertices = [z if v == sink else v for v in q.vertices if v != source]
    ren = {sink: z, source: z}
    arrows = [Arrow(a.name, ren.get(a.src, a.src), ren.get(a.tgt, a.tgt)) for a in q.arrows]
    relations = list(q.relations)
    for a in q.incoming(sink):
        for b in q.outgoing(source):
            relations.append(Relation(MONOMIAL, (a.name, b.name)))
    return BoundQuiver(f"{q.name}.glue", vertices, arrows, relations)


# -- barification -----------------------------------------------------------------


def _signs(w: StringWord) -> list[int]:
    return [-1 if x & 1 else 1 for x in w.codes]


def _distinct_walk(w: StringWord) -> bool:
    verts = w.walk_vertices()
    if verts[0] == verts[-1]:
        return len(set(verts)) == len(verts) - 1
    return len(set(verts)) == len(verts)


def _sign_compatible(v1: StringWord, v2: StringWord) -> bool:
    s1, s2 = _signs(v1), _signs(v2)
    if len(s1) != len(s2):
        return False
    if s1[0] != 1 or s2[0] != -1 or s1[-1] != -s2[-1]:
        return False
    return all(s1[i] == s2[i] for i in range(1, len(s1) - 1))


def barify(
    q: BoundQuiver, v1: StringWord, v2: StringWord, trace: list[dict] | None = None
) -> BoundQuiver:
    """Identify two sign-compatible string segments into a shared bar.

    The middle arrows of the two strings are merged pairwise; the two
    boundary compositions through the new bar ends acquire quadratic
    relations.  The inputs may be given in either orientation or order.
    Interior arrows involved in existing relations are rejected; boundary
    arrows already involved in relations are allowed but flagged on the
    trace.
    """
    for v in (v1, v2):
        if len(v) < 2:
            raise TransformError("barification needs strings of length at least 2")
        if not is_string(v):
            raise TransformError(f"{v.render()} is not a string")
        if not _distinct_walk(v):
            raise TransformError(f"{v.render()} revisits a vertex")
    normalized = None
    for a, b in itertools.product((v1, v1.inverse()), (v2, v2.inverse())):
        for c, d in ((a, b), (b, a)):
            if _sign_compatible(c, d):
                normalized = (c, d)
                break
        if normalized:
            break
    if normalized is None:
        raise TransformError("strings are not sign-compatible in any orientation")
    w1, w2 = normalized
    m = len(w1) - 2
    xs, ys = w1.walk_vertices(), w2.walk_vertices()
    inner1, inner2 = xs[1 : m + 2], ys[1 : m + 2]
    if len(set(inner1) | set(inner2)) != 2 * (m + 1):
        raise TransformError("identified vertex ranges overlap")
    mid1 = [l.arrow for l in w1.letters[1 : m + 1]]
    mid2 = [l.arrow for l in w2.letters[1 : m + 1]]
    if len(set(mid1) | set(mid2)) != 2 * m:
        raise TransformError("identified arrow ranges overlap")
    involved = {x for r in q.relations for x in r.arrows()}
    if involved & (set(mid1) | set(mid2)):
        raise TransformError("an interior arrow of the bar is involved in a relation")

    vmap = {v: v for v in q.vertices}
    for x, y in zip(inner1, inner2):
        vmap[x] = vmap[y] = f"{x}~{y}"
    amap = {a.name: a.name for a in q.arrows}
    for a, b in zip(mid1, mid2):
        amap[a] = amap[b] = f"{a}~{b}"

    vertices, seen = [], set()
    for v in q.vertices:
        if vmap[v] not in seen:
            seen.add(vmap[v])
            vertices.append(vmap[v])
    arrows, seen_a = [], {}
    for a in q.arrows:
        name = amap[a.name]
        ends = (vmap[a.src], vmap[a.tgt])
        if name in seen_a:
            if seen_a[name] != ends:
                raise TransformError(f"arrows merged into {name!r} disagree on endpoints")
            continue
        seen_a[name] = ends
        arrows.append(Arrow(name, *ends))

    relations = []
    for r in q.relations:
        mapped = Relation(r.kind, tuple(amap[x] for x in r.path1), tuple(amap[x] for x in r.path2))
        if mapped.key() not in {s.key() for s in relations}:
            relations.append(mapped)

    alpha, delta = amap[w1.letters[0].arrow], amap[w1.letters[-1].arrow]
    beta, gamma = amap[w2.letters[0].arrow], amap[w2.letters[-1].arrow]
    probe = BoundQuiver("probe", vertices, arrows)
    if m == 0 and probe.is_path((alpha, gamma)) and probe.is_path((delta, beta)):
        # both strings pass the single bar vertex: pair each side of one
        # string with the opposite side of the other
        new_rels = [(alpha, gamma), (delta, beta)]
    else:
        top = (gamma, delta) if _signs(w1)[-1] == 1 else (delta, gamma)
        new_rels = [(alpha, beta), top]
    for path in new_rels:
        if not probe.is_path(path):
            raise TransformError(f"boundary relation {path} is not composable")
        relations.append(Relation(MONOMIAL, path))

    out = BoundQuiver(f"{q.name}.bar", vertices, arrows, relations)
    if trace is not None:
        boundary = [w1.letters[0].arrow, w1.letters[-1].arrow, w2.letters[0].arrow, w2.letters[-1].arrow]
        flagged = sorted({a for a in boundary if a in involved})
        params = {
            "v1": w1.render(),
            "v2": w2.render(),
            "bar_length": m,
            "boundary_arrows_in_relations": flagged,
        }
        trace.append({"op": "barify", "params": params, "result": out.name})
    return out


# -- trimming and reductions -------------------------------------------------------


def _secluded(q: BoundQuiver) -> set[str]:
    return {v for v in q.vertices if q.degree(v) == 1}


def trim(a: BoundQuiver):
    """Alternately delete all nodes, then all degree-one vertices, to a
    fixpoint; returns ``(components, trace)``."""
    if not validate_gentle(a).holds:
        raise TransformError("trimming expects a gentle algebra")
    trace: list[dict] = []
    q = a
    while True:
        ns = nodes(q)
        if ns:
            q = q.restrict(set(q.vertices) - ns, name=f"{a.name}.t{len(trace)}")
            trace.append({"op": "remove-nodes", "params": {"vertices": sorted(ns)}, "result": q.name})
        sec = _secluded(q)
        if sec:
            q = q.restrict(set(q.vertices) - sec, name=f"{a.name}.t{len(trace)}")
            trace.append({"op": "remove-secluded", "params": {"vertices": sorted(sec)}, "result": q.name})
        if not ns and not sec:
            break
    comps = q.components()
    trace.append({"op": "split", "params": {"components": len(comps)}, "result": q.name})
    return comps, trace


def _check_band(q: BoundQuiver, band: BandClass) -> StringWord:
    """The band's representative on ``q``, read by arrow name if it comes
    from a quiver with another structure."""
    w = band.representative
    try:
        if w.quiver != q:  # quivers compare by structure
            w = word_from_text(q, band.render())
        if is_band(w):
            return w
    except WordError:
        pass
    raise TransformError(f"{band.render()} is not a band of {q.name!r}")


def weak_reduce(q: BoundQuiver, band: BandClass) -> BoundQuiver:
    """Quotient by every vertex the band does not visit."""
    w = _check_band(q, band)
    visited = set(w.walk_vertices())
    return q.restrict(visited, name=f"{q.name}.w")


def reduce(q: BoundQuiver, band: BandClass) -> BoundQuiver:
    """Quotient by every arrow the band does not support, dropping the
    vertices this isolates."""
    w = _check_band(q, band)
    return q.restrict(set(w.walk_vertices()), f"{q.name}.r", w.supported_arrows())


def band_reductions(q: BoundQuiver) -> list[tuple[BandClass, BoundQuiver]]:
    """The proper band reductions of ``q``: each band whose support misses
    an arrow, in band order, with its reduction."""
    return [
        (band, reduce(q, band))
        for band in enumerate_bands(q)
        if len(band.representative.supported_arrows()) < len(q.arrows)
    ]


def fully_reduce(a: BoundQuiver) -> list[tuple[BoundQuiver, list[dict]]]:
    """Closure of trimming and band reduction.

    Every output is connected, gentle, representation-infinite and fixed by
    reduction along each of its bands; duplicates are removed up to quiver
    isomorphism.  An output's trace replays from ``a``: each step's
    ``result`` names the quiver that step leaves.
    """
    if not validate_gentle(a).holds:
        raise TransformError("full reduction expects a gentle algebra")
    if not band_exists(a):
        raise TransformError(f"{a.name!r} is representation-finite")

    outputs: list[tuple[BoundQuiver, list[dict]]] = []
    # kept apart: a reduction that trim leaves whole comes back as a component
    trimmed: set[tuple] = set()
    met: set[tuple] = set()
    queue = deque([(a, [])])
    while queue:
        q, trace = queue.popleft()
        if q.structure_key() in trimmed:
            continue
        trimmed.add(q.structure_key())
        comps, t = trim(q)
        for comp in comps:
            if comp.structure_key() in met or not band_exists(comp):
                continue
            met.add(comp.structure_key())
            cut = {"op": "component", "params": {"vertices": list(comp.vertices)}, "result": comp.name}
            at = trace + t + [cut]
            reductions = band_reductions(comp)
            if not reductions:
                outputs.append((comp, at))
            for band, r in reductions:
                step = {"op": "reduce", "params": {"band": band.render()}, "result": r.name}
                queue.append((r, at + [step]))

    unique: list[tuple[BoundQuiver, list[dict]]] = []
    for q, trace in outputs:
        if not any(quivers_isomorphic(q, u) for u, _ in unique):
            unique.append((q, trace))
    return unique


# -- quiver isomorphism --------------------------------------------------------------


def quivers_isomorphic(q1: BoundQuiver, q2: BoundQuiver) -> bool:
    """Exhaustive isomorphism test for small bound quivers.

    One backtracking search maps the arrows of ``q1`` in an order where
    each arrow after the first of its component touches a vertex already
    mapped, trying it only against the arrows of ``q2`` in the same role at
    that vertex's image.  The vertex map grows with the arrow map and stays
    injective; a relation is checked once its last arrow is mapped.
    Vertices without arrows match by count.  Exponential in the worst case.
    """
    keys1, keys2 = ({r.key() for r in q.relations} for q in (q1, q2))
    # with as many distinct keys, keys that all land in keys2 cover it
    if (len(q1.vertices), len(q1.arrows), len(q1.relations), len(keys1)) != (
        len(q2.vertices), len(q2.arrows), len(q2.relations), len(keys2)
    ):
        return False

    # each arrow with an end mapped before it (None for a component's first)
    order: list[tuple[Arrow, str | None]] = []
    reached: set[str] = set()
    rest = list(q1.arrows)
    while rest:
        a = next((a for a in rest if a.src in reached or a.tgt in reached), rest[0])
        rest.remove(a)
        order.append((a, a.src if a.src in reached else a.tgt if a.tgt in reached else None))
        reached.update((a.src, a.tgt))
    position = {a.name: k for k, (a, _) in enumerate(order)}
    closes: list[list[Relation]] = [[] for _ in order]
    for r in q1.relations:
        closes[max(position[x] for x in r.arrows())].append(r)

    # one bijection on names: a quiver's vertex and arrow names are disjoint
    image: dict[str, str] = {}
    preimage: dict[str, str] = {}

    def mapped_key(r: Relation) -> tuple:
        return Relation(r.kind, tuple(image[x] for x in r.path1), tuple(image[x] for x in r.path2)).key()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        a, v = order[k]
        for b in q2.arrows if v is None else (q2.outgoing if v == a.src else q2.incoming)(image[v]):
            pairs = {a.name: b.name, a.src: b.src, a.tgt: b.tgt}  # two entries for a loop
            if len(pairs) != len({b.name, b.src, b.tgt}) or any(
                image.get(x, y) != y or preimage.get(y, x) != x for x, y in pairs.items()
            ):
                continue
            new = [x for x in pairs if x not in image]
            for x in new:
                image[x] = pairs[x]
                preimage[pairs[x]] = x
            if all(mapped_key(r) in keys2 for r in closes[k]) and extend(k + 1):
                return True
            for x in new:
                del preimage[image.pop(x)]
        return False

    return extend(0)

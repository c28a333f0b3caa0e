"""Recognizers for the bound-quiver classes, minimality checkers,
tau-tilting finiteness verdicts and the homological report for gentle
algebras."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .census import _brick_walk
from .graphmaps import _is_brick_string, is_band_brick
from .oracle import end_dim_linear
from .quiver import (
    BoundQuiver,
    QuiverError,
    _memo,
    _steps,
    is_finite_dimensional,
    nodes,
    nonzero_paths,
    monomialize,
    quotient_by_arrow,
    quotient_by_path,
    validate_gentle,
    validate_special_biserial,
    validate_string_algebra,
)
from .transforms import resolve_nodes
from .words import (
    MAX_CENSUS_LEN,
    BandClass,
    StringWord,
    band_exists,
    canonical_band,
    enumerate_bands,
    is_string,
    lazy_word,
    string_module,
)

HEREDITARY_AN = "HereditaryAn"
BARBELL = "Barbell"
GENERALIZED_BARBELL = "GeneralizedBarbell"
WIND_WHEEL = "WindWheel"
NODY = "Nody"
OTHER = "Other"
BRICK_POWERS = (1, 2, 3)  # the powers of a band rotation that a certificate checks


@dataclass(frozen=True)
class ClassLabel:
    value: str
    detail: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"label": self.value, "detail": _detail_json(self.detail), "notes": list(self.notes)}


def _detail_json(detail: dict) -> dict:
    out = {}
    for k, v in detail.items():
        if isinstance(v, (StringWord, BandClass)):
            out[k] = v.render()
        elif isinstance(v, ClassLabel):
            out[k] = v.to_json()
        elif isinstance(v, (list, tuple)):
            out[k] = [x.render() if isinstance(x, (StringWord, BandClass)) else x for x in v]
        else:
            out[k] = v
    return out


def _is_serial(w: StringWord) -> bool:
    return len({x & 1 for x in w.codes}) < 2


# -- cycle tracing helpers ---------------------------------------------------------


def _trace_walk(q: BoundQuiver, x: str, first: int, y: str) -> StringWord | None:
    """The unique string from ``x`` starting with the code ``first`` that
    runs through 2-vertices until it reaches ``y``, or None if there is none."""
    steps = _steps(q)
    succ, ends = steps.succ, steps.ends
    c = [first]
    cur = ends[first]
    seen = {x}
    while cur != y:
        if cur in seen or q.degree(cur) != 2:
            return None
        seen.add(cur)
        # the one letter leaving a 2-vertex that does not undo the last (S1),
        # unless it closes a relation of length 2 with the last (S2)
        if not succ[c[-1]]:
            return None
        (nxt,) = succ[c[-1]]
        c.append(nxt)
        cur = ends[nxt]
    w = StringWord(q, tuple(c))
    return w if is_string(w) else None


def _trace_cycle(q: BoundQuiver, x: str, out_arrow: str, in_arrow: str) -> StringWord | None:
    """Follow the unique walk from ``x`` via ``out_arrow`` through 2-vertices,
    accepting only if it returns to ``x`` along ``in_arrow`` forwards."""
    w = _trace_walk(q, x, 2 * q.arrow_index[out_arrow], x)
    return w if w is not None and w.codes[-1] == 2 * q.arrow_index[in_arrow] else None


def _trace_bar(q: BoundQuiver, x: str, y: str, cycle_arrows: set[str]) -> StringWord | None:
    """The unique walk from ``x`` to ``y`` avoiding the cycle arrows; it
    leaves ``x`` by its one other arrow (see ``_try_barbell``)."""
    (first,) = [
        2 * q.arrow_index[a.name] + inv
        for v_arrows, inv in ((q.outgoing(x), 0), (q.incoming(x), 1))
        for a in v_arrows
        if a.name not in cycle_arrows
    ]
    return _trace_walk(q, x, first, y)


def _try_barbell(q: BoundQuiver) -> ClassLabel | None:
    """Two cycles, each through the middle vertex of one quadratic relation,
    joined by a bar, which has length 0 (a generalized barbell) iff they meet.

    Once both cycles are traced, the pieces fit.  Tracing passes only
    through 2-vertices, and one that is the middle of a relation stops it
    (S2), so the cycles and the bar meet only at ``x`` and ``y``, and a bar
    traced from ``y`` is the inverse of the one from ``x``.  In a special
    biserial algebra a vertex of degree 3 or 4 is the middle of a relation
    (of two at degree 4), so only ``x`` and ``y`` have degree above 2, and
    ``x == y`` if one has degree 4.  So in a connected algebra with
    ``x != y`` the walk from ``x`` off its cycle runs through 2-vertices to
    ``y``: that is the bar, and with the two cycles it covers every arrow.
    """
    quad = [r for r in q.relations if len(r.path1) == 2]
    if len(q.relations) != 2 or len(quad) != 2:
        return None
    # the cycle through the middle vertex of each relation, traced once
    cycles = []
    for r in quad:
        alpha, beta = r.path1
        x = q.arrow_by_name[alpha].tgt
        c = _trace_cycle(q, x, beta, alpha)
        if c is None:
            return None
        cycles.append((x, c))
    (x, c_l), (y, c_r) = cycles
    if x == y and _is_serial(c_l) and _is_serial(c_r):
        return None  # the composite cycle would be uniserial
    bar = lazy_word(q, x) if x == y else _trace_bar(q, x, y, c_l.supported_arrows() | c_r.supported_arrows())
    serial = x != y and _is_serial(bar)  # a length-0 bar is not serial
    detail = {"x": x, "y": y, "c_l": c_l, "c_r": c_r, "bar": bar, "bar_serial": serial}
    return ClassLabel(GENERALIZED_BARBELL if x == y else BARBELL, detail)


def _try_wind_wheel(q: BoundQuiver) -> ClassLabel | None:
    bands = enumerate_bands(q)
    if len(bands) != 1:
        return None
    v = bands[0].representative
    if set(v.walk_vertices()) != set(q.vertices):
        return None
    if v.supported_arrows() != {a.name for a in q.arrows}:
        return None
    doubles = v.double_supported_arrows()
    if not doubles:
        return None
    # maximal directed runs of doubly supported arrows are the bars
    nxt: dict[str, str] = {}
    for name in doubles:
        a = q.arrow_by_name[name]
        succ = [b.name for b in q.outgoing(a.tgt) if b.name in doubles]
        if len(succ) > 1:
            return None
        if succ:
            nxt[name] = succ[0]
    heads = set(nxt.values())
    starts = [n for n in doubles if n not in heads]
    bars: list[list[str]] = []
    used = set()
    for s in sorted(starts, key=lambda n: q.arrow_index[n]):
        bar = [s]
        used.add(s)
        while bar[-1] in nxt:
            bar.append(nxt[bar[-1]])
            used.add(bar[-1])
        bars.append(bar)
    if used != doubles:
        return None  # a cyclic block of doubly supported arrows
    expected: set[tuple[str, ...]] = set()
    bar_words = []
    for bar in bars:
        xv = q.arrow_by_name[bar[0]].src
        yv = q.arrow_by_name[bar[-1]].tgt
        ins_x = [a.name for a in q.incoming(xv) if a.name not in doubles]
        outs_x = [a.name for a in q.outgoing(xv) if a.name not in doubles]
        ins_y = [a.name for a in q.incoming(yv) if a.name not in doubles]
        outs_y = [a.name for a in q.outgoing(yv) if a.name not in doubles]
        if len(ins_x) != 1 or len(outs_x) != 1 or len(ins_y) != 1 or len(outs_y) != 1:
            return None
        expected.add((ins_x[0], outs_x[0]))
        expected.add((ins_y[0], outs_y[0]))
        expected.add((ins_x[0], *bar, outs_y[0]))
        bar_words.append(StringWord(q, tuple(2 * q.arrow_index[n] for n in bar)))
    actual = {r.path1 for r in q.relations}
    if actual != expected:
        return None
    c_rels = sorted(p for p in expected if len(p) == 2)
    b_rels = sorted(p for p in expected if len(p) > 2)
    detail = {
        "band": bands[0],
        "bars": bar_words,
        "c_relations": [" ".join(p) for p in c_rels],
        "b_relations": [" ".join(p) for p in b_rels],
    }
    return ClassLabel(WIND_WHEEL, detail)


@_memo
def classify_node_free(q: BoundQuiver) -> ClassLabel:
    """Recognize hereditary cycles, (generalized) barbells and wind wheels
    among connected node-free string algebras."""
    if not validate_string_algebra(q).holds:
        raise QuiverError("classification expects a string algebra")
    if nodes(q):
        raise QuiverError("classification expects a node-free quiver")
    if not q.is_connected():
        return ClassLabel(OTHER, notes=("disconnected",))
    if (
        not q.relations
        and len(q.arrows) == len(q.vertices)
        and all(q.degree(v) == 2 for v in q.vertices)
        and is_finite_dimensional(q)
    ):
        return ClassLabel(HEREDITARY_AN, {"band": enumerate_bands(q)[0]})
    barbell = _try_barbell(q)
    if barbell is not None:
        return barbell
    wheel = _try_wind_wheel(q)
    if wheel is not None:
        return wheel
    return ClassLabel(OTHER)


@_memo
def classify_mri_sb(q: BoundQuiver) -> ClassLabel:
    """Classification of minimal representation-infinite special biserial
    algebras: hereditary cycle, barbell with non-serial bar, wind wheel, or
    nody; anything else is Other."""
    if not validate_special_biserial(q).holds:
        raise QuiverError("classification expects a special biserial algebra")
    if not validate_string_algebra(q).holds:
        return ClassLabel(OTHER, notes=("not a string algebra",))
    if not band_exists(q):
        return ClassLabel(OTHER, notes=("representation-finite",))
    ns = nodes(q)
    if not ns:
        label = classify_node_free(q)
        if label.value == BARBELL and label.detail.get("bar_serial"):
            return ClassLabel(OTHER, label.detail, notes=("barbell with serial bar",))
        if label.value == GENERALIZED_BARBELL:
            return ClassLabel(OTHER, label.detail, notes=("zero-length bar",))
        return label
    resolved, _ = resolve_nodes(q)
    if len(resolved) > 1:
        return ClassLabel(OTHER, notes=("node resolution disconnects",))
    sub = classify_node_free(resolved[0])
    ok = sub.value in (HEREDITARY_AN, WIND_WHEEL) or (
        sub.value == BARBELL and not sub.detail.get("bar_serial")
    )
    if ok:
        return ClassLabel(NODY, {"nodes": sorted(ns), "resolved": sub})
    return ClassLabel(OTHER, {"resolved": sub}, notes=("resolution is not mild",))


# -- minimality checkers -------------------------------------------------------------


def is_monomial_minimal_rep_infinite(q: BoundQuiver) -> bool:
    """Rep-infinite, and the quotient by each maximal nonzero path is
    rep-finite.

    These quotients decide: the ideal of an arrow, a vertex, a nonzero path
    or a coefficient-1 commutativity relation (on its monomial form, which
    keeps the representation type) contains a maximal nonzero path, and a
    larger ideal leaves fewer strings, so no more bands.
    """
    if not validate_string_algebra(q).holds:
        raise QuiverError("expects a string algebra")
    if not band_exists(q):
        raise QuiverError("expects a representation-infinite algebra")
    paths = nonzero_paths(q)
    inner = {p[1:] for p in paths} | {p[:-1] for p in paths}
    for p in paths:
        if p in inner:
            continue
        cut = quotient_by_path(q, p) if len(p) > 1 else quotient_by_arrow(q, p[0])
        if band_exists(cut):
            return False
    return True


# -- tau-tilting finiteness ------------------------------------------------------------


FINITE = "Finite"
INFINITE = "Infinite"
UNKNOWN = "Unknown"


@dataclass
class TauVerdict:
    value: str
    witness: dict = field(default_factory=dict)
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"verdict": self.value, "witness": self.witness, "trace": list(self.trace)}


def _brick_walk_witness(q: BoundQuiver) -> dict:
    """Where the brick walk of ``q`` runs out, and the string bricks it
    counted: all of them, once it has run out.  The walk stops by itself at
    the first length where no entry passes; ``MAX_CENSUS_LEN`` only caps
    it, and ``exhausted_at`` is None only if the walk reaches the cap."""
    bricks, exhausted_at = _brick_walk(q, MAX_CENSUS_LEN)
    return {"kind": "brick-walk", "algebra": q.name, "exhausted_at": exhausted_at, "bricks": sum(bricks)}


@dataclass
class BrickFamilyWitness:
    band: BandClass
    word: StringWord
    verified_exponents: tuple[int, ...]
    construction: str


def _positive_bar_family(detail: dict) -> StringWord:
    c_l, c_r, bar = detail["c_l"], detail["c_r"], detail["bar"]
    if not bar.codes[0] & 1:
        return c_l.concat(bar).concat(c_r).concat(bar.inverse())
    return c_l.inverse().concat(bar).concat(c_r.inverse()).concat(bar.inverse())


def _zero_bar_family(detail: dict) -> StringWord:
    # rotate the composite cycle so it opens after the maximal direct prefix
    # of the non-serial side; the splice point blocks all graph maps
    c_l, c_r = detail["c_l"], detail["c_r"]
    if not any(x & 1 for x in c_l.codes):
        c_l, c_r = c_r, c_l
    i = 0
    while i < len(c_l) and not c_l.codes[i] & 1:
        i += 1
    w = c_l.slice(i, len(c_l)).concat(c_r)
    if i:
        w = w.concat(c_l.slice(0, i))
    return w


def brick_rotation(b: BandClass) -> StringWord | None:
    """A rotation of ``b`` or of its inverse whose powers ``BRICK_POWERS``
    are string bricks, or None; rotations give non-isomorphic modules.

    A rotation found proves ``is_band_brick(b)``.  If not, a quotient and a
    submodule middle of b^oo, shorter than ``n = |b|`` and with both
    neighbours, share a key.  Each recurs every ``n`` letters, so for a
    rotation ``w`` and ``m >= 2`` it starts at one of the positions ``1..n``
    of the window ``w^m`` of b^oo (or of its inverse, which has the same
    middles) and ends by ``2n - 1``, neighbours inside: their pair is a
    second endomorphism of ``w^m``.  The converse is lemma (S), unproved:
    every band brick has a rotation whose powers are all bricks.
    """
    rep = b.representative
    for base in (rep, rep.inverse()):
        for k in range(len(rep)):
            r = base.rotate(k)
            if all(_is_brick_string(r.power(m)) for m in BRICK_POWERS):
                return r
    return None


def _check_powers(w: StringWord, what: str) -> tuple[int, ...]:
    """``BRICK_POWERS``, once the linear-algebra oracle confirms that each of
    those powers of ``w``, which passed the graph-map brick test, is a brick."""
    for m in BRICK_POWERS:
        if end_dim_linear(string_module(w.power(m))) != 1:  # the power's one string check
            raise QuiverError(
                f"{what} fails brick check at exponent {m} (graph=True, linear=False); graph-map bug"
            )
    return BRICK_POWERS


def _rotation_powers(b: BandClass, what: str, cause: str) -> tuple[StringWord, tuple[int, ...]]:
    """``brick_rotation(b)`` and ``_check_powers`` of it; an error naming ``cause`` if there is none."""
    w = brick_rotation(b)
    if w is None:
        raise QuiverError(f"{what} has no brick rotation; {cause}")
    return w, _check_powers(w, what)


def barbell_brick_family(label: ClassLabel) -> BrickFamilyWitness:
    """The canonical band whose powers stay bricks, verified at
    ``BRICK_POWERS`` through graph maps and the linear-algebra oracle."""
    detail = label.detail
    if label.value == HEREDITARY_AN:
        # the seam vertex must not land in both top and socle; some rotation
        # of the cycle always works (a simple of defect -1 exists on the cycle)
        w, exponents = _rotation_powers(detail["band"], "cycle band", "recognizer bug")
        return BrickFamilyWitness(canonical_band(w), w, exponents, "HereditaryAn")
    if label.value == BARBELL:
        w, construction = _positive_bar_family(detail), "BarbellStandard"
    elif label.value == GENERALIZED_BARBELL:
        w, construction = _zero_bar_family(detail), "ZeroBarStandard"
    else:
        raise QuiverError(f"no brick family construction for label {label.value}")
    what = "constructed family"
    for m in BRICK_POWERS:
        if not _is_brick_string(w.power(m)):
            raise QuiverError(f"{what} fails brick check at exponent {m}; recognizer or construction bug")
    return BrickFamilyWitness(canonical_band(w), w, _check_powers(w, what), construction)


def _brick_band_witness(b: BandClass) -> dict:
    """The witness of a band brick ``b``: ``brick_rotation(b)``, its powers
    checked by the linear-algebra oracle."""
    band = b.render()
    cause = "graph-map bug, or a counterexample to lemma (S) at powers 1 to 3"
    w, exponents = _rotation_powers(b, f"band brick {band}", cause)
    return {"kind": "brick-band", "band": band, "word": w.render(), "verified_exponents": list(exponents)}


def tau_finiteness(q: BoundQuiver) -> TauVerdict:
    """Decision cascade for tau-tilting finiteness of a special biserial
    algebra, on its monomial form:

    1. no band: ``Finite``;
    2. a minimal band ``b`` whose band module M(b, lam, 1) is a brick
       (``is_band_brick``): ``Infinite`` by Schroll-Treffinger-Valdivieso,
       with a rotation of ``b`` whose powers 1 to 3 are string bricks
       through graph maps and the linear-algebra oracle as cross-check;
    3. ``WindWheel`` or ``Nody``: ``Finite`` by the paper's theorem, with
       the length at which the brick walk runs out as witness: no string
       of that length or more is a brick;
    4. otherwise ``Unknown``, listing the minimal bands, none a band brick.
    """
    if not validate_special_biserial(q).holds:
        raise QuiverError("tau-finiteness expects a special biserial algebra")
    trace = []
    q0 = monomialize(q)
    if q0 is not q:
        trace.append("normalized commutativity relations to monomial pairs")
    if not band_exists(q0):
        trace.append("no band: representation-finite")
        return TauVerdict(
            FINITE,
            {"kind": "rep-finite", "band_bound": 2 * len(q0.arrows)},
            tuple(trace),
        )
    bands = enumerate_bands(q0)
    for b in bands:
        if is_band_brick(b):
            trace.append(f"band {b.render()} is a band brick")
            return TauVerdict(INFINITE, _brick_band_witness(b), tuple(trace))
    label = classify_mri_sb(q0)
    if label.value in (WIND_WHEEL, NODY):
        trace.append(f"classified {label.value}: brick-finite")
        return TauVerdict(FINITE, _brick_walk_witness(q0), tuple(trace))
    trace.append("no witness found")
    return TauVerdict(UNKNOWN, {"kind": "attempted", "bands": [b.render() for b in bands]}, tuple(trace))


# -- homological report for gentle algebras ----------------------------------------------


@dataclass
class GentleHomReport:
    gentle_arrows: tuple[str, ...]
    n_of_a: int
    injective_dim: int
    injective_dim_is_bound: bool
    gorenstein_dim: int
    gldim_le_2: Optional[bool]

    def to_json(self) -> dict:
        return asdict(self)


def gentle_hom_report(a: BoundQuiver) -> GentleHomReport:
    """Injective/Gorenstein dimensions of a gentle algebra from the maximal
    chain of overlapping relations seeded by a gentle arrow; the global
    dimension bound is reported only for fully reduced shapes."""
    if not validate_gentle(a).holds:
        raise QuiverError("homological report expects a gentle algebra")
    gens = {r.path1 for r in a.relations}
    terminal = {p[1] for p in gens}
    gentle_arrows = tuple(x.name for x in a.arrows if x.name not in terminal)
    succ = {}
    for p in gens:
        succ[p[0]] = p[1]
    n = 0
    for start in gentle_arrows:
        length = 1
        cur = start
        while cur in succ:
            cur = succ[cur]
            length += 1
        n = max(n, length)
    inj = n if n > 0 else 1
    gldim: Optional[bool] = None
    if not nodes(a):
        label = classify_node_free(a)
        if label.value in (HEREDITARY_AN, BARBELL, GENERALIZED_BARBELL):
            gldim = all(x.src != x.tgt for x in a.arrows)
    return GentleHomReport(
        gentle_arrows=gentle_arrows,
        n_of_a=n,
        injective_dim=inj,
        injective_dim_is_bound=(n == 0),
        gorenstein_dim=inj,
        gldim_le_2=gldim,
    )

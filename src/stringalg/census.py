"""Brick enumeration at bounded length and explicit infinite brick
families for barbell-type algebras."""

from __future__ import annotations

from dataclasses import dataclass

from .graphmaps import _is_brick_codes, is_brick
from .oracle import end_dim_linear
from .quiver import BoundQuiver, QuiverError, validate_string_algebra
from .words import (
    BandClass,
    StringWord,
    _code_ends,
    _walk,
    canonical_band,
    enumerate_bands,
    enumerate_strings,
    string_module,
)


@dataclass
class CensusReport:
    """Per-length string/brick counts; bounded-length evidence only, not a
    finiteness proof."""

    per_length: dict[int, tuple[int, int]]
    bands: list[BandClass]
    stabilized: bool
    bound_used: int
    window_lo: int

    def to_json(self) -> dict:
        return {
            "per_length": {str(k): list(v) for k, v in sorted(self.per_length.items())},
            "bands": [b.render() for b in self.bands],
            "stabilized": self.stabilized,
            "bound_used": self.bound_used,
            "window": [self.window_lo, self.bound_used],
            "evidence": "bounded-length",
        }


def brick_census(q: BoundQuiver, max_len: int, window_lo: int | None = None) -> CensusReport:
    """Count canonical strings and bricks per length up to ``max_len``.

    ``stabilized`` records that no brick occurs with length in
    ``(window_lo, max_len]``.  Band classes are listed separately; band
    modules are not counted as bricks here.
    """
    if max_len < 0:
        raise QuiverError(f"max_len must be at least 0, got {max_len}")
    if window_lo is not None and window_lo < 0:
        raise QuiverError(f"window_lo must be at least 0, got {window_lo}")
    if not validate_string_algebra(q).holds:
        raise QuiverError("census expects a string algebra")
    bands = enumerate_bands(q, max_len)
    if window_lo is None:
        longest = max((b.length() for b in bands), default=0)
        window_lo = min(2 * longest, max_len) if longest else max_len
    per_length: dict[int, tuple[int, int]] = {l: (0, 0) for l in range(max_len + 1)}
    ends = _code_ends(q)
    for w in enumerate_strings(q, max_len):
        c = w.codes()
        # a lazy word's module is simple, hence a brick
        brick = not c or _is_brick_codes(c, _walk(ends, c))
        s, b = per_length[len(c)]
        per_length[len(c)] = (s + 1, b + brick)
    stabilized = all(per_length[l][1] == 0 for l in range(window_lo + 1, max_len + 1))
    return CensusReport(per_length, bands, stabilized, max_len, window_lo)


@dataclass
class BrickFamilyWitness:
    band: BandClass
    word: StringWord
    verified_exponents: tuple[int, ...]
    construction: str


def _positive_bar_family(detail: dict) -> StringWord:
    c_l, c_r, bar = detail["c_l"], detail["c_r"], detail["bar"]
    if not bar.letters[0].inverse:
        return c_l.concat(bar).concat(c_r).concat(bar.inverse())
    return c_l.inverse().concat(bar).concat(c_r.inverse()).concat(bar.inverse())


def _zero_bar_family(detail: dict) -> StringWord:
    # rotate the composite cycle so it opens after the maximal direct prefix
    # of the non-serial side; the splice point blocks all graph maps
    c_l, c_r = detail["c_l"], detail["c_r"]
    if all(not l.inverse for l in c_l.letters):
        c_l, c_r = c_r, c_l
    i = 0
    while i < len(c_l) and not c_l.letters[i].inverse:
        i += 1
    w = c_l.slice(i, len(c_l)).concat(c_r)
    if i:
        w = w.concat(c_l.slice(0, i))
    return w


def barbell_brick_family(q: BoundQuiver, label, m_max: int = 4) -> BrickFamilyWitness:
    """The canonical band whose powers stay bricks, verified for
    ``m = 1..m_max`` through graph maps and the linear-algebra oracle."""
    if m_max < 1:
        raise QuiverError(f"m_max must be at least 1, got {m_max}")
    detail = label.detail
    if label.value == "HereditaryAn":
        # the seam vertex must not land in both top and socle; some rotation
        # of the cycle always works (a simple of defect -1 exists on the cycle)
        w = brick_rotation(detail["band"], 2)
        if w is None:
            raise QuiverError("no brick rotation of the cycle band; recognizer bug")
        construction = "HereditaryAn"
    elif label.value == "Barbell" or (label.value == "GeneralizedBarbell" and len(detail["bar"])):
        w = _positive_bar_family(detail)
        construction = "BarbellStandard"
    elif label.value == "GeneralizedBarbell":
        w = _zero_bar_family(detail)
        construction = "ZeroBarStandard"
    else:
        raise QuiverError(f"no brick family construction for label {label.value}")
    exponents = []
    for m in range(1, m_max + 1):
        wm = w.power(m)
        graph = is_brick(wm)
        linear = end_dim_linear(string_module(wm)) == 1
        if not (graph and linear):
            raise QuiverError(
                f"constructed family fails brick check at exponent {m}"
                f" (graph={graph}, linear={linear}); recognizer or construction bug"
            )
        exponents.append(m)
    return BrickFamilyWitness(canonical_band(w), w, tuple(exponents), construction)


def brick_rotation(b: BandClass, m_max: int) -> StringWord | None:
    """A rotation of the class whose powers up to ``m_max`` are all bricks.

    Rotations of one band give non-isomorphic string modules, so the brick
    property must be searched over the class, not read off one
    representative.
    """
    rep = b.representative
    ends = _code_ends(rep.quiver)
    for base in (rep, rep.inverse()):
        c = base.codes()
        for k in range(len(c)):
            r = c[k:] + c[:k]
            if all(_is_brick_codes(r * m, _walk(ends, r * m)) for m in range(1, m_max + 1)):
                return base.rotate(k)
    return None


def unique_brick_band_scan(q: BoundQuiver, max_band_len: int, m_max: int) -> list[BandClass]:
    """Band classes admitting a rotation all of whose powers up to
    ``m_max`` are bricks."""
    if not validate_string_algebra(q).holds:
        raise QuiverError("scan expects a string algebra")
    return [b for b in enumerate_bands(q, max_band_len) if brick_rotation(b, m_max) is not None]

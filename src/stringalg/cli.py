"""Command-line interface: reproducible JSON/text reports over quiver files.

Subcommands cover validation, string/band/brick enumeration, Hom bases,
censuses, the surgeries, classification and tau-tilting verdicts, plus the
graph-map vs linear-algebra cross check.  Every JSON report embeds the
sha256 of the input text and the tool version; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .census import brick_census, brick_rotation
from .classify import classify_mri_sb, classify_node_free, gentle_hom_report, tau_finiteness
from .fixtures import fixture_names, load_fixture
from .graphmaps import admissible_pairs, is_brick
from .oracle import hom_dim_linear
from .quiver import (
    BoundQuiver,
    QuiverError,
    nodes,
    parse_quiver,
    validate_gentle,
    validate_special_biserial,
    validate_string_algebra,
)
from .transforms import fully_reduce, reduce, resolve_nodes, trim
from .words import (
    enumerate_bands,
    enumerate_strings,
    string_module,
    word_from_text,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


def _worker_count() -> int:
    # accepted for compatibility; execution is sequential and canonical, so
    # any worker count produces identical reports
    raw = os.environ.get("STRINGALG_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise QuiverError(f"STRINGALG_WORKERS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise QuiverError("STRINGALG_WORKERS must be at least 1")
    return n


def _load(path: str) -> tuple[BoundQuiver, str]:
    if path.startswith("fixture:"):
        q = load_fixture(path[len("fixture:") :])
        return q, q.to_text()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise QuiverError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_quiver(text), text


def _report(args, payload: dict, text: str) -> dict:
    return {
        "tool": "stringalg",
        "version": __version__,
        "input_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "subcommand": args.cmd,
        **payload,
    }


def _emit(args, report: dict, lines: list[str] | None = None) -> None:
    if args.format == "json":
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        out = "\n".join(lines if lines is not None else [json.dumps(report, sort_keys=True)]) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _verdict_json(v) -> dict:
    return {"holds": v.holds, "witnesses": list(v.witnesses)}


def cmd_validate(args) -> int:
    q, text = _load(args.quiver)
    checks = {
        "special_biserial": validate_special_biserial(q),
        "string_algebra": validate_string_algebra(q),
        "gentle": validate_gentle(q),
    }
    payload = {
        "quiver": q.to_json(),
        "checks": {k: _verdict_json(v) for k, v in checks.items()},
        "nodes": sorted(nodes(q)),
    }
    lines = [f"{k}: {'holds' if v.holds else 'fails'}" for k, v in checks.items()]
    _emit(args, _report(args, payload, text), lines)
    if args.strict and not all(v.holds for v in checks.values()):
        return EXIT_VERDICT
    return EXIT_OK


def cmd_strings(args) -> int:
    q, text = _load(args.quiver)
    ws = enumerate_strings(q, args.max_len)
    payload = {"count": len(ws), "strings": [w.render() for w in ws]}
    _emit(args, _report(args, payload, text), [w.render() for w in ws])
    return EXIT_OK


def cmd_bands(args) -> int:
    q, text = _load(args.quiver)
    bound = args.max_len if args.max_len is not None else 2 * len(q.arrows)
    bs = enumerate_bands(q, bound)
    payload = {"bound": bound, "count": len(bs), "bands": [b.render() for b in bs]}
    _emit(args, _report(args, payload, text), [b.render() for b in bs])
    return EXIT_OK


def cmd_hom(args) -> int:
    q, text = _load(args.quiver)
    u = word_from_text(q, args.source)
    v = word_from_text(q, args.target)
    basis = admissible_pairs(u, v)
    payload = {"dim": basis.dim}
    lines = [f"dim = {basis.dim}"]
    if args.verbose:
        payload["pairs"] = [list(p) for p in basis.pairs]
        lines += [f"splits {p}" for p in basis.pairs]
    _emit(args, _report(args, payload, text), lines)
    return EXIT_OK


def cmd_brick(args) -> int:
    q, text = _load(args.quiver)
    w = word_from_text(q, args.word)
    flag = is_brick(w)
    _emit(args, _report(args, {"word": w.render(), "brick": flag}, text), [str(flag)])
    if args.strict and not flag:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_census(args) -> int:
    q, text = _load(args.quiver)
    if args.m_max < 0:  # 0: no band scan
        raise QuiverError(f"m_max must be at least 0, got {args.m_max}")
    report = brick_census(q, args.max_len, window_lo=args.window)
    payload = {"census": report.to_json()}
    if args.m_max:
        # the minimal bands up to --max-len, the ones the census lists
        scan = [b for b in report.bands if brick_rotation(b, args.m_max) is not None]
        payload["brick_bands"] = [b.render() for b in scan]
    lines = ["len strings bricks"] + [
        f"{l:3d} {s:7d} {b:6d}" for l, (s, b) in sorted(report.per_length.items())
    ]
    lines.append(f"stabilized: {report.stabilized}")
    _emit(args, _report(args, payload, text), lines)
    return EXIT_OK


def cmd_resolve_nodes(args) -> int:
    q, text = _load(args.quiver)
    out, trace = resolve_nodes(q)
    comps = out if isinstance(out, list) else [out]
    payload = {
        "components": [c.to_json() for c in comps],
        "trace": trace.to_json(),
    }
    _emit(args, _report(args, payload, text), [c.to_text() for c in comps])
    return EXIT_OK


def cmd_trim(args) -> int:
    q, text = _load(args.quiver)
    comps, trace = trim(q)
    payload = {"components": [c.to_json() for c in comps], "trace": trace.to_json()}
    _emit(args, _report(args, payload, text), [c.to_text() for c in comps])
    return EXIT_OK


def cmd_reduce(args) -> int:
    q, text = _load(args.quiver)
    bs = enumerate_bands(q)
    if not (0 <= args.band < len(bs)):
        raise QuiverError(f"band index {args.band} out of range (found {len(bs)})")
    r = reduce(q, bs[args.band])
    payload = {"band": bs[args.band].render(), "result": r.to_json()}
    _emit(args, _report(args, payload, text), [r.to_text()])
    return EXIT_OK


def cmd_fully_reduce(args) -> int:
    q, text = _load(args.quiver)
    outs = fully_reduce(q)
    payload = {
        "outputs": [
            {"quiver": r.to_json(), "trace": tr.to_json()} for r, tr in outs
        ]
    }
    _emit(args, _report(args, payload, text), [r.to_text() for r, _ in outs])
    return EXIT_OK


def _class_report(q, m_max: int = 3) -> dict:
    """Combined label + tau verdict document shared by classify and tau."""
    if nodes(q) or not validate_string_algebra(q).holds:
        label = classify_mri_sb(q)
    else:
        label = classify_node_free(q)
    verdict = tau_finiteness(q, m_max=m_max)
    return {"classification": label.to_json(), "tau": verdict.to_json()}


def cmd_classify(args) -> int:
    q, text = _load(args.quiver)
    payload = _class_report(q)
    label = payload["classification"]["label"]
    verdict = payload["tau"]["verdict"]
    _emit(args, _report(args, payload, text), [label, f"tau: {verdict}"])
    if args.strict and (label == "Other" or verdict == "Unknown"):
        return EXIT_VERDICT
    return EXIT_OK


def cmd_tau(args) -> int:
    q, text = _load(args.quiver)
    payload = _class_report(q, m_max=args.m_max)
    _emit(args, _report(args, payload, text), [payload["tau"]["verdict"]])
    if args.strict and payload["tau"]["verdict"] == "Unknown":
        return EXIT_VERDICT
    return EXIT_OK


def cmd_gorenstein(args) -> int:
    q, text = _load(args.quiver)
    report = gentle_hom_report(q)
    payload = {"gorenstein": report.to_json()}
    lines = [
        f"n(A) = {report.n_of_a}",
        f"injective dimension = {report.injective_dim}"
        + (" (upper bound)" if report.injective_dim_is_bound else ""),
        f"gldim <= 2: {report.gldim_le_2}",
    ]
    _emit(args, _report(args, payload, text), lines)
    return EXIT_OK


def cmd_xcheck(args) -> int:
    q, text = _load(args.quiver)
    ws = enumerate_strings(q, args.max_len)
    mods = {w: string_module(w) for w in ws}
    mismatches = []
    for u in ws:
        for v in ws:
            g = admissible_pairs(u, v).dim
            o = hom_dim_linear(mods[u], mods[v], sanity=args.sanity)
            if g != o:
                mismatches.append({"source": u.render(), "target": v.render(), "graph": g, "linear": o})
    payload = {
        "strings": len(ws),
        "pairs": len(ws) ** 2,
        "mismatches": mismatches,
    }
    _emit(
        args,
        _report(args, payload, text),
        [f"{len(ws)} strings, {len(ws) ** 2} pairs, {len(mismatches)} mismatches"],
    )
    return EXIT_VERDICT if mismatches else EXIT_OK


def cmd_fixtures(args) -> int:
    names = fixture_names()
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for n in names:
            with open(os.path.join(args.dump, f"{n}.quiver"), "w", encoding="utf-8") as fh:
                fh.write(load_fixture(n).to_text())
    report = {"tool": "stringalg", "version": __version__, "fixtures": names, "subcommand": "fixtures"}
    _emit(args, report, names)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    p = argparse.ArgumentParser(
        prog="stringalg",
        description="string algebra combinatorics and tau-tilting finiteness",
    )
    # the global flags are also accepted after the subcommand; there they
    # default to SUPPRESS, so a flag given before the subcommand stands
    # unless it is given again after it
    flags = argparse.ArgumentParser(add_help=False)
    for parser, (fmt, output, strict) in ((p, ("json", None, False)), (flags, (argparse.SUPPRESS,) * 3)):
        parser.add_argument("--format", choices=("json", "text"), default=fmt)
        parser.add_argument(
            "--output", "-o", default=output, help="write the report to a file instead of stdout"
        )
        parser.add_argument(
            "--strict", action="store_true", default=strict, help="exit 1 on failing verdicts"
        )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[flags], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="axiom checks and node set")
    sp.add_argument("quiver")
    sp = add("strings", cmd_strings, help="canonical strings up to a length")
    sp.add_argument("quiver")
    sp.add_argument("--max-len", type=int, default=6)
    sp = add("bands", cmd_bands, help="band classes up to a length")
    sp.add_argument("quiver")
    sp.add_argument("--max-len", type=int, default=None)
    sp = add("hom", cmd_hom, help="graph-map basis of Hom(M(u), M(v))")
    sp.add_argument("quiver")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--verbose", "-v", action="store_true")
    sp = add("brick", cmd_brick, help="brick test for one string")
    sp.add_argument("quiver")
    sp.add_argument("word")
    sp = add("census", cmd_census, help="brick census per length")
    sp.add_argument("quiver")
    sp.add_argument("--max-len", type=int, default=12)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--m-max", type=int, default=0)
    sp = add("resolve-nodes", cmd_resolve_nodes, help="split nodes into sink/source pairs")
    sp.add_argument("quiver")
    sp = add("trim", cmd_trim, help="remove nodes and secluded vertices")
    sp.add_argument("quiver")
    sp = add("reduce", cmd_reduce, help="band reduction by band index")
    sp.add_argument("quiver")
    sp.add_argument("--band", type=int, default=0)
    sp = add("fully-reduce", cmd_fully_reduce, help="closure of trim and reduce")
    sp.add_argument("quiver")
    sp = add("classify", cmd_classify, help="bound-quiver class recognition")
    sp.add_argument("quiver")
    sp = add("tau", cmd_tau, help="tau-tilting finiteness verdict")
    sp.add_argument("quiver")
    sp.add_argument("--m-max", type=int, default=3)
    sp = add("gorenstein", cmd_gorenstein, help="homological report for gentle algebras")
    sp.add_argument("quiver")
    sp = add("xcheck", cmd_xcheck, help="graph maps vs linear-algebra oracle")
    sp.add_argument("quiver")
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--sanity", action="store_true", help="recheck ranks mod 32003")
    sp = add("fixtures", cmd_fixtures, help="list or dump the fixture corpus")
    sp.add_argument("--dump", help="write all fixtures into a directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _worker_count()
        return args.fn(args)
    except (QuiverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: reproducible JSON/text reports over quiver files.

Subcommands cover validation, string/band/brick enumeration, Hom bases,
censuses, the surgeries, classification and tau-tilting verdicts, plus the
graph-map vs linear-algebra cross check.  Every JSON report embeds the
sha256 of the input text and the tool version; reruns are byte-identical.

Each ``cmd_*`` takes the loaded quiver and the parsed arguments and returns
``(payload, lines, failed)``: the report body, its ``--format text`` lines
and whether a verdict failed.  ``main`` alone loads, stamps, emits and
chooses the exit status.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .census import brick_census, unique_brick_band_scan
from .classify import classify_mri_sb, classify_node_free, gentle_hom_report, tau_finiteness
from .fixtures import fixture_names, load_fixture
from .graphmaps import _hom_basis, admissible_pairs, is_brick
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


def _emit(args, payload: dict, text: str | None, lines: list[str]) -> None:
    """Write the report, stamped with the tool and, when there is an input,
    the sha256 of its text; or ``lines`` under ``--format text``."""
    if args.format == "json":
        report = {"tool": "stringalg", "version": __version__, "subcommand": args.cmd, **payload}
        if text is not None:
            report["input_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        out = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _verdict_json(v) -> dict:
    return {"holds": v.holds, "witnesses": list(v.witnesses)}


def cmd_validate(q, args):
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
    return payload, lines, not all(v.holds for v in checks.values())


def cmd_strings(q, args):
    ws = [w.render() for w in enumerate_strings(q, args.max_len)]
    return {"count": len(ws), "strings": ws}, ws, False


def cmd_bands(q, args):
    bound = args.max_len if args.max_len is not None else 2 * len(q.arrows)
    bs = [b.render() for b in enumerate_bands(q, bound)]
    return {"bound": bound, "count": len(bs), "bands": bs}, bs, False


def cmd_hom(q, args):
    basis = admissible_pairs(word_from_text(q, args.source), word_from_text(q, args.target))
    payload = {"dim": basis.dim}
    lines = [f"dim = {basis.dim}"]
    if args.verbose:
        payload["pairs"] = [list(p) for p in basis.pairs]
        lines += [f"splits {p}" for p in basis.pairs]
    return payload, lines, False


def cmd_brick(q, args):
    w = word_from_text(q, args.word)
    flag = is_brick(w)
    return {"word": w.render(), "brick": flag}, [str(flag)], not flag


def cmd_census(q, args):
    report = brick_census(q, args.max_len)
    scan = unique_brick_band_scan(q, args.max_len)  # among the bands the census lists
    payload = {"census": report.to_json(), "brick_bands": [b.render() for b in scan]}
    lines = ["len strings bricks"] + [
        f"{l:3d} {s:7d} {b:6d}" for l, (s, b) in sorted(report.per_length.items())
    ]
    exhausted = "none" if report.exhausted_at is None else report.exhausted_at
    lines.append(f"exhausted_at: {exhausted}")
    return payload, lines, False


def _components(comps, trace):
    payload = {"components": [c.to_json() for c in comps], "trace": trace}
    return payload, [c.to_text() for c in comps], False


def cmd_resolve_nodes(q, args):
    return _components(*resolve_nodes(q))


def cmd_trim(q, args):
    return _components(*trim(q))


def cmd_reduce(q, args):
    bs = enumerate_bands(q)
    if not (0 <= args.band < len(bs)):
        raise QuiverError(f"band index {args.band} out of range (found {len(bs)})")
    r = reduce(q, bs[args.band])
    return {"band": bs[args.band].render(), "result": r.to_json()}, [r.to_text()], False


def cmd_fully_reduce(q, args):
    outs = fully_reduce(q)
    payload = {"outputs": [{"quiver": r.to_json(), "trace": tr} for r, tr in outs]}
    return payload, [r.to_text() for r, _ in outs], False


def _class_report(q) -> dict:
    """Combined label + tau verdict document shared by classify and tau."""
    if nodes(q) or not validate_string_algebra(q).holds:
        label = classify_mri_sb(q)
    else:
        label = classify_node_free(q)
    verdict = tau_finiteness(q)
    return {"classification": label.to_json(), "tau": verdict.to_json()}


def cmd_classify(q, args):
    payload = _class_report(q)
    label = payload["classification"]["label"]
    verdict = payload["tau"]["verdict"]
    return payload, [label, f"tau: {verdict}"], label == "Other" or verdict == "Unknown"


def cmd_tau(q, args):
    payload = _class_report(q)
    verdict = payload["tau"]["verdict"]
    return payload, [verdict], verdict == "Unknown"


def cmd_gorenstein(q, args):
    report = gentle_hom_report(q)
    lines = [
        f"n(A) = {report.n_of_a}",
        f"injective dimension = {report.injective_dim}"
        + (" (upper bound)" if report.injective_dim_is_bound else ""),
        f"gldim <= 2: {report.gldim_le_2}",
    ]
    return {"gorenstein": report.to_json()}, lines, False


def cmd_xcheck(q, args):
    ws = enumerate_strings(q, args.max_len)
    mods = {w: string_module(w) for w in ws}
    mismatches = []
    for u in ws:
        for v in ws:
            g = _hom_basis(u, v).dim  # strings by construction
            o = hom_dim_linear(mods[u], mods[v], sanity=args.sanity)
            if g != o:
                mismatches.append({"source": u.render(), "target": v.render(), "graph": g, "linear": o})
    payload = {"strings": len(ws), "pairs": len(ws) ** 2, "mismatches": mismatches}
    lines = [f"{len(ws)} strings, {len(ws) ** 2} pairs, {len(mismatches)} mismatches"]
    return payload, lines, bool(mismatches)


def cmd_fixtures(q, args):
    """``q`` is None: this subcommand reads no quiver."""
    names = fixture_names()
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for n in names:
            with open(os.path.join(args.dump, f"{n}.quiver"), "w", encoding="utf-8") as fh:
                fh.write(load_fixture(n).to_text())
    return {"fixtures": names}, names, False


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an input error, in one line, instead of
    printing the usage and exiting."""

    def error(self, message: str):
        raise QuiverError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    p = _ArgumentParser(
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
    try:
        args = build_parser().parse_args(argv)
        # by name: a tracer may rebind the cmd_* functions
        q, text = (None, None) if args.cmd == "fixtures" else _load(args.quiver)
        payload, lines, failed = args.fn(q, args)
        _emit(args, payload, text, lines)
    except (QuiverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # a verdict fails the run only under --strict; an xcheck mismatch always
    if failed and (args.strict or args.cmd == "xcheck"):
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

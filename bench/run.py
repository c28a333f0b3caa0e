"""Benchmark of stringalg: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload {verdict,hom,census} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
repeat the metrics by name with units, stamp the environment, and list
per-input latencies.  The same report, with every op latency, is written to
``bench/out/``.

``--trace 0`` measures end-to-end metrics.  Set-up (import plus every
program call that prepares inputs) runs several times in fresh imports and
``setup_s`` is the median.  Whole rounds of ops then run until ``--seconds``
of wall time have passed and at least ``MIN_OPS`` ops are done.

Set-up and op times are CPU time of this process (``time.process_time``).
The program runs each op in this one process and thread, without waiting on
anything but a small file read, so on an idle machine this equals wall time;
on a shared one it leaves out the time the scheduler or the host gives the
CPU to others.  The speed of a shared host still drifts, so the timed loop
also runs the fixed task of reference.py between ops, and every reported
time is scaled to a host of nominal speed.  The unscaled CPU and wall-clock
figures are printed beside them.

``--trace 1`` measures per-layer metrics over a fixed op list (the first
rounds of the seed): once untraced, then twice traced, each after a fresh
set-up.  The traced passes wrap every public function of the program modules
(see tracer.py); their counts must agree exactly, or the run is not correct.
The spans of the first traced pass are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUPS = 6
MIN_OPS = 100


def import_program() -> dict:
    """Fresh import of every stringalg module, as name -> module."""
    for name in [m for m in sys.modules if m == "stringalg" or m.startswith("stringalg.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"stringalg.{name}") for name in LAYERS + ("fixtures",)}
    if Path(mods["cli"].__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"stringalg imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


def setup(cls, seed: int, workdir: str, tracer: Tracer | None = None):
    gc.collect()
    t0 = time.process_time()
    mods = import_program()
    if tracer is not None:
        tracer.install(mods)
    workload = cls(mods, seed, workdir)
    return workload, time.process_time() - t0


@dataclass
class Loop:
    """What a closed loop of ops did.  ``cpu_s`` and ``wall_s`` sum the
    time of each op with its answer check, so the generation of inputs
    between rounds is left out."""

    latencies: list[int] = field(default_factory=list)  # CPU ns, in op order
    wall_latencies: list[int] = field(default_factory=list)  # wall ns, in op order
    labels: list[str] = field(default_factory=list)  # input of each op
    failed: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0
    rounds: int = 0
    reference_ns: list[int] = field(default_factory=list)


def run_rounds(workload, go_on, tracer: Tracer | None = None, calibrate: bool = False) -> Loop:
    """Run whole rounds while ``go_on(r, n_ops, wall_s)`` holds.  With
    ``calibrate``, the reference task runs after an op whenever it has used
    less than ``reference.SHARE`` of the ops' CPU time."""
    loop = Loop()
    latencies, walls, labels = loop.latencies, loop.wall_latencies, loop.labels
    failed, errors, refs = loop.failed, loop.errors, loop.reference_ns
    cpu = wall = ref_cpu = 0
    cpu_clock, wall_clock = time.process_time_ns, time.perf_counter_ns
    r = 0
    while go_on(r, len(latencies), wall / 1e9):
        for op in workload.round_ops(r):
            k = len(latencies)
            if tracer is not None:
                tracer.op_id = k
            w0, c0 = wall_clock(), cpu_clock()
            try:
                result = workload.call(op)
                c1, w1 = cpu_clock(), wall_clock()
                ok = workload.check(k, op, result, c1 - c0)
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                c1, w1 = cpu_clock(), wall_clock()
                ok = False
                errors.append(f"op {k} ({op[0]}): {type(exc).__name__}: {exc}")
            cpu += cpu_clock() - c0
            wall += wall_clock() - w0
            latencies.append(c1 - c0)
            walls.append(w1 - w0)
            labels.append(op[0])
            if not ok:
                failed.add(k)
            if calibrate and ref_cpu < reference.SHARE * cpu:
                refs.append(reference.reference_ns())
                ref_cpu += refs[-1]
        r += 1
    loop.cpu_s, loop.wall_s, loop.rounds = cpu / 1e9, wall / 1e9, r
    return loop


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(cls, seed: int, seconds: float, workdir: str) -> dict:
    # Set-up runs SETUPS times, half before the loop and half after it, so
    # that the samples span the run; the last one before the loop is used.
    setup_times = []
    workload = None
    for _ in range(SETUPS // 2):
        workload = None  # release the previous import before the next
        workload, dt = setup(cls, seed, workdir)
        setup_times.append(dt)
    limit = cls.max_rounds

    def go_on(r: int, n_ops: int, wall: float) -> bool:
        if limit is not None and r >= limit:
            return False
        if n_ops < MIN_OPS:
            return True
        # stop at the round boundary nearest to the time limit
        return wall + wall / (2 * r) < seconds

    loop = run_rounds(workload, go_on, calibrate=True)
    failed = loop.failed | workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = getattr(workload, "rows", [])
    for _ in range(SETUPS - SETUPS // 2):
        workload = None
        workload, dt = setup(cls, seed, workdir)
        setup_times.append(dt)
    # times scaled to a host of nominal speed (see reference.py)
    ref_ms = statistics.median(loop.reference_ns) / 1e6
    scale = reference.NOMINAL_NS / 1e6 / ref_ms
    ms = [x / 1e6 for x in loop.latencies]
    wall_ms = [x / 1e6 for x in loop.wall_latencies]
    n = len(ms)
    for row in rows:
        row["nominal_ms"] = row["ms"] * scale
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "ops_per_s": (n / loop.cpu_s / scale, "1/s"),
        "op_p50_ms": (statistics.median(ms) * scale, "ms"),
        "op_p90_ms": (percentile(ms, 90) * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "attempted": n,
        "failed": len(failed),
        "correct": not failed,
        "metrics": metrics,
        "notes": [
            f"{n} ops in {loop.rounds} rounds, loop CPU {loop.cpu_s:.2f} s, wall {loop.wall_s:.2f} s",
            f"reference task: median {ref_ms:.4f} ms of {len(loop.reference_ns)} runs,"
            f" times below scaled by {scale:.4f}",
            f"unscaled CPU time: setup {statistics.median(setup_times):.4f} s,"
            f" {n / loop.cpu_s:.4f} ops/s, p50 {statistics.median(ms):.4f} ms,"
            f" p90 {percentile(ms, 90):.4f} ms",
            f"unscaled wall clock: {n / loop.wall_s:.4f} ops/s, p50 {statistics.median(wall_ms):.4f} ms,"
            f" p90 {percentile(wall_ms, 90):.4f} ms",
            f"{'failed_share':42s} {len(failed) / n:14.6f} ratio ({len(failed)} of {n} ops)",
            f"setup_s samples {[round(t, 4) for t in setup_times]}",
        ],
        "errors": loop.errors,
        "rows": rows,
        "ops": [[label, x] for label, x in zip(loop.labels, ms)],
    }


def traced_run(cls, seed: int, workdir: str) -> dict:
    def fixed(r: int, n_ops: int, wall: float) -> bool:
        return r < cls.trace_rounds

    workload, _ = setup(cls, seed, workdir)
    plain = run_rounds(workload, fixed)
    failed = plain.failed | workload.finish()
    errors = plain.errors
    passes = []
    spans_file = None
    for i in range(2):
        workload = None
        tracer = Tracer()
        workload, _ = setup(cls, seed, workdir, tracer)
        loop = run_rounds(workload, fixed, tracer)
        metrics = tracer.metrics(len(loop.latencies))
        tracer.op_id = -2
        failed |= loop.failed | workload.finish()
        errors += loop.errors
        passes.append((metrics, loop.wall_s))
        if i == 0:
            spans_file = OUT / f"spans-{cls.__name__.lower()}-seed{seed}.csv.gz"
            tracer.write(spans_file)
        tracer = None
    (m1, w1), (m2, w2) = passes
    # times are averaged over the two traced passes; everything else must
    # repeat exactly
    unsteady = sorted(k for k, (v, unit) in m1.items() if unit != "s" and v != m2[k][0])
    metrics = {
        k: ((v + m2[k][0]) / 2, unit) if unit == "s" else (v, unit) for k, (v, unit) in m1.items()
    }
    metrics["trace.overhead_ratio"] = ((w1 + w2) / 2 / plain.wall_s, "ratio")
    n = len(plain.latencies)
    notes = [
        f"{n} ops per pass; wall untraced {plain.wall_s:.2f} s, traced {w1:.2f} s and {w2:.2f} s",
        f"spans written to {spans_file.relative_to(ROOT)}",
    ]
    if unsteady:
        notes.append(f"counts differ between the two traced passes: {unsteady}")
    return {
        "attempted": n,
        "failed": len(failed),
        "correct": not failed and not unsteady,
        "metrics": metrics,
        "notes": notes,
        "errors": errors,
        "rows": [],
    }


def commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    loadavg = Path("/proc/loadavg")
    return {
        "commit": commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg.read_text().split()[:3] if loadavg.is_file() else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "stringalg" / "__init__.py").is_file():
        print(f"error: no stringalg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            res = traced_run(cls, args.seed, workdir)
        else:
            res = timed_run(cls, args.seed, args.seconds, workdir)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, **res}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report) + "\n"
    )
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in res["notes"]:
        print(f"# {note}")
    for row in res["rows"]:
        print(f"# input {row['input']} op {row['op']}: {row['ms']:.1f} ms CPU, {row['nominal_ms']:.1f} ms scaled")
    for key, (value, unit) in res["metrics"].items():
        print(f"# {key:42s} {value:14.6f} {unit}")
    for err in res["errors"][:20]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

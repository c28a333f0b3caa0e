"""Per-layer tracing from outside the program.

Every public function defined in a traced ``stringalg`` module is replaced by
a wrapper that records one span: function, start, end, parent span and op
id.  Modules import functions by name (``from .graphmaps import is_brick``),
so the wrapper is bound in every ``stringalg.*`` namespace that holds the
original.  Spans stay in typed arrays until the run writes them out.  The
package has no generator functions, so every span closes when its call
returns and child spans nest inside their parent.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter

# One layer per program module; ``fixtures`` only builds inputs.
LAYERS = ("cli", "quiver", "words", "graphmaps", "oracle", "transforms", "classify", "census")

# Functions whose own self time and call count are reported besides the
# layer totals.
SELF_TIMED = (
    "graphmaps.is_brick",
    "words.enumerate_bands",
    "words.enumerate_strings",
    "words.string_module",
    "graphmaps.admissible_pairs",
    "oracle.hom_dim_linear",
    "oracle.end_dim_linear",
    "transforms.fully_reduce",
    "quiver.parse_quiver",
    "census.brick_census",
)
CALL_COUNTED = (
    "words.canonical_string",
    "graphmaps.is_brick",
    "words.band_exists",
    "graphmaps.admissible_pairs",
    "transforms.reduce",
    "transforms.quivers_isomorphic",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1  # spans recorded during set-up carry op id -1
        self.brick_positives = 0
        self.string_items = 0
        self.oracle_vars = 0
        self.band_quivers: Counter = Counter()

    def install(self, modules: dict) -> None:
        """Wrap the public functions of the layer modules in ``modules``
        (name -> module) and rebind each wrapper wherever the package holds
        the original."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is wrappers[id(value)].__wrapped__:
                    setattr(mod, attr, wrappers[id(value)])

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        observe = {
            "graphmaps.is_brick": self._observe_brick,
            "words.enumerate_strings": self._observe_strings,
            "words.enumerate_bands": self._observe_bands,
            "oracle.hom_dim_linear": self._observe_oracle,
        }.get(name)
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # counts computed from arguments and results

    def _observe_brick(self, args, kwargs, result) -> None:
        self.brick_positives += bool(result)

    def _observe_strings(self, args, kwargs, result) -> None:
        self.string_items += len(result)

    def _observe_bands(self, args, kwargs, result) -> None:
        q = args[0] if args else kwargs["q"]
        self.band_quivers[q.structure_key()] += 1

    def _observe_oracle(self, args, kwargs, result) -> None:
        U, V = args[0], args[1]
        self.oracle_vars += sum(U.dims[x] * V.dims[x] for x in U.dims)

    # -- results -----------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer self time (span duration minus the time its child spans
        cover) and counts over set-up and ops, as name -> (value, unit)."""
        starts, ends, parents, fids = self.start, self.end, self.parent, self.fid
        child = array("q", bytes(8 * len(fids)))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i, f in enumerate(fids):
            self_ns[f] += ends[i] - starts[i] - child[i]
            calls[f] += 1
        self_s = {name: self_ns[f] / 1e9 for f, name in enumerate(self.names)}
        count = dict(zip(self.names, calls))

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            members = [name for name in self.names if name.split(".")[0] == layer]
            out[f"{layer}.self_s"] = (sum(self_s[m] for m in members), "s")
            out[f"{layer}.calls"] = (sum(count[m] for m in members), "count")
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = (count.get(name, 0), "count")
        bricks = count.get("graphmaps.is_brick", 0)
        out["graphmaps.is_brick.positive_ratio"] = (
            self.brick_positives / bricks if bricks else 0.0, "ratio"
        )
        distinct = len(self.band_quivers)
        out["words.enumerate_bands.repeat_ratio"] = (
            sum(self.band_quivers.values()) / distinct if distinct else 0.0, "ratio"
        )
        out["words.enumerate_strings.items"] = (self.string_items, "count")
        out["oracle.vars_computed"] = (self.oracle_vars, "count")
        out["classify.classify_mri_sb.calls_per_op"] = (
            count.get("classify.classify_mri_sb", 0) / n_ops, "ratio"
        )
        out["trace.spans"] = (len(fids), "count")
        return out

    def write(self, path) -> None:
        """Write every span as CSV: span id, function, start and end in ns
        from the first span, parent span id (-1: none) and op id (-1: set-up,
        -2: answer checks after the loop)."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,function,start_ns,end_ns,parent,op\n")
            names = self.names
            for i, (f, s, e, p, o) in enumerate(
                zip(self.fid, self.start, self.end, self.parent, self.op)
            ):
                fh.write(f"{i},{names[f]},{s - t0},{e - t0},{p},{o}\n")

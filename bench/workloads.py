"""The three workloads.  Each is a closed loop with one client: the next op
starts when the previous one has returned.

A workload object is built by set-up, which makes every program call that
prepares inputs.  ``round_ops(r)`` then returns the ops of round ``r`` without
calling the program, ``call(op)`` is the timed program call, ``check`` tests
its answer, and ``finish`` runs the checks that need the whole run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import defaultdict

from inputs import (
    CORPUS_VERDICTS,
    census_candidates,
    census_orders,
    draw_census,
    draw_families,
    family_candidates,
    family_verdict,
    relabel,
    string_counts,
    string_walks,
    word_text,
)


class Verdict:
    """One op: ``stringalg tau <file>`` in-process on a generated quiver file.

    Round 0 runs the fixture corpus as the program writes it; later rounds
    run seeded relabelled copies.  Every round adds the family draws of
    ``draw_families``, relabelled with the seed, so no input text repeats
    within a run.
    """

    trace_rounds = 1
    max_rounds = None
    # per-input latency rows reported for these fixtures
    tracked = ("windwheel_a12", "big_gentle")

    def __init__(self, mods: dict, seed: int, workdir: str):
        fx = mods["fixtures"]
        self.cli = mods["cli"]
        self.seed = seed
        self.workdir = workdir
        self.corpus = {name: fx.load_fixture(name) for name in fx.fixture_names()}
        missing = sorted(set(self.corpus) - set(CORPUS_VERDICTS))
        if missing:
            raise RuntimeError(f"no reference verdict for fixtures {missing}")
        self.corpus_text = {name: q.to_text() for name, q in self.corpus.items()}
        builders = {
            "double_cycle": fx.double_cycle,
            "bongartz_cycle": fx.bongartz_cycle,
            "bongartz_glued": fx.bongartz_glued,
            "bongartz_e": fx.bongartz_e,
        }
        self.family = {(f, p): builders[f](*p) for f, p in family_candidates()}
        self.seen_texts: set[str] = set()
        self.rows: list[dict] = []

    def round_ops(self, r: int) -> list[tuple[str, str, str]]:
        """(source, file path, expected verdict) per op."""
        rng = random.Random(f"verdict-{self.seed}-{r}")
        items = []
        for name in sorted(self.corpus):
            text = self.corpus_text[name] if r == 0 else relabel(self.corpus[name], rng, f"{name}_r{r}")
            items.append((name, text, CORPUS_VERDICTS[name]))
        for slot, (fam, params) in enumerate(draw_families(r)):
            tag = "_".join(map(str, params))
            text = relabel(self.family[(fam, params)], rng, f"{fam}_{tag}_r{r}s{slot}")
            items.append((f"{fam}({tag.replace('_', ',')})", text, family_verdict(fam, params)))
        rng.shuffle(items)
        ops = []
        for k, (source, text, expected) in enumerate(items):
            if text in self.seen_texts:
                raise RuntimeError(f"input text of {source} repeats")
            self.seen_texts.add(text)
            path = os.path.join(self.workdir, f"r{r}_{k}.quiver")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            ops.append((source, path, expected))
        return ops

    def call(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(["tau", op[1]])
        return rc, out.getvalue()

    def check(self, k: int, op, result, latency_ns: int) -> bool:
        source, path, expected = op
        if source in self.tracked:
            self.rows.append({"input": source, "op": k, "ms": latency_ns / 1e6})
        rc, out = result
        return rc == 0 and json.loads(out)["tau"]["verdict"] == expected

    def finish(self) -> set[int]:
        return set()


# Hom: string pools and the pair grid of one round
HOM_ALGEBRAS = ("loops_barbell", "big_gentle", "windwheel_a12", "lambda2", "lambda3", "lambda4")
HOM_MAX_LEN = 10
HOM_BUCKETS = ((0, 3), (4, 6), (7, 8), (9, 10))
HOM_PAIRS_PER_CELL = 2


class Hom:
    """One op: the graph-map Hom dimension of a string pair and the
    linear-algebra oracle's, compared (the ``xcheck`` work for one pair).

    Each round draws, for every algebra, length bucket and sharing mode,
    the same number of pairs.  Both strings come from one length bucket;
    in half of the pairs the target passes through a vertex of the source.
    """

    trace_rounds = 20
    max_rounds = None

    def __init__(self, mods: dict, seed: int, workdir: str):
        fx, words = mods["fixtures"], mods["words"]
        self.string_module = words.string_module
        self.admissible_pairs = mods["graphmaps"].admissible_pairs
        self.hom_dim_linear = mods["oracle"].hom_dim_linear
        self.seed = seed
        # per algebra and bucket: the strings, and for each vertex the
        # strings passing through it
        self.pools: dict[str, list[tuple[list, dict]]] = {}
        for name in HOM_ALGEBRAS:
            strings = words.enumerate_strings(fx.load_fixture(name), HOM_MAX_LEN)
            buckets = []
            for lo, hi in HOM_BUCKETS:
                members = [(w, tuple(dict.fromkeys(w.walk_vertices()))) for w in strings if lo <= len(w) <= hi]
                through = defaultdict(list)
                for w, verts in members:
                    for x in verts:
                        through[x].append(w)
                buckets.append((members, through))
            self.pools[name] = buckets

    def round_ops(self, r: int) -> list[tuple]:
        rng = random.Random(f"hom-{self.seed}-{r}")
        ops = []
        for name in HOM_ALGEBRAS:
            for members, through in self.pools[name]:
                for share in (True, False):
                    for _ in range(HOM_PAIRS_PER_CELL):
                        u, verts = rng.choice(members)
                        if share:
                            v = rng.choice(through[rng.choice(verts)])
                        else:
                            v = rng.choice(members)[0]
                        ops.append((name, u, v))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        _, u, v = op
        U, V = self.string_module(u), self.string_module(v)
        return self.admissible_pairs(u, v).dim, self.hom_dim_linear(U, V)

    def check(self, k: int, op, result, latency_ns: int) -> bool:
        graph, linear = result
        return graph == linear

    def finish(self) -> set[int]:
        return set()


CENSUS_ROUNDS = 12  # rounds parsed by set-up; about four times what a run uses
CENSUS_SAMPLE = 6  # strings per (algebra, length) whose brick flag is re-checked


class Census:
    """One op: ``brick_census(q, L)`` on a freshly parsed relabelled copy.

    Checks: the string count per length equals an independent walk count;
    every copy of one (algebra, L) gives the same brick counts; and after
    the loop, the brick flag of a seeded sample of strings agrees with the
    oracle's ``End`` dimension.
    """

    trace_rounds = 1
    max_rounds = CENSUS_ROUNDS

    def __init__(self, mods: dict, seed: int, workdir: str):
        fx = mods["fixtures"]
        self.mods = mods
        self.seed = seed
        self.brick_census = mods["census"].brick_census
        self.sources = {name: fx.load_fixture(name) for name in {n for n, _ in census_candidates()}}
        self.rounds = []
        orders = census_orders(random.Random(f"census-{self.seed}"))
        for r in range(CENSUS_ROUNDS):
            rng = random.Random(f"census-{self.seed}-{r}")
            draws = draw_census(orders, r)
            rng.shuffle(draws)
            self.rounds.append([
                (name, length, mods["quiver"].parse_quiver(relabel(self.sources[name], rng, f"{name}_r{r}_{i}")))
                for i, (name, length) in enumerate(draws)
            ])
        self.results: list[tuple[int, str, int, dict]] = []

    def round_ops(self, r: int):
        return self.rounds[r]

    def call(self, op):
        _, length, q = op
        return self.brick_census(q, length)

    def check(self, k: int, op, report, latency_ns: int) -> bool:
        name, length, _ = op
        self.results.append((k, name, length, dict(report.per_length)))
        return all(b <= s for s, b in report.per_length.values())

    def finish(self) -> set[int]:
        failed = set()
        by_class = defaultdict(list)
        for k, name, length, per_length in self.results:
            by_class[(name, length)].append((k, per_length))
        words, graphmaps, oracle = self.mods["words"], self.mods["graphmaps"], self.mods["oracle"]
        for (name, length), runs in sorted(by_class.items()):
            src = self.sources[name]
            walks = string_walks(src, length)
            expected = string_counts(src, walks, length)
            bricks = {tuple(b for _, (s, b) in sorted(p.items())) for _, p in runs}
            for k, per_length in runs:
                if {l: s for l, (s, _) in per_length.items()} != expected or len(bricks) > 1:
                    failed.add(k)
            rng = random.Random(f"census-check-{self.seed}-{name}-{length}")
            for letters in rng.sample(walks, min(CENSUS_SAMPLE, len(walks))):
                w = words.word_from_text(src, word_text(letters))
                linear = oracle.end_dim_linear(words.string_module(w)) == 1
                if graphmaps.is_brick(w) != linear:
                    failed.update(k for k, _ in runs)
        return failed


WORKLOADS = {"verdict": Verdict, "hom": Hom, "census": Census}

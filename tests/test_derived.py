"""Data derived from a quiver is computed once per quiver object, and what
the memo hands out cannot change what it hands out next.  Equal reductions
are trimmed once, and the CLI parser is built once per process."""

import sys
import threading

import pytest

from stringalg import census, classify, cli, fixtures, graphmaps, oracle, quiver, transforms, words
from stringalg.cli import main
from stringalg.quiver import QuiverError, monomialize

MODULES = (quiver, words, graphmaps, oracle, transforms, classify, census, fixtures, cli)

MEMOISED = (
    (quiver, "validate_special_biserial"),
    (quiver, "validate_string_algebra"),
    (quiver, "validate_gentle"),
    (quiver, "nodes"),
    (quiver, "is_finite_dimensional"),
    (quiver, "_steps"),
    (words, "_bands"),
    (words, "band_exists"),
    (classify, "classify_node_free"),
    (classify, "classify_mri_sb"),
)


@pytest.mark.parametrize(
    "argv",
    [["classify", "fixture:windwheel_a12"], ["tau", "fixture:big_gentle"]],
    ids=["classify-windwheel_a12", "tau-big_gentle"],
)
def test_derived_data_is_computed_once_per_quiver(argv, monkeypatch, capsys):
    runs: dict[tuple[str, int], int] = {}
    alive = []  # every counted quiver stays alive, so its id stays unique

    def counting(name, compute):
        def counted(q):
            alive.append(q)
            runs[name, id(q)] = runs.get((name, id(q)), 0) + 1
            return compute(q)

        return quiver._memo(counted)

    for mod, name in MEMOISED:
        memoised = getattr(mod, name)
        fresh = counting(name, memoised.__wrapped__)
        for m in MODULES:
            for attr, value in list(vars(m).items()):
                if value is memoised:
                    monkeypatch.setattr(m, attr, fresh)
    assert main(argv) == 0
    capsys.readouterr()
    assert {name for name, _ in runs} >= {"_bands", "classify_mri_sb", "_steps"}
    assert {key: n for key, n in runs.items() if n > 1} == {}


def test_fully_reduce_trims_each_distinct_reduction_once(big_gentle, monkeypatch):
    # two bands of big_gentle.t3.c1 reduce to equal quivers
    trims: dict[tuple, int] = {}
    trim = transforms.trim

    def counting(q):
        trims[q.structure_key()] = trims.get(q.structure_key(), 0) + 1
        return trim(q)

    monkeypatch.setattr(transforms, "trim", counting)
    transforms.fully_reduce(big_gentle.rename("fresh"))
    assert len(trims) > 1
    assert {key: n for key, n in trims.items() if n > 1} == {}


def test_cli_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    # the shared parser still rejects bad arguments with exit 2 after a good run
    assert main(["validate", "fixture:lambda3"]) == 0
    assert main(["census", "fixture:lambda3", "--max-len", "x"]) == 2
    assert main(["validate", "fixture:lambda2"]) == 0
    capsys.readouterr()


def _outcomes(q):
    out = []
    for mod, name in MEMOISED:
        try:
            out.append(getattr(mod, name)(q))
        except QuiverError as exc:
            out.append(("error", str(exc)))
    return out


def test_memoised_results_equal_a_fresh_computation(corpus):
    for name, q in corpus.items():
        p = monomialize(q)  # bands are listed on monomial relations only
        bands = words.enumerate_bands(p)
        bands.append("not a band")
        assert "not a band" not in words.enumerate_bands(p), name
        assert _outcomes(q) == _outcomes(q.rename("copy")), name


def test_threads_sharing_a_cold_quiver_get_the_same_results(corpus):
    # the first uses race on one memo; every thread must still get the values
    names = ("lambda3", "windwheel_a12", "double_a2", "gb22")
    reference = {n: _outcomes(corpus[n].rename("reference")) for n in names}
    shared = {n: corpus[n].rename("shared") for n in names}
    seen = []

    def work():
        for n in names:
            seen.append((n, _outcomes(shared[n])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * len(names)
    assert all(result == reference[n] for n, result in seen)

import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

from stringalg import classify, cli, graphmaps, transforms, words
from stringalg.cli import main
from stringalg.fixtures import fixture_names, load_fixture
from stringalg.quiver import monomialize

# no step of the tau cascade decides this algebra: its verdict is Unknown
UNKNOWN_QUIVER = """quiver unknown
vertices: v0 v1
arrow a0: v0 -> v1
arrow a1: v1 -> v0
arrow a2: v0 -> v0
rel a1 a0
rel a2 a0
rel a2 a2
"""


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "stringalg.cli", *args], capture_output=True, text=True)


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.quiver"
    path.write_text(load_fixture(name).to_text(), encoding="utf-8")
    return str(path)


def test_tau_subcommand_reports_witness_band(tmp_path):
    path = write_fixture(tmp_path, "lambda3")
    proc = run_cli(["tau", path])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["tau"]["verdict"] == "Infinite"
    assert "eps delta- gamma- beta" in report["tau"]["witness"]["band"]


def test_classify_subcommand_emits_class_report(tmp_path):
    path = write_fixture(tmp_path, "windwheel_a12")
    proc = run_cli(["--format", "text", "classify", path])
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["WindWheel", "tau: Finite"]
    report = json.loads(run_cli(["classify", path]).stdout)
    assert report["classification"]["label"] == "WindWheel"
    assert report["tau"]["verdict"] == "Finite"


def test_validate_empty_file_is_an_input_error(tmp_path):
    path = tmp_path / "empty.quiver"
    path.write_text("", encoding="utf-8")
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_missing_file_is_an_input_error():
    proc = run_cli(["validate", "/nonexistent/nowhere.quiver"])
    assert proc.returncode == 2


def test_strict_flag_fails_non_string_algebra(tmp_path):
    path = write_fixture(tmp_path, "lambda1")
    assert run_cli(["validate", path]).returncode == 0
    assert run_cli(["--strict", "validate", path]).returncode == 1


def test_reports_embed_hash_and_version_and_are_stable(tmp_path):
    path = write_fixture(tmp_path, "double_a2")
    a = run_cli(["tau", path]).stdout
    b = run_cli(["tau", path]).stdout
    assert a == b
    report = json.loads(a)
    assert len(report["input_sha256"]) == 64
    assert report["version"]
    assert report["tool"] == "stringalg"


def test_xcheck_exit_status(tmp_path):
    path = write_fixture(tmp_path, "lambda3")
    proc = run_cli(["xcheck", path, "--max-len", "3", "--sanity"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["mismatches"] == []


def test_hom_subcommand_with_split_positions(tmp_path):
    path = write_fixture(tmp_path, "lambda2")
    proc = run_cli(
        ["hom", path, "alpha- eps delta- gamma- beta eps", "delta- gamma- beta eps", "-v"]
    )
    report = json.loads(proc.stdout)
    assert report["dim"] == 1
    assert len(report["pairs"]) == 1


def test_hom_verbose_pairs_are_pinned(capsys):
    # three basis elements, each printed as its splits (i, j, i2, j2): the
    # quotient middle u[i:j] and the submodule middle v[i2:j2]
    argv = ["hom", "fixture:lambda2", "beta eps delta- gamma- beta", "eps delta- gamma- beta eps", "-v"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 3
    assert report["pairs"] == [[0, 0, 5, 5], [0, 4, 1, 5], [3, 5, 0, 2]]
    assert main(["--format", "text", *argv]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dim = 3",
        "splits (0, 0, 5, 5)",
        "splits (0, 4, 1, 5)",
        "splits (3, 5, 0, 2)",
    ]


@pytest.mark.parametrize(
    "flag, argv, status",
    [
        (
            ["--format", "text"],
            ["hom", "fixture:lambda2", "alpha- eps delta- gamma- beta eps", "delta- gamma- beta eps", "-v"],
            0,
        ),
        (["--strict"], ["validate", "fixture:lambda1"], 1),
    ],
    ids=["format-text", "strict"],
)
def test_global_flags_work_before_and_after_the_subcommand(flag, argv, status, capsys):
    assert main(flag + argv) == status
    before = capsys.readouterr().out
    assert main(argv + flag) == status
    assert capsys.readouterr().out == before
    # without the flag the report or the status differs: the flag was read
    assert (main(argv), capsys.readouterr().out) != (status, before)


def test_flag_after_the_subcommand_keeps_one_given_before(capsys):
    assert main(["--format", "text", "validate", "fixture:lambda1", "--strict"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "special_biserial: holds"


def test_census_subcommand_text_table(tmp_path):
    path = write_fixture(tmp_path, "lambda3")
    proc = run_cli(["--format", "text", "census", path, "--max-len", "4"])
    assert proc.returncode == 0
    assert "len strings bricks" in proc.stdout


def test_census_walk_that_does_not_run_out_reports_none(capsys):
    # big_gentle has 90 bricks of length 8, so its walk is still live there
    assert main(["census", "fixture:big_gentle", "--max-len", "8"]) == 0
    census = json.loads(capsys.readouterr().out)["census"]
    assert census["per_length"]["8"][1] == 90
    assert census["exhausted_at"] is None
    assert "window" not in census and "stabilized" not in census
    assert main(["--format", "text", "census", "fixture:big_gentle", "--max-len", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "exhausted_at: none"
    assert main(["--format", "text", "census", "fixture:windwheel_a12", "--max-len", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "exhausted_at: 18"


def test_strings_and_bands_are_those_of_the_monomial_form_or_an_input_error(tmp_path, capsys):
    # the step rule reads no commutativity relation, so a quiver with one
    # exits 2 instead of listing walks of another algebra
    exits = set()
    for name in fixture_names():
        q = load_fixture(name)
        q0 = monomialize(q)
        path = tmp_path / f"{name}.monomial.quiver"
        path.write_text(q0.to_text(), encoding="utf-8")
        for cmd in ("strings", "bands"):
            rc = main([cmd, f"fixture:{name}"])
            out = capsys.readouterr()
            if q0 is not q:
                assert rc == 2 and out.out == "" and len(out.err.splitlines()) == 1, (name, cmd)
                exits.add(name)
                continue
            assert rc == 0
            assert main([cmd, str(path)]) == 0
            assert json.loads(capsys.readouterr().out)[cmd] == json.loads(out.out)[cmd], (name, cmd)
    assert exits == {"lambda1"}


def test_census_brick_bands_are_the_listed_bands_up_to_max_len(capsys):
    # a9's one band has length 10: a census to length 8 lists no band and
    # so scans none, one to length 10 lists and scans it
    band = "eps- beta beta1 beta2- gamma mu- delta alpha2 alpha1- alpha"
    for max_len, bands in (("8", []), ("10", [band])):
        assert main(["census", "fixture:a9", "--max-len", max_len]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["census"]["bands"] == bands
        assert report["brick_bands"] == bands


def test_census_lists_a_band_whose_band_module_is_no_brick(capsys):
    # bongartz_ag_1_1's one band module is no brick
    assert main(["census", "fixture:bongartz_ag_1_1", "--max-len", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["census"]["bands"] == ["beta1- alpha1"]
    assert report["brick_bands"] == []


def test_fixture_scheme_and_in_process_entry_point(capsys):
    assert main(["--format", "text", "classify", "fixture:barbell_a9"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Barbell"
    assert main(["validate", "fixture:unknown-name"]) == 2


def test_trim_subcommand_components(tmp_path):
    path = write_fixture(tmp_path, "big_gentle")
    proc = run_cli(["trim", path])
    report = json.loads(proc.stdout)
    assert len(report["components"]) == 3
    assert report["trace"][0]["params"]["vertices"] == ["b", "d", "e"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["brick", "fixture:lambda3", "beta alpha"], "beta alpha is not a string"),
        (["hom", "fixture:lambda3", "beta alpha", "e(1)"], "beta alpha is not a string"),
        (["census", "fixture:lambda3", "--max-len", "-1"], "max_len must be at least 0"),
        (["strings", "fixture:lambda1"], "'lambda1' has a commutativity relation"),
        (["strings", "fixture:lambda3", "--max-len", "-1"], "max_len must be at least 0"),
        # usage errors are input errors too: one line, not the usage block
        (["census", "fixture:a9", "--max-len", "abc"], "argument --max-len: invalid int value: 'abc'"),
        (["reduce", "fixture:lambda3", "--band", "-1"], "band index -1 out of range"),
        (["bands", "fixture:lambda3", "--max-len", "-1"], "max_len must be at least 0"),
        # tau checks its brick families for the powers 1 to 3 and takes no --m-max
        (["tau", "fixture:a9", "--m-max", "3"], "unrecognized arguments: --m-max 3"),
        # the band column is exact and takes no --m-max
        (["census", "fixture:bongartz_ag_1_1", "--max-len", "8", "--m-max", "-1"], "unrecognized arguments: --m-max -1"),
        # word_from_text used to read strings off a commutativity relation
        (["hom", "fixture:lambda1", "beta", "e(3)"], "'lambda1' has a commutativity relation"),
        # used to raise OverflowError from a per-length list
        (["census", "fixture:a9", "--max-len", "99999999999999999999"], "max_len must be at most 1000"),
        # used to run until killed: the census bound holds for every walk
        (["strings", "fixture:lambda2", "--max-len", "99999999999999999999"], "max_len must be at most 1000"),
        (["xcheck", "fixture:lambda2", "--max-len", "99999999999999999999"], "max_len must be at most 1000"),
    ],
)
def test_bad_arguments_are_input_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize(
    "content",
    [
        None,
        "quiver caf\xe9\nvertices: x\n".encode("latin-1"),
        b"quiver bad\nvertices: a b\narrow a -> b: x\n",
        # names the word syntax could not read back
        b"quiver bad\nvertices: a b\narrow : a -> b\n",
        b"quiver bad\nvertices: a b\narrow x y: a -> b\n",
        b"quiver bad\nvertices: a b\narrow x-: a -> b\narrow x: b -> a\n",
        b"quiver bad\nvertices: x y\narrow e(x): x -> y\n",
    ],
    ids=[
        "directory",
        "not-utf8",
        "colon-after-arrow",
        "empty-arrow-name",
        "space-in-arrow-name",
        "arrow-name-ends-in-minus",
        "arrow-name-starts-with-e-paren",
    ],
)
def test_unreadable_input_is_an_input_error(content, tmp_path, capsys):
    path = tmp_path
    if content is not None:
        path = tmp_path / "latin1.quiver"
        path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


def test_unknown_fixture_message(capsys):
    # a name is looked up among the fixtures before any file is opened
    for name in ("nope", "../a9", "__init__"):
        assert main(["validate", f"fixture:{name}"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: unknown fixture {name!r}")


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize(
    "argv, fails",
    [
        (["validate", "fixture:lambda1"], True),
        (["validate", "fixture:a9"], False),
        (["brick", "fixture:lambda3", "eps theta"], True),
        (["brick", "fixture:loops_barbell", "theta gamma- theta- alpha-"], False),
        (["classify", "fixture:linear_a5"], True),
        (["classify", "fixture:windwheel_a12"], False),
        (["tau", "UNKNOWN"], True),
        (["tau", "fixture:lambda3"], False),
    ],
    ids=[
        "validate-fails",
        "validate-holds",
        "brick-fails",
        "brick-holds",
        "classify-other",
        "classify-windwheel",
        "tau-unknown",
        "tau-infinite",
    ],
)
def test_a_failing_verdict_exits_1_only_under_strict(argv, fails, strict, tmp_path, capsys):
    path = tmp_path / "unknown.quiver"
    path.write_text(UNKNOWN_QUIVER, encoding="utf-8")
    argv = [str(path) if a == "UNKNOWN" else a for a in argv]
    assert main(argv + ["--strict"] * strict) == (1 if fails and strict else 0)
    # the report is written whatever the status
    assert json.loads(capsys.readouterr().out)["subcommand"] == argv[0]


@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
def test_xcheck_exits_1_on_a_mismatch_with_or_without_strict(strict, monkeypatch, capsys):
    argv = ["xcheck", "fixture:lambda3", "--max-len", "2", *strict]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["mismatches"] == []
    # an oracle that disagrees on every pair
    monkeypatch.setattr(cli, "hom_dim_linear", lambda U, V, sanity=False: -1)
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["mismatches"]) == report["pairs"] > 0


def test_xcheck_checks_each_string_once(monkeypatch, capsys):
    calls = Counter()
    is_string = words.is_string

    def counting(w):
        calls[w] += 1
        return is_string(w)

    monkeypatch.setattr(words, "is_string", counting)
    monkeypatch.setattr(graphmaps, "is_string", counting)
    assert main(["xcheck", "fixture:lambda3", "--max-len", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the one check is string_module's, once per enumerated string
    assert set(calls.values()) == {1}
    assert len(calls) == report["strings"] > 0


def test_tau_checks_each_word_once(monkeypatch, capsys):
    # per tau run, no word goes through the string check or the brick test
    # twice: not the verified powers, not a traced barbell cycle
    bricks, strings = Counter(), Counter()

    def counting(counter, fn):
        def wrapper(w):
            counter[id(w.quiver), w.codes, w.basepoint] += 1
            return fn(w)

        return wrapper

    for mod in (graphmaps, classify):
        monkeypatch.setattr(mod, "_is_brick_string", counting(bricks, mod._is_brick_string))
    for mod in (words, graphmaps, classify, transforms):
        monkeypatch.setattr(mod, "is_string", counting(strings, mod.is_string))
    for name in fixture_names():
        bricks.clear()
        strings.clear()
        assert main(["tau", f"fixture:{name}"]) == 0
        tau = json.loads(capsys.readouterr().out)["tau"]
        if tau["verdict"] == "Infinite":
            assert tau["witness"]["verified_exponents"] == [1, 2, 3]
        assert set(bricks.values()) <= {1}, name
        assert set(strings.values()) <= {1}, name


@pytest.mark.parametrize("name", ["atilde5", "barbell_a9", "zero_bar_gb"])
def test_tau_brick_family_checks_each_power_once(name, monkeypatch, capsys):
    # one fixture per Infinite shape (hereditary cycle, barbell, zero-relation bar):
    # each verified power of the witness band is string-checked and brick-tested once
    bricks, strings = Counter(), Counter()

    def counting(counter, fn):
        def wrapper(w):
            counter[id(w.quiver), w.codes, w.basepoint] += 1
            return fn(w)

        return wrapper

    for mod in (graphmaps, classify):
        monkeypatch.setattr(mod, "_is_brick_string", counting(bricks, mod._is_brick_string))
    for mod in (words, graphmaps, classify, transforms):
        monkeypatch.setattr(mod, "is_string", counting(strings, mod.is_string))
    assert main(["tau", f"fixture:{name}"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"]["witness"]["verified_exponents"] == [1, 2, 3]
    assert set(bricks.values()) == {1}
    assert set(strings.values()) == {1}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_file_gets_exactly_the_stdout_bytes(fmt, tmp_path, capsys):
    argv = ["--format", fmt, "tau", "fixture:lambda3"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "report.out"
    assert main(["--output", str(path), *argv]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode("utf-8")


def test_dumped_fixtures_give_the_reports_of_the_fixture_scheme(tmp_path, capsys):
    assert main(["fixtures", "--dump", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["fixtures"] == fixture_names()
    for name in fixture_names():
        assert main(["tau", str(tmp_path / f"{name}.quiver")]) == 0
        from_file = capsys.readouterr().out
        assert main(["tau", f"fixture:{name}"]) == 0
        assert capsys.readouterr().out == from_file, name
        sha = json.loads(from_file)["input_sha256"]
        assert sha == hashlib.sha256((tmp_path / f"{name}.quiver").read_bytes()).hexdigest()


def test_disconnected_quiver_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "two.quiver"
    path.write_text("quiver two\nvertices: a b\n", encoding="utf-8")
    assert main(["tau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: quiver 'two' is not connected"]

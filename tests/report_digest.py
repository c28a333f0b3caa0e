"""One sha256 over the CLI reports of the whole fixture corpus.

Runs ``stringalg.cli.main`` in-process on every fixture for each of the
subcommands in ``COMMANDS`` and hashes, per run, the exit status, stdout and
stderr, each followed by a NUL byte.  Prints ``<runs> <sha256>``; the
expected line is stored in ``tests/data/report_digest.txt``.  A change that
must leave every report byte-identical must leave this line unchanged.

Run from the repository root::

    PYTHONPATH=src python3 tests/report_digest.py

Not collected by pytest (the file name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from stringalg.cli import main
from stringalg.fixtures import fixture_names

COMMANDS = (
    ("validate",),
    ("strings", "--max-len", "6"),
    ("bands",),
    ("census", "--max-len", "8"),
    ("classify",),
    ("tau",),
    ("trim",),
    ("fully-reduce",),
    ("resolve-nodes",),
    ("reduce",),
    ("gorenstein",),
    ("xcheck", "--max-len", "3"),
)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest() -> str:
    h = hashlib.sha256()
    runs = 0
    for name in fixture_names():
        for cmd, *opts in COMMANDS:
            rc, out, err = run([cmd, f"fixture:{name}", *opts])
            for field in (str(rc), out, err):
                h.update(field.encode("utf-8") + b"\0")
            runs += 1
    return f"{runs} {h.hexdigest()}"


if __name__ == "__main__":
    print(digest())

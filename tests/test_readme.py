"""README.md is executable: its python blocks run and its transcripts replay.

README and ``shorsim.__all__`` name the same library API. Every ```python
block is executed. Every CLI example is replayed in process
through ``shorsim.cli.main`` and compared with the documented output line by
line, trailing blanks stripped (the README drops the padding of empty last
columns). Two outputs are elided with ``...``: a text line is compared up to
the ``...``, and the JSON record is compared field by field on the fields
shown.
"""

import ast
import contextlib
import inspect
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import shorsim
from shorsim import auditor, numtheory, pipeline, spectrum
from shorsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
ELLIPSIS = "..."


def _blocks():
    """(language, body, line of the body's first line) per fenced block."""
    text = README.read_text()
    return [
        (m.group(1), m.group(2), text.count("\n", 0, m.start(2)) + 1)
        for m in FENCE.finditer(text)
    ]


def _transcripts():
    """(argv, documented stdout) for every CLI example in the README.

    A one-line ``shorsim ...`` block is answered by the block after it; a
    block starting with ``$ shorsim`` carries its output below the command.
    """
    blocks = _blocks()
    cases = []
    for i, (lang, body, _) in enumerate(blocks):
        lines = body.splitlines()
        if lang or not lines:
            continue
        if lines[0].startswith("$ shorsim "):
            cases.append((lines[0][2:], "\n".join(lines[1:])))
        elif len(lines) == 1 and lines[0].startswith("shorsim "):
            cases.append((lines[0], blocks[i + 1][1]))
    return [(shlex.split(cmd)[1:], out) for cmd, out in cases]


TRANSCRIPTS = _transcripts()


def _is_library_name(name: str) -> bool:
    """True when a library module defines ``name``.

    Modules and names imported from other packages (numpy, typing) do not
    count; constants, which carry no ``__module__``, do.
    """
    for module in (numtheory, spectrum, pipeline, auditor):
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", "shorsim").startswith("shorsim"):
            return True
    return False


def _documented_names() -> set:
    """Library names in README: inline code outside fenced blocks, and the
    names the python blocks import from ``shorsim``."""
    text = README.read_text()
    names = set(re.findall(r"`([A-Za-z_]\w*)", FENCE.sub("", text)))
    for lang, body, _ in _blocks():
        if lang == "python":
            names |= {
                alias.name
                for node in ast.walk(ast.parse(body))
                if isinstance(node, ast.ImportFrom)
                and node.module == "shorsim"
                for alias in node.names
            }
    return {name for name in names if _is_library_name(name)}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_readme_lists_every_subcommand():
    assert sorted(argv[0] for argv, _ in TRANSCRIPTS) == [
        "audit", "simulate", "simulate", "spectrum", "sweep", "verify-bounds",
    ]


def test_readme_names_exactly_the_exported_api():
    documented = _documented_names()
    exported = set(shorsim.__all__)
    assert sorted(documented - exported) == [], "documented, not exported"
    assert sorted(exported - documented) == [], "exported, not documented"


@pytest.mark.parametrize("body,line", [
    pytest.param(body, line, id=f"line-{line}")
    for lang, body, line in _blocks() if lang == "python"
])
def test_python_block_runs(body, line):
    # Leading newlines keep traceback line numbers equal to README's.
    source = "\n" * (line - 1) + body
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize(
    "argv,documented", TRANSCRIPTS, ids=[" ".join(a) for a, _ in TRANSCRIPTS]
)
def test_cli_transcript_replays(argv, documented):
    code, out = _run(argv)
    # README: the single-qubit audit "exits 2 here"; everything else exits 0.
    assert code == (2 if argv[0] == "audit" else 0)
    if documented.startswith("{"):
        shown = documented.replace(", " + ELLIPSIS + "}", "}")
        want = json.loads(shown)
        got = json.loads(out)
        assert {k: got[k] for k in want} == want
        return
    want = [line.rstrip() for line in documented.splitlines()]
    got = [line.rstrip() for line in out.splitlines()]
    if want[-1].endswith(ELLIPSIS):
        prefix = want.pop()[: -len(ELLIPSIS)]
        assert got[len(want)].startswith(prefix)
        got = got[: len(want)]
        assert len(out.splitlines()) == len(want) + 1
    assert got == want

"""`sit check` diagnostics on every fixture and corpus file, pinned byte for
byte.

`diagnostics_pinned.json` holds the stderr and the exit code of
`sit check FILE` for each file, run from the repository root. A change meant
to keep every diagnostic as it is passes this test unchanged. A change meant
to alter one rewrites the file and shows the difference in review:

    PYTHONPATH=src python tests/test_diagnostics_pinned.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from sit.cli import run

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "diagnostics_pinned.json"


def _inputs() -> list[str]:
    files = sorted((ROOT / "tests" / "fixtures").glob("*.sit"))
    files += sorted((ROOT / "corpus").glob("*.sit"))
    return [p.relative_to(ROOT).as_posix() for p in files]


def _check(path: str) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["check", path])
    return {"exit": code, "stderr": err.getvalue()}


def _observed() -> dict[str, dict]:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {path: _check(path) for path in _inputs()}
    finally:
        os.chdir(cwd)


def test_check_diagnostics_are_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    observed = _observed()
    assert sorted(observed) == sorted(pinned), "regenerate the pinned file"
    for path, want in pinned.items():
        assert observed[path] == want, path


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps(_observed(), indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )

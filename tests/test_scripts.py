"""The scripts under scripts/ run end to end against the current API."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from support import CORPUS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FIN_REPORT_DEPTH_3 = """\
Fin (depth <= 3):
  fzero  available    2   unavailable    1   stuck    3
  fsuc   available    2   unavailable    1   stuck    3

"""


def _script(name: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scripts_run():
    report = _script("availability_report.py", str(CORPUS / "fin.sit"), "3")
    assert report == FIN_REPORT_DEPTH_3

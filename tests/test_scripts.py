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

# Type : Type, so List's parameter A ranges over Type itself: the file
# declares no parameterless data type to put there.
LIST_REPORT_DEPTH_3 = """\
List (depth <= 3):
  nil   available    2   unavailable    0   stuck    0
  cons  available    2   unavailable    0   stuck    0

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


def test_availability_report_at_a_type_parameter():
    report = _script("availability_report.py", str(CORPUS / "list.sit"), "3")
    assert report == LIST_REPORT_DEPTH_3

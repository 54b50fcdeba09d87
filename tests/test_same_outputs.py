"""The byte-identity tool ``tests/same_outputs.py`` runs its commands against
two source trees and lists what differs."""

import subprocess
import sys
from pathlib import Path

from tests.same_outputs import differing_files

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_gives_the_same_bytes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "same_outputs.py"), str(ROOT / "src"),
         str(ROOT / "src"), "bounds-q1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    # the inputs (two labels files, a pairs file and a counts file), the payload
    # and the command's log
    assert result.stdout == "no difference in 6 files from 1 commands\n"


def test_differing_files_lists_one_sided_and_changed_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "sub").mkdir(parents=True)
        (side / "same").write_bytes(b"x")
    (a / "sub" / "changed").write_bytes(b"1")
    (b / "sub" / "changed").write_bytes(b"2")
    (a / "only_a").write_bytes(b"")
    assert differing_files(a, b) == ["only_a", "sub/changed"]

"""Shared analysis-CLI plumbing: ``--select``/``--ignore`` filters and
``--changed-only`` narrowing. The mutation gate's exit codes (new
survivor, stale baseline) are tested in ``tests/test_mutate.py``.
"""

from __future__ import annotations

import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.common import (
    EXIT_CLEAN,
    EXIT_REGRESSION,
    filter_by_code,
    parse_codes,
    restrict_to_changed,
)
from repro.analysis.lint import main

GIT = shutil.which("git") is not None


def write_tree(root: Path, files: dict[str, str]) -> Path:
    proj = root / "proj"
    for rel, source in files.items():
        path = proj / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return proj


#: One RPR001 (wall clock) and one RPR007 (swallowed exception).
LINT_MIXED = {
    "clock.py": "import time\n",
    "swallow.py": "try:\n    work()\nexcept OSError:\n    pass\n",
}


# ----------------------------------------------------------------------
# code-list parsing and filtering (unit level)
# ----------------------------------------------------------------------
class TestCodeFilters:
    def test_parse_codes_normalises(self):
        assert parse_codes("rpr001, RPR007,") == {"RPR001", "RPR007"}
        assert parse_codes(None) is None
        assert parse_codes(" , ") is None

    def test_rpr000_survives_ignore(self):
        class V:
            def __init__(self, code):
                self.code = code

        vs = [V("RPR000"), V("RPR001")]
        kept = filter_by_code(vs, None, frozenset({"RPR000", "RPR001"}))
        assert [v.code for v in kept] == ["RPR000"]
        # ... but an explicit --select that omits it is honoured.
        assert filter_by_code(vs, frozenset({"RPR001"}), None)[0].code \
            == "RPR001"


# ----------------------------------------------------------------------
# lint --select / --ignore
# ----------------------------------------------------------------------
class TestLintSelectIgnore:
    def test_select_narrows_reporting(self, tmp_path, capsys):
        root = write_tree(tmp_path, LINT_MIXED)
        assert main(["lint", str(root), "--select", "RPR001"]) \
            == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR007" not in out

    def test_ignore_everything_is_clean(self, tmp_path, capsys):
        root = write_tree(tmp_path, LINT_MIXED)
        assert main(["lint", str(root), "--ignore", "RPR001,RPR007"]) \
            == EXIT_CLEAN

    def test_parse_failure_cannot_be_ignored(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"broken.py": "def broken(:\n"})
        assert main(["lint", str(root), "--ignore", "RPR000"]) \
            == EXIT_REGRESSION
        assert "RPR000" in capsys.readouterr().out


# ----------------------------------------------------------------------
# --changed-only (against a real scratch git repository)
# ----------------------------------------------------------------------
def _git(cwd: Path, *args: str) -> None:
    subprocess.run(
        ("git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args),
        cwd=cwd, check=True, capture_output=True,
    )


@pytest.mark.skipif(not GIT, reason="needs the git binary")
class TestChangedOnly:
    def _scratch_repo(self, tmp_path: Path) -> Path:
        repo = tmp_path / "scratch"
        repo.mkdir()
        _git(repo, "init", "-q", "-b", "main")
        (repo / "committed_clock.py").write_text("import time\n",
                                                 encoding="utf-8")
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "seed")
        # A brand-new (untracked) violating file: the only "change".
        (repo / "new_clock.py").write_text("x = time.perf_counter()\n",
                                           encoding="utf-8")
        return repo

    def test_lint_reports_only_changed_files(self, tmp_path, capsys,
                                             monkeypatch):
        repo = self._scratch_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["lint", str(repo), "--changed-only"]) \
            == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "new_clock.py" in out
        assert "committed_clock.py" not in out

    def test_without_the_flag_everything_is_reported(self, tmp_path,
                                                     capsys, monkeypatch):
        repo = self._scratch_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert main(["lint", str(repo)]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "new_clock.py" in out and "committed_clock.py" in out

    def test_unresolvable_git_state_falls_back_to_everything(
            self, tmp_path, capsys, monkeypatch):
        # An unknown base ref: restrict_to_changed warns and returns
        # None, and the CLI analyses the full roots rather than nothing.
        repo = self._scratch_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert restrict_to_changed([repo], "no-such-ref") is None
        assert "--changed-only" in capsys.readouterr().err
        assert main(["lint", str(repo), "--changed-only",
                     "--base", "no-such-ref"]) == EXIT_REGRESSION
        assert "committed_clock.py" in capsys.readouterr().out

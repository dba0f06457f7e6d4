"""The docs link checker: passes on the repo, catches planted breakage."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs_links.py"

spec = importlib.util.spec_from_file_location("check_docs_links", CHECKER)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)


def test_repo_docs_have_no_dead_links(capsys):
    assert checker.main([]) == 0
    out = capsys.readouterr().out
    assert "all intra-repo links ok" in out


def test_checker_runs_as_a_script():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_detects_missing_file(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text("see [the plan](no-such-file.md) for details\n")
    assert checker.main([str(doc)]) == 1
    assert "no-such-file.md" in capsys.readouterr().out


def test_detects_missing_anchor(tmp_path, capsys):
    target = tmp_path / "target.md"
    target.write_text("# Real Heading\n\nbody\n")
    doc = tmp_path / "doc.md"
    doc.write_text("[jump](target.md#fake-heading)\n")
    assert checker.main([str(doc)]) == 1
    assert "fake-heading" in capsys.readouterr().out


def test_accepts_valid_anchor_and_same_file_anchor(tmp_path, capsys):
    target = tmp_path / "target.md"
    target.write_text("## The Command Line\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Top\n"
        "[ok](target.md#the-command-line) and [self](#top)\n"
    )
    assert checker.main([str(doc)]) == 0


def test_ignores_external_links_and_code_blocks(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ext](https://example.com/nowhere)\n"
        "```\n"
        "[fake](missing-inside-fence.md)\n"
        "```\n"
        "and `[inline](missing-inline.md)` code\n"
    )
    assert checker.main([str(doc)]) == 0


def test_detects_backticked_path_to_missing_file(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text("the router lives in `src/repro/cluster/renamed_away.py` now\n")
    assert checker.main([str(doc)]) == 1
    assert "renamed_away.py" in capsys.readouterr().out


def test_accepts_real_code_paths_in_both_spellings(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "see `src/repro/cluster/router.py` and the module-style\n"
        "`repro/cluster/participant.py`, plus `docs/CLUSTER.md`\n"
    )
    assert checker.main([str(doc)]) == 0


def test_detects_backticked_dotted_name_that_does_not_import(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "the simulator is `repro.runtime.sim`; the kernel's\n"
        "`repro.core.kernel.TransactionManager.no_such_method()` runs it\n"
    )
    assert checker.main([str(doc)]) == 1
    out = capsys.readouterr().out
    assert "repro.runtime.sim" in out and "no_such_method" in out
    assert "2 broken link(s)" in out


def test_accepts_dotted_names_that_import(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "a package `repro.runtime`, a module `repro.runtime.threaded`, a class\n"
        "`repro.core.protocol.SemanticNoReliefProtocol`, a method\n"
        "`repro.core.kernel.TransactionManager.spawn()`; `kernel.commits` and\n"
        "`repro bench` are not dotted names under the package\n"
    )
    assert checker.main([str(doc)]) == 0


def test_ignores_non_path_code_spans(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`wal.log` and `store/pages.db` are data files; `a/*.py` is a\n"
        "glob; `repro.cluster.shard` is a module; `src/<pkg>/x.py` is a\n"
        "placeholder; `../escape/x.py` is relative; and fences hide\n"
        "```\n"
        "`src/repro/not/checked/in/fence.py`\n"
        "```\n"
    )
    assert checker.main([str(doc)]) == 0


def test_directory_argument_recurses(tmp_path, capsys):
    sub = tmp_path / "docs"
    sub.mkdir()
    (sub / "a.md").write_text("[bad](../gone.md)\n")
    assert checker.main([str(tmp_path)]) == 1
    assert "gone.md" in capsys.readouterr().out

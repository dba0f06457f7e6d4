#!/usr/bin/env python3
"""Intra-repo markdown link and code-path checker (stdlib only).

Scans markdown files for inline links/images ``[text](target)`` and
fails on any *intra-repo* target that does not resolve:

* relative file paths must exist (relative to the linking file);
* ``path#anchor`` additionally requires a matching heading in the
  target markdown file;
* bare ``#anchor`` targets must match a heading in the same file.

It also validates **backticked code paths**: an inline code span that
looks like a repository file path — contains a ``/``, ends in a source
extension (``.py``, ``.md``, ``.json``, ``.yml``, ``.toml``, …), and
carries no glob or placeholder characters — must name a file that
exists, resolved against the repo root (with an ``src/`` fallback, so
both ``src/repro/cli.py`` and the module-style ``repro/cli.py`` spelling
resolve).  That is the guard against docs drifting behind a rename.
The same goes for **backticked dotted names**: an inline code span of
the form ``repro.<a>.<b>…`` (optionally ending in ``()``) must import
from ``src/`` — as a module, or as an attribute path off its longest
importable prefix.

External schemes (``http://``, ``https://``, ``mailto:``) are ignored —
CI must not depend on the network.  Anchors use GitHub's slug rules:
lowercase, punctuation stripped, spaces to hyphens, ``-1``/``-2``
suffixes for duplicates.

Usage::

    python tools/check_docs_links.py [FILE_OR_DIR ...]

With no arguments, checks the repository default set: ``README.md``,
``CHANGES.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, and ``docs/*.md``.
Exits 1 and lists every dead link if any check fails.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline link or image: [text](target) / ![alt](target).  Targets with
#: spaces and optional titles ("...") are split off; <wrapped> targets
#: are unwrapped.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: Inline code span: `...` (no backticks inside).
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
#: Extensions a backticked repo path may end with; anything else
#: (``wal.log``, ``pages.db``) is not checked as a path.
CODE_PATH_EXTENSIONS = (
    ".py", ".md", ".json", ".jsonl", ".yml", ".yaml", ".toml", ".cfg", ".txt",
)
#: A checkable path is plain characters only — a glob, placeholder,
#: space, or ``..`` means the span is illustrative, not a literal path.
CODE_PATH_RE = re.compile(r"^[\w.\-]+(/[\w.\-]+)+$")
#: A dotted name under the package: ``repro.core.kernel``,
#: ``repro.obs.MetricsRegistry``, ``repro.cluster.shard.main()``.
DOTTED_NAME_RE = re.compile(r"^(repro(?:\.\w+)+)(?:\(\))?$")


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug (sans emoji handling)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # code spans keep contents
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """All heading anchors a markdown file exposes."""
    slugs: dict[str, int] = {}
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = slugs.get(slug, 0)
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
        slugs[slug] = seen + 1
    return anchors


def iter_links(path: Path):
    """Yield (line_number, target) for every inline link, skipping code."""
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        stripped = re.sub(r"`[^`]*`", "``", line)  # ignore inline code spans
        for match in LINK_RE.finditer(stripped):
            yield lineno, match.group(1)


def iter_code_spans(path: Path):
    """Yield (line_number, span) for every inline code span outside fences."""
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in CODE_SPAN_RE.finditer(line):
            yield lineno, match.group(1).strip()


def is_code_path(span: str) -> bool:
    """True for a span shaped like a literal repository file path."""
    return (
        bool(CODE_PATH_RE.match(span))
        and ".." not in span
        and span.endswith(CODE_PATH_EXTENSIONS)
    )


def code_path_resolves(span: str) -> bool:
    """True if the span names a real repo file (``src/`` fallback included)."""
    return (REPO_ROOT / span).exists() or (REPO_ROOT / "src" / span).exists()


def dotted_name_resolves(name: str) -> bool:
    """True if *name* imports from ``src/``: a module, or an attribute
    path off the longest prefix that is one."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def display_path(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_file(path: Path) -> list[str]:
    """Return a list of human-readable problems in one markdown file."""
    problems = []
    where = display_path(path)
    for lineno, raw_target in iter_links(path):
        target = raw_target.strip("<>")
        if target.startswith(EXTERNAL_SCHEMES):
            continue
        file_part, _, anchor = target.partition("#")
        if not file_part:  # same-file anchor
            if anchor and anchor not in anchors_of(path):
                problems.append(
                    f"{where}:{lineno}: no heading for anchor #{anchor}"
                )
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(
                f"{where}:{lineno}: "
                f"broken link {target!r} (no such file {file_part!r})"
            )
            continue
        if anchor:
            if resolved.suffix.lower() not in (".md", ".markdown"):
                continue  # anchors into non-markdown files: not checkable
            if anchor not in anchors_of(resolved):
                problems.append(
                    f"{where}:{lineno}: "
                    f"{file_part!r} has no heading for anchor #{anchor}"
                )
    for lineno, span in iter_code_spans(path):
        dotted = DOTTED_NAME_RE.match(span)
        if is_code_path(span):
            if not code_path_resolves(span):
                problems.append(
                    f"{where}:{lineno}: "
                    f"backticked path `{span}` names no repo file"
                )
        elif dotted and not dotted_name_resolves(dotted.group(1)):
            problems.append(
                f"{where}:{lineno}: "
                f"backticked name `{span}` does not import from src/"
            )
    return problems


def default_targets() -> list[Path]:
    targets = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "CHANGES.md",
        REPO_ROOT / "DESIGN.md",
        REPO_ROOT / "EXPERIMENTS.md",
    ]
    targets.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [t for t in targets if t.exists()]


def collect(args: list[str]) -> list[Path]:
    if not args:
        return default_targets()
    files: list[Path] = []
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    return files


def main(argv: list[str] | None = None) -> int:
    files = collect(list(sys.argv[1:] if argv is None else argv))
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(f"{len(problems)} broken link(s) across {checked} file(s)")
        return 1
    print(f"all intra-repo links ok across {checked} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

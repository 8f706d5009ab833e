#!/usr/bin/env python
"""Link and reference checker for the markdown docs (stdlib only).

Validates, across ``README.md`` and ``docs/*.md``:

* **Relative links** ``[text](path)`` resolve to an existing file or
  directory (links that deliberately climb above the repo, like the CI
  badge's ``../../actions/...``, are skipped — that is the GitHub
  convention for repo-relative service URLs).
* **Anchors** ``[text](#section)`` and ``[text](file.md#section)``
  match a heading slug in the target document (GitHub slug rules:
  lowercase, punctuation dropped, spaces to hyphens).
* **Code references** — backticked repo paths such as
  ``src/repro/service/contract.py`` name files that exist, so renames
  can't silently strand the prose; the file part of a pytest node id
  (``tests/core/test_memo.py::test_x``) is checked the same way.

With no arguments it also checks the other direction: every ``*.md``
name in a file under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` (a docstring's "see
docs/SERVICE_API.md") names a document that exists — a path from the
repo root, or a bare name of a document at the root or in ``docs/``.

Exit status is non-zero when anything dangles; every problem is
reported as ``file:line: message``.

Run:  python tools/check_docs.py [files...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Inline markdown links: [text](target) — target captured without the
#: optional "title" suffix; images share the syntax.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Backticked repo paths: `src/...`, `tests/...`, etc. (optionally with
#: a :line suffix as used in review prose, or a pytest ::node suffix).
CODE_PATH = re.compile(
    r"`((?:src|tests|docs|examples|tools|benchmarks)/[\w./-]+?)"
    r"(?::\d+|::[^`]+)?`"
)

HEADING = re.compile(r"^#{1,6}\s+(.*)$")

#: Markdown file names mentioned in source and test files.
MD_NAME = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")

#: Where the source scan looks, and where a bare document name may live.
SOURCE_DIRS = ("src", "tests", "benchmarks", "examples")
DOC_DIRS = (REPO, REPO / "docs")


def display(path: Path) -> str:
    """Repo-relative path when possible, else the path as given."""
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    """All anchor slugs defined by a markdown file's headings."""
    slugs: set[str] = set()
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        match = HEADING.match(line)
        if match:
            base = slugify(match.group(1))
            slug, n = base, 1
            while slug in slugs:  # duplicate headings get -1, -2, ...
                slug, n = f"{base}-{n}", n + 1
            slugs.add(slug)
    return slugs


def check_file(path: Path) -> list[str]:
    """Return a list of ``file:line: message`` problems in one doc."""
    problems: list[str] = []
    slug_cache: dict[Path, set[str]] = {}

    def slugs_of(target: Path) -> set[str]:
        if target not in slug_cache:
            slug_cache[target] = heading_slugs(target)
        return slug_cache[target]

    fenced = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue

        for match in LINK.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            base, _, anchor = target.partition("#")
            if base:
                resolved = (path.parent / base).resolve()
                if not str(resolved).startswith(str(REPO)):
                    continue  # GitHub repo-relative URL (e.g. CI badge)
                if not resolved.exists():
                    problems.append(
                        f"{display(path)}:{lineno}: "
                        f"broken link target '{target}'"
                    )
                    continue
            else:
                resolved = path
            if anchor and resolved.suffix == ".md":
                if anchor not in slugs_of(resolved):
                    problems.append(
                        f"{display(path)}:{lineno}: "
                        f"missing anchor '#{anchor}' in "
                        f"{display(resolved)}"
                    )

        for match in CODE_PATH.finditer(line):
            ref = REPO / match.group(1)
            if not ref.exists():
                problems.append(
                    f"{display(path)}:{lineno}: "
                    f"dangling code reference '{match.group(1)}'"
                )

    return problems


def md_exists(name: str) -> bool:
    """Whether a ``*.md`` name from a source file names a document."""
    if "/" in name:
        return (REPO / name).is_file()
    return any((folder / name).is_file() for folder in DOC_DIRS)


def check_source_refs() -> list[str]:
    """``file:line`` problems for missing ``*.md`` names in SOURCE_DIRS."""
    problems: list[str] = []
    for folder in SOURCE_DIRS:
        for path in sorted((REPO / folder).rglob("*")):
            if not path.is_file() or path.suffix in (".pyc", ".json"):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), start=1):
                for match in MD_NAME.finditer(line):
                    if not md_exists(match.group(1)):
                        problems.append(
                            f"{display(path)}:{lineno}: "
                            f"names missing document '{match.group(1)}'"
                        )
    return problems


def main(argv: list[str]) -> int:
    """Check the given files (default: README.md and docs/*.md, plus
    the ``*.md`` names in SOURCE_DIRS)."""
    files = [Path(arg).resolve() for arg in argv] or [
        REPO / "README.md",
        *sorted((REPO / "docs").glob("*.md")),
    ]
    problems: list[str] = [] if argv else check_source_refs()
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    checked = ", ".join(display(f) for f in files)
    if not argv:
        checked += ", *.md names in " + ", ".join(SOURCE_DIRS)
    if problems:
        print(f"{len(problems)} problem(s) across {checked}")
        return 1
    print(f"docs check clean: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

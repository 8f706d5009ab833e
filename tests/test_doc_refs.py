"""Every ``*.md`` name in the sources, tests, benchmarks and examples
names a real document.

``tools/check_docs.py`` (run in CI's docs job) scans those directories
for markdown names; this runs the same scan with the tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def _check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_and_test_files_name_only_existing_documents():
    tool = _check_docs()
    assert tool.SOURCE_DIRS == ("src", "tests", "benchmarks", "examples")
    assert tool.check_source_refs() == []


def test_missing_documents_are_flagged(tmp_path):
    tool = _check_docs()
    md = ".md"  # spelled apart so the scan of this file stays clean
    line = f"see DESIGN{md}, docs/ARCHITECTURE{md} and ``docs/NOPE{md}``"
    names = [m.group(1) for m in tool.MD_NAME.finditer(line)]
    assert names == [f"DESIGN{md}", f"docs/ARCHITECTURE{md}", f"docs/NOPE{md}"]
    assert [tool.md_exists(name) for name in names] == [False, True, False]
    assert tool.md_exists("ARCHITECTURE.md")  # a bare name found in docs/
    assert tool.md_exists("README.md")
    # Code references: a pytest node id's file part is checked too.
    doc = tmp_path / f"refs{md}"
    doc.write_text(
        "`tests/test_doc_refs.py::test_missing_documents_are_flagged`, "
        "`tests/nope.py::test_x[a-b]`, `tests/nope2.py:12`, `src/nope.py`\n",
        encoding="utf-8",
    )
    dangling = [p.split("'")[1] for p in tool.check_file(doc)]
    assert dangling == ["tests/nope.py", "tests/nope2.py", "src/nope.py"]

"""The documents at the repository root stay small enough to read and diff."""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(ROOT.glob("*.md"))


def test_the_root_documents_are_found():
    assert {"README.md", "ROADMAP.md", "CHANGES.md"} <= {p.name for p in DOCS}


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_root_document_is_under_one_mib(doc):
    # a root document past 1 MiB is hundreds of pages: one that size grew by a
    # broken edit, as CHANGES.md once did when a sentence was inserted between
    # every two of its characters
    assert doc.stat().st_size < 2**20

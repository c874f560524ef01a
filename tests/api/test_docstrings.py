"""Docstring enforcement for the public API surface (`src/repro/api/`).

Runs the same stdlib walk as ``scripts/check_docs.py`` (pydocstyle's D1xx
missing-docstring family) inside the tier-1 suite, so an undocumented
public symbol fails CI even before the dedicated docs job runs.
"""

from __future__ import annotations

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_public_api_surface_is_documented():
    problems = check_docs.check_docstrings()
    assert problems == [], "\n".join(problems)


def test_markdown_links_resolve():
    problems = check_docs.check_links()
    assert problems == [], "\n".join(problems)


def test_checker_covers_api_modules():
    """The checker must keep walking every api/ module, the package root, the
    codec and the algorithm entry points of ``repro.core``."""
    names = {path.name for path in check_docs.API_FILES}
    assert {"service.py", "cache.py", "registry.py", "requests.py", "results.py", "persistence.py"} <= names
    assert {"__init__.py", "codec.py"} <= names
    assert {"generation.py", "multi.py", "hiding.py"} <= names

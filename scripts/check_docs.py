#!/usr/bin/env python
"""Documentation checks: markdown link integrity + public-API docstrings.

Stdlib-only so it runs anywhere (CI installs ``pydocstyle`` for the full
D-rule pass; this script is the always-available baseline):

1. **Link check** — every relative link/image in the repo's markdown files
   (root ``*.md`` plus ``docs/``) must point at a file or directory that
   exists.  External (``http``/``https``/``mailto``) and pure-anchor links
   are skipped; fragments are stripped before the existence check.
2. **Docstring check** — every module, public class and public function or
   method under ``src/repro/api/`` (plus ``src/repro/__init__.py``, the
   shared table codec ``src/repro/codec.py`` and the algorithm entry points
   in ``src/repro/core/generation.py``, ``multi.py`` and ``hiding.py``)
   must carry a docstring.  This mirrors pydocstyle's D1xx
   missing-docstring rules; ``tests/api/test_docstrings.py`` runs the same
   walk in the test suite.

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose links are checked.
MARKDOWN = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))

#: Python files whose public surface must be documented.
API_FILES = sorted((REPO / "src" / "repro" / "api").glob("*.py")) + [
    REPO / "src" / "repro" / "__init__.py",
    REPO / "src" / "repro" / "codec.py",
    REPO / "src" / "repro" / "core" / "generation.py",
    REPO / "src" / "repro" / "core" / "multi.py",
    REPO / "src" / "repro" / "core" / "hiding.py",
]

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")


def check_links() -> list:
    """Every relative markdown link must resolve to an existing path."""
    problems = []
    for path in MARKDOWN:
        text = path.read_text(encoding="utf-8")
        # Ignore fenced code blocks: they may contain example links/paths.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(REPO)}: broken link -> {target}")
    return problems


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def check_docstrings() -> list:
    """Modules, public classes and public functions need docstrings."""
    problems = []

    def visit(owner: str, path: Path, body, *, inside_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_public(node.name):
                    continue
                if ast.get_docstring(node) is None:
                    kind = "class" if isinstance(node, ast.ClassDef) else (
                        "method" if inside_class else "function"
                    )
                    problems.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"missing docstring on public {kind} {owner}{node.name}"
                    )
                if isinstance(node, ast.ClassDef):
                    visit(f"{owner}{node.name}.", path, node.body, inside_class=True)

    for path in API_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            problems.append(f"{path.relative_to(REPO)}:1: missing module docstring")
        visit("", path, tree.body, inside_class=False)
    return problems


def main() -> int:
    """Run both checks and report violations one per line."""
    problems = check_links() + check_docstrings()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print(
        f"docs OK: {len(MARKDOWN)} markdown files, "
        f"{len(API_FILES)} API modules checked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

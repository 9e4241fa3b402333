"""Every name the package exports has a user outside the tests: code in the
package or the benchmark refers to it, or README.md names it.  A helper
only tests need belongs under `tests/`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "acceldse"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def referenced_names() -> set[str]:
    """Every name that package modules other than `__init__`, or the
    benchmark, load, import or read as an attribute."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").rglob("*.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def readme_names() -> set[str]:
    """Every identifier inside an inline code span of README.md; fenced
    blocks are skipped."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_has_a_user_outside_the_tests():
    used = referenced_names() | readme_names()
    assert [name for name in exported_names() if name not in used] == []

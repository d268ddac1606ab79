"""No public API that nothing uses.

Every public module-level function and class of ``src/mrhd``, and every
public method of those classes, must be named somewhere besides its own
definition: in the package, the benchmark (``perfbench/``), the tools or
``pyproject.toml``. A name that only tests reach is surface to delete.
Dunder methods are exempt; Python calls them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mrhd").glob("*.py"))


def _definitions(path: Path):
    """(qualified name, bare name) of the public functions, classes and
    methods that a module defines at its top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_is_used_outside_tests():
    sources = [*PACKAGE, *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").glob("*.py")]
    sources.append(ROOT / "pyproject.toml")
    words = Counter(
        word for path in sources for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    defined = [(path.stem, *names) for path in PACKAGE for names in _definitions(path)]
    definitions = Counter(bare for _, _, bare in defined)
    unused = sorted(
        f"{module}.{qualified}"
        for module, qualified, bare in defined
        if words[bare] <= definitions[bare]
    )
    assert unused == [], f"named nowhere but in their own definitions: {unused}"

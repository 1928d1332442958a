"""Every public function, class and method of the package has a user.

A public name that only its own definition mentions is surface nothing
runs: a wrapper kept for the tests, or code left behind by a refactor.
A name counts as used when it appears elsewhere in `src/`, in
`dmmobench.__all__`, in README.md or in the benchmark's `perfbench/*.py`.
Test files do not count as a use.
"""

import ast
import re
from pathlib import Path

import dmmobench

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dmmobench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree):
    """Public top-level functions and classes, and public methods."""
    for node in tree.body:
        if (not isinstance(node, (*FUNCTIONS, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, FUNCTIONS)
                        and not item.name.startswith("_"))


def _unused_names():
    src_text = "\n".join(path.read_text(encoding="utf-8") for path in SOURCES)
    outside = "\n".join(
        [(ROOT / "README.md").read_text(encoding="utf-8")]
        + [path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "perfbench").glob("*.py"))])
    definitions = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _public_definitions(tree):
            definitions[name] = definitions.get(name, 0) + 1
    unused = []
    for name, count in sorted(definitions.items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if (name in dmmobench.__all__ or word.search(outside)
                or len(word.findall(src_text)) > count):
            continue
        unused.append(name)
    return unused


def test_no_public_name_is_unused():
    assert _unused_names() == []

#!/usr/bin/env python
"""List the public code in ``src/repro`` that only the tests reach.

Prints every public top-level function and class of ``src/repro`` (a name
not starting with ``_``, defined at module level) that no Python file
outside ``tests/`` refers to, with the lines its definition spans, largest
first, then the total:

    python tools/reach_audit.py
    make reach-audit

A reference is a name read in code (``Name`` in a load context) or an
attribute of that name (``module.name``), in ``src``, ``examples``,
``benchmarks``, ``perfbench`` and ``tools``, and in the ``python`` code
blocks of the repository's top-level Markdown files. Imports are not
references, so an ``__init__`` re-export does not count, nor does a
``from ... import name`` that is never used; strings are not references,
so neither the name's own ``__all__`` entry nor a string annotation count.
A name read inside its own definition does not count either.

The audit is static and conservative: a method or attribute that shares a
public name counts as a reference to it, and code reached only through a
string (a registry key, ``getattr``) is listed although it runs. It is a
report, not a gate: it always exits 0.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Directories whose Python files count as users of the library.
USER_DIRS = ("src", "examples", "benchmarks", "perfbench", "tools")
_FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _python_files(top: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def public_definitions(src: str) -> List[Tuple[str, str, int, int]]:
    """``(module path, name, first line, last line)`` of every public
    top-level function and class under ``src``."""
    found = []
    for path in _python_files(src):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found.append((path, node.name, first, node.end_lineno))
    return found


def _read_names(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name read and attribute taken in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def references(root: str) -> Dict[str, Set[Tuple[str, int]]]:
    """Every name read outside ``tests/``, mapped to the ``(file, line)``
    places that read it."""
    refs: Dict[str, Set[Tuple[str, int]]] = defaultdict(set)
    for top in USER_DIRS:
        for path in _python_files(os.path.join(root, top)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for name, line in _read_names(tree):
                refs[name].add((path, line))
    for name in sorted(os.listdir(root)):
        if name.endswith(".md"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for block in _FENCE.findall(text):
                try:
                    tree = ast.parse(block)
                except SyntaxError:
                    continue
                for ref, _ in _read_names(tree):
                    refs[ref].add((path, 0))
    return refs


def unreached(root: str = ROOT) -> List[Tuple[int, str, str]]:
    """``(lines, module, name)`` of every public definition in
    ``src/repro`` that nothing outside ``tests/`` reads, largest first."""
    src = os.path.join(root, "src", "repro")
    refs = references(root)
    rows = []
    for path, name, first, last in public_definitions(src):
        outside = [
            (where, line) for where, line in refs.get(name, ())
            if where != path or not first <= line <= last
        ]
        if not outside:
            module = os.path.relpath(path, os.path.join(root, "src"))
            rows.append((last - first + 1, module, name))
    return sorted(rows, key=lambda row: (-row[0], row[1], row[2]))


def main() -> int:
    rows = unreached()
    for lines, module, name in rows:
        print(f"{lines:5d}  {module}:{name}")
    print(f"{sum(row[0] for row in rows):5d}  total, {len(rows)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())

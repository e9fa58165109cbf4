"""Name checks that CI runs over the repository's Python files.

Usage, from the repository root:

    python tools/check_names.py unused-imports src/sleeplog/*.py tests/*.py perfbench/*.py tools/*.py
    python tools/check_names.py unread-private src/sleeplog/*.py tests/*.py perfbench/*.py tools/*.py

unused-imports: a name that an import binds and its module never reads as a
name; `from __future__` imports bind nothing.

unread-private: a module-level `_name` in src/sleeplog (function, class or
assignment), or a `_method` of a class there, that no given file reads as a
name, an attribute or an imported alias.  Every given file counts as a
reader, so a helper that only tests or perfbench/ use passes; a helper that a
change leaves behind does not.

Each finding is printed as `file:line: name`; the exit code is 1 when there
is any, else 0.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    unused = []
    for path, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def unread_private(trees: dict[str, ast.Module]) -> list[str]:
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for path, tree in trees.items():
        if not path.startswith("src/sleeplog/"):
            continue
        names = []
        for node in tree.body:
            if isinstance(node, defs):
                names.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                names += [(m.lineno, m.name) for m in node.body if isinstance(m, defs[:2])]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)]
        for lineno, name in names:
            if name.startswith("_") and not name.endswith("__") and name not in read:
                unread.append(f"{path}:{lineno}: {name}")
    return unread


CHECKS = {"unused-imports": unused_imports, "unread-private": unread_private}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in CHECKS:
        print(f"usage: check_names.py {{{','.join(CHECKS)}}} FILE...", file=sys.stderr)
        return 2
    trees = {}
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read(), path)
    found = sorted(CHECKS[argv[0]](trees))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Code lines of each Python module, and their change against another tree.

A code line is one that holds a token of code: not blank, not a comment
alone and not part of a docstring (a module's, class's or function's
first statement when it is a string, found with ``ast``). A line of a
multi-line string that is not a docstring is code. Each PATH (default
``src/bpac``) is a ``.py`` file or a directory, searched recursively,
relative to the current directory:

    python3 scripts/loc.py
    python3 scripts/loc.py src/bpac tests/reference.py --against ../parent

The first prints each module's code lines and the total. With
``--against DIR`` the same PATHs are read under DIR too, and each module
gets its code lines there, here and the change; a module that only one
tree has counts 0 in the other. A PATH that neither tree has exits 2.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: a line of only these is blank or a comment.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code, docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(root: Path, path: str) -> dict[str, int]:
    """Code lines of each module at ``path`` under ``root``, keyed by its path
    relative to ``root``; empty when ``root`` has no such path."""
    target = root / path
    files = (sorted(target.rglob("*.py")) if target.is_dir() else
             [target] if target.is_file() else [])
    return {file.relative_to(root).as_posix(): code_lines(file.read_text()) for file in files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/bpac"], metavar="PATH",
                        help="a .py file or a directory (default: src/bpac)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second tree to read the same paths under")
    args = parser.parse_args(argv)
    if args.against is not None and not args.against.is_dir():
        parser.error(f"--against {args.against}: not a directory")

    here, there = {}, {}
    for path in args.paths:
        found_here = modules(Path.cwd(), path)
        found_there = {} if args.against is None else modules(args.against, path)
        if not found_here and not found_there:
            parser.error(f"{path}: no Python file there")
        here.update(found_here)
        there.update(found_there)

    if args.against is None:
        for name, count in sorted(here.items()):
            print(f"{count:7d}  {name}")
        print(f"{sum(here.values()):7d}  total")
        return 0
    print(f"{'against':>7}  {'here':>7}  {'change':>7}  file")
    rows = [(name, there.get(name, 0), here.get(name, 0)) for name in sorted(here.keys() | there.keys())]
    rows.append(("total", sum(there.values()), sum(here.values())))
    for name, before, after in rows:
        print(f"{before:7d}  {after:7d}  {after - before:+7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

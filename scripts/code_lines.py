"""Print the code lines of each module of src/jumpspec and their total.

A code line holds part of a statement: blank lines, comment lines and the
lines of docstrings do not count. Run from anywhere:

    python scripts/code_lines.py [TREE ...]

With no TREE it counts this checkout. Given TREEs, source checkouts of
jumpspec, it counts each with this checkout's rule and prints a column per
TREE, headed by its path, and, given two or more, the change from the first
to the last ("-" marks a module a TREE lacks). To see a change's size
against its parent commit:

    git archive --prefix=parent/ HEAD~1 | tar -x -C ..
    python scripts/code_lines.py ../parent .
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of a statement other
    than a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def tree_counts(tree: Path) -> dict[str, int]:
    """{module file name: code lines} of the tree's src/jumpspec."""
    package = tree / "src" / "jumpspec"
    if not package.is_dir():
        sys.exit(f"code_lines: {tree} has no src/jumpspec")
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(trees: list[str]) -> None:
    counts = [tree_counts(Path(t)) for t in trees or [ROOT]]
    columns = trees + ["change"] * (len(trees) > 1)
    widths = [max(5, len(c)) for c in columns] or [5]
    if trees:
        print(f"{'':16} " + " ".join(f"{c:>{w}}" for c, w in zip(columns, widths)))
    rows = [(name, [c.get(name) for c in counts]) for name in sorted(set().union(*counts))]
    for name, values in rows + [("total", [sum(c.values()) for c in counts])]:
        cells = ["-" if v is None else str(v) for v in values]
        if len(trees) > 1:
            cells.append(f"{(values[-1] or 0) - (values[0] or 0):+d}")
        print(f"{name:16} " + " ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))


if __name__ == "__main__":
    main(sys.argv[1:])
